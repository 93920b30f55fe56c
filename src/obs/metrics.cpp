#include "src/obs/metrics.hpp"

namespace connlab::obs {

std::size_t AssignThreadShard() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
}

MetricKind CounterKind(std::string_view /*name*/) noexcept {
  return MetricKind::kSeeded;
}

Histogram::Data Histogram::Snapshot() const noexcept {
  Data data;
  data.buckets.assign(kBuckets, 0);
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      data.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
    data.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t b : data.buckets) data.count += b;
  return data;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& base) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters) {
    auto it = base.counters.find(name);
    const std::uint64_t before = it == base.counters.end() ? 0 : it->second;
    delta.counters[name] = value >= before ? value - before : value;
  }
  delta.gauges = gauges;
  for (const auto& [name, data] : histograms) {
    auto it = base.histograms.find(name);
    if (it == base.histograms.end()) {
      delta.histograms[name] = data;
      continue;
    }
    Histogram::Data d = data;
    for (std::size_t i = 0; i < d.buckets.size() && i < it->second.buckets.size();
         ++i) {
      d.buckets[i] -= it->second.buckets[i];
    }
    d.count -= it->second.count;
    d.sum -= it->second.sum;
    delta.histograms[name] = std::move(d);
  }
  return delta;
}

Registry& Registry::Instance() noexcept {
  static Registry* registry = new Registry();  // never destroyed: metrics
  return *registry;                            // outlive static teardown
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(name);
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(name);
  return *slot;
}

MetricsSnapshot Registry::Scrape() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->Snapshot();
  }
  return snap;
}

}  // namespace connlab::obs
