// Process-wide metrics registry: monotonic counters, gauges and
// fixed-bucket histograms, designed so the instrumented hot paths stay hot.
//
// Counters and histograms are sharded: each metric owns kShards
// cache-line-padded cells, a thread picks its cell once (a thread_local
// index assigned round-robin on first use) and from then on an increment is
// one relaxed atomic add with no sharing between campaign workers.
// Aggregation happens only at scrape time, when Registry::Scrape() sums the
// shards into a plain MetricsSnapshot.
//
// Metrics are looked up by name exactly once per call site: the OBS_*
// macros in obs.hpp stash the Registry::GetCounter() result in a
// function-local static, so steady state never touches the registry map or
// its mutex. Everything here is additive-only — scraping while workers are
// mid-increment is safe and merely yields a momentary undercount, which is
// why callers that need exact numbers (the end-of-campaign report) scrape
// after joining their threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace connlab::obs {

/// Shard count for counters/histograms; a power of two comfortably above
/// the fuzzer's default worker ladder (1/2/4/8).
inline constexpr std::size_t kMetricShards = 16;

/// Draws the next shard index from the global round-robin (out of line; one
/// call per thread lifetime).
std::size_t AssignThreadShard() noexcept;

/// Stable per-thread shard index in [0, kMetricShards): assigned from a
/// global round-robin on first use, so campaign worker threads land on
/// distinct cells until the shard count is exceeded. Inline so the hot-path
/// Add() compiles to a TLS load + one relaxed fetch_add.
inline std::size_t ThisThreadShard() noexcept {
  thread_local const std::size_t shard = AssignThreadShard();
  return shard;
}

/// Monotonic counter. Add() is one relaxed atomic increment on this
/// thread's shard; Value() sums the shards (scrape-time only).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(std::uint64_t n = 1) noexcept {
    shards_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Value() const noexcept {
    std::uint64_t sum = 0;
    for (const Cell& cell : shards_) {
      sum += cell.v.load(std::memory_order_relaxed);
    }
    return sum;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::string name_;
  Cell shards_[kMetricShards];
};

/// Last-write-wins gauge (worker counts, configured budgets). Not sharded:
/// sets are rare and the latest value is the interesting one.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Power-of-two-bucket histogram: bucket i counts observations in
/// [2^(i-1), 2^i) with bucket 0 reserved for zero. Fixed bucket count, no
/// allocation after construction, sharded like Counter.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 33;  // zero + 32 doubling buckets

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Observe(std::uint64_t value) noexcept {
    Shard& shard = shards_[ThisThreadShard()];
    shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// floor(log2(value)) + 1, 0 for 0 — the fixed bucket map.
  [[nodiscard]] static std::size_t BucketIndex(std::uint64_t value) noexcept {
    std::size_t index = 0;
    while (value != 0) {
      value >>= 1;
      ++index;
    }
    return index < kBuckets ? index : kBuckets - 1;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  struct Data {
    std::vector<std::uint64_t> buckets;  // kBuckets entries
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  [[nodiscard]] Data Snapshot() const noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kBuckets]{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::string name_;
  Shard shards_[kMetricShards];
};

/// Whether a counter's value is a deterministic function of the run's seed
/// and configuration, or can differ between identical runs with the thread
/// scheduling. Determinism checks compare kSeeded counters exactly and
/// scheduling-dependent ones only through the invariants they keep.
enum class MetricKind : std::uint8_t { kSeeded, kSchedulingDependent };

/// The declared kind of a counter; every counter not declared otherwise is
/// kSeeded. No counter is declared otherwise today: every CPU compiles its
/// own blocks, so even vm.superblock.compiles is a function of the seed.
MetricKind CounterKind(std::string_view name) noexcept;

/// Plain aggregated view of every registered metric at one instant.
/// Counters in a snapshot can be rebased against an earlier snapshot
/// (obs::Scope does) so a report covers exactly one campaign.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  std::map<std::string, Histogram::Data> histograms;

  /// Counter/histogram deltas since `base` (gauges keep their last value).
  [[nodiscard]] MetricsSnapshot DeltaSince(const MetricsSnapshot& base) const;
};

/// The process-wide registry. Get*() interns by name — two call sites
/// naming the same counter share one instance — and never invalidates
/// returned references (metrics live for the process).
class Registry {
 public:
  static Registry& Instance() noexcept;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot Scrape() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace connlab::obs
