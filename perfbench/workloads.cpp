#include "perfbench/workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "perfbench/fuzz_replica.hpp"
#include "src/attack/matrix.hpp"
#include "src/fleet/campaign.hpp"
#include "src/fuzz/fuzzer.hpp"
#include "src/obs/obs.hpp"

namespace perfbench {

using namespace connlab;

namespace {

using Clock = std::chrono::steady_clock;

// Default campaign sets (campaigns, items per campaign), and the
// fingerprints today's code gives for them at the pinned seed.
constexpr std::size_t kDnsproxyCampaigns = 8;
constexpr std::uint64_t kDnsproxyExecs = 10000;
const char* const kDnsproxyPins[kDnsproxyCampaigns] = {
    "d8788bc796ab373c/343", "6ccbc9f6c80c2154/436", "d8788bc796ab373c/319",
    "d8788bc796ab373c/350", "6ccbc9f6c80c2154/435", "6ccbc9f6c80c2154/443",
    "d8788bc796ab373c/514", "d8788bc796ab373c/521"};
constexpr std::size_t kFleetCampaigns = 4;
constexpr std::uint64_t kFleetVictims = 100000;
const char* const kFleetPins[kFleetCampaigns] = {
    "c6fae2e96e071fe5", "a729fd97d990dd97", "02fd67dae85fca8c",
    "90c3c4af4bd63095"};

/// The 60 (row, defense, outcome) labels RunDefenseGrid(4242) produces,
/// in grid order — the rows the defense_lab example prints.
const char* const kPinnedGridLabels[] = {
#include "perfbench/grid_labels.inc"
};

/// Seed of campaign `i` of a set.
std::uint64_t CampaignSeed(std::uint64_t seed, std::size_t i) {
  return seed + 1000 * static_cast<std::uint64_t>(i);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Counter(const obs::MetricsSnapshot& m, const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : static_cast<double>(it->second);
}

double HistogramSeconds(const obs::MetricsSnapshot& m,
                        const std::string& name) {
  auto it = m.histograms.find(name);
  return it == m.histograms.end()
             ? 0
             : static_cast<double>(it->second.sum) * 1e-9;
}

/// The vm/mem counters every traced op reports, read from the program's
/// own obs registry.
void AddCounters(const obs::MetricsSnapshot& m, TracedOp& op) {
  for (const char* name :
       {"vm.steps", "loader.restores", "mem.dirty_pages_copied",
        "vm.superblock.hits", "vm.superblock.fallbacks",
        "vm.superblock.compiles", "vm.superblock.imports"}) {
    op.layers[name] = Counter(m, name);
  }
}

/// Trace spans of one op with their nesting recovered from the intervals
/// (the program records spans without parent links). Single-threaded ops
/// only: nesting is by time containment.
class SpanTree {
 public:
  explicit SpanTree(const std::vector<obs::TraceEvent>& events) {
    for (const obs::TraceEvent& e : events) {
      if (e.instant) continue;
      spans_.push_back(
          Span{e.ts_us, e.ts_us + e.dur_us, e.phase + "/" + e.name, -1});
    }
    std::sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<int> open;
    for (int i = 0; i < static_cast<int>(spans_.size()); ++i) {
      while (!open.empty() && spans_[open.back()].end < spans_[i].end) {
        open.pop_back();
      }
      spans_[i].parent = open.empty() ? -1 : open.back();
      open.push_back(i);
    }
  }

  /// Summed seconds and count of spans named `key` that have an ancestor
  /// named `inside` and none named `outside` (either may be empty).
  [[nodiscard]] std::pair<double, double> Sum(
      const std::string& key, const std::string& inside = "",
      const std::string& outside = "") const {
    double us = 0;
    double n = 0;
    for (const Span& s : spans_) {
      if (s.key != key) continue;
      if (!inside.empty() && !HasAncestor(s, inside)) continue;
      if (!outside.empty() && HasAncestor(s, outside)) continue;
      us += static_cast<double>(s.end - s.start);
      ++n;
    }
    return {us * 1e-6, n};
  }

 private:
  struct Span {
    std::uint64_t start;
    std::uint64_t end;
    std::string key;
    int parent;
  };

  [[nodiscard]] bool HasAncestor(const Span& s, const std::string& key) const {
    for (int p = s.parent; p >= 0; p = spans_[p].parent) {
      if (spans_[p].key == key) return true;
    }
    return false;
  }

  std::vector<Span> spans_;
};

// --- fuzz --------------------------------------------------------------------

std::string FuzzFingerprint(std::uint64_t digest, std::uint64_t crashes) {
  return Hex(digest) + "/" + std::to_string(crashes);
}

class FuzzWorkload final : public Workload {
 public:
  FuzzWorkload(fuzz::TargetKind kind, std::uint64_t seed, std::size_t campaigns,
               std::uint64_t execs, std::vector<std::string> pinned)
      : pinned_(std::move(pinned)) {
    for (std::size_t i = 0; i < campaigns; ++i) {
      fuzz::FuzzConfig config;
      config.target.kind = kind;
      config.seed = CampaignSeed(seed, i);
      config.max_execs = execs;
      config.workers = 1;
      configs_.push_back(config);
    }
  }

  std::size_t campaigns() const noexcept override { return configs_.size(); }
  std::uint64_t items() const noexcept override {
    return configs_.front().max_execs;
  }
  std::string pinned(std::size_t i) const override {
    return pinned_.empty() ? std::string() : pinned_[i];
  }

  util::Result<std::string> Run(std::size_t i) override {
    CONNLAB_ASSIGN_OR_RETURN(fuzz::FuzzReport report,
                             fuzz::Fuzzer(configs_[i]).Run());
    return FuzzFingerprint(report.stats.coverage_digest,
                           report.stats.crashing_execs);
  }

  util::Result<TracedOp> RunTraced(std::size_t i) override {
    obs::Scope scope;
    CONNLAB_ASSIGN_OR_RETURN(ReplicaResult r, RunFuzzReplica(configs_[i]));
    const ReplicaLayers& t = r.layers;
    TracedOp op;
    op.fingerprint = FuzzFingerprint(r.coverage_digest, r.crashing_execs);
    op.seconds = t.total;
    op.span_coverage = t.coverage();
    op.layers = {
        {"fuzz.total_s", t.total},
        {"fuzz.boot.self_s", t.boot},
        {"fuzz.mutate.self_s", t.mutate},
        {"fuzz.cov_clear.self_s", t.clear},
        {"fuzz.execute.self_s", t.execute},
        {"fuzz.cov_classify.self_s", t.classify},
        {"fuzz.cov_absorb.self_s", t.absorb},
        {"fuzz.corpus.self_s", t.corpus},
        {"fuzz.triage.self_s", t.triage},
        {"fuzz.execs", static_cast<double>(r.execs)},
        {"fuzz.corpus_adds", static_cast<double>(r.corpus_adds)},
        {"fuzz.crashing_execs", static_cast<double>(r.crashing_execs)},
    };
    AddCounters(scope.Metrics(), op);
    return op;
  }

 private:
  std::vector<fuzz::FuzzConfig> configs_;
  std::vector<std::string> pinned_;
};

// --- fleet -------------------------------------------------------------------

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, std::size_t campaigns,
                std::uint64_t victims, std::vector<std::string> pinned)
      : pinned_(std::move(pinned)) {
    for (std::size_t i = 0; i < campaigns; ++i) {
      fleet::FleetConfig config;
      config.victims = victims;
      config.seed = CampaignSeed(seed, i);
      config.population.diversity_bits = 8;
      config.bug_class = fleet::BugClass::kStackSmash;
      configs_.push_back(config);
    }
  }

  std::size_t campaigns() const noexcept override { return configs_.size(); }
  std::uint64_t items() const noexcept override {
    return configs_.front().victims;
  }
  std::string pinned(std::size_t i) const override {
    return pinned_.empty() ? std::string() : pinned_[i];
  }

  util::Result<std::string> Run(std::size_t i) override {
    CONNLAB_ASSIGN_OR_RETURN(fleet::FleetResult r,
                             fleet::RunFleetCampaign(configs_[i]));
    return Hex(r.digest);
  }

  util::Result<TracedOp> RunTraced(std::size_t i) override {
    obs::Scope scope({.trace = true});
    const Clock::time_point start = Clock::now();
    CONNLAB_ASSIGN_OR_RETURN(fleet::FleetResult r,
                             fleet::RunFleetCampaign(configs_[i]));
    TracedOp op;
    op.seconds = SecondsSince(start);
    op.fingerprint = Hex(r.digest);
    const obs::MetricsSnapshot m = scope.Metrics();
    const SpanTree tree(scope.trace_sink()->Events());
    const std::string campaign_key = "fleet/RunFleetCampaign";
    const std::string battery_key = "attack/BuildVolleyBattery";
    const double campaign = tree.Sum(campaign_key).first;
    const double battery = tree.Sum(battery_key, campaign_key).first;
    const double lane_boot =
        tree.Sum("loader/Boot", campaign_key, battery_key).first;
    // Restores and volley runs carry no spans; their own histograms time
    // them (nanoseconds) inside the campaign span.
    const double restore = HistogramSeconds(m, "loader.restore_cost");
    const double volley = HistogramSeconds(m, "vm.exec_latency");
    // The campaign span wraps the whole call, so this coverage holds by
    // construction: the driver layer is the span's unattributed remainder.
    op.span_coverage = Ratio(campaign, op.seconds);
    op.layers = {
        {"fleet.lane_boot.self_s", lane_boot},
        {"fleet.restore.self_s", restore},
        {"fleet.volley_exec.self_s", volley},
        {"fleet.battery.self_s", battery},
        {"fleet.driver.self_s",
         campaign - battery - lane_boot - restore - volley},
        {"fleet.restores", static_cast<double>(r.pool.restores)},
        {"fleet.evaluations", static_cast<double>(r.pool.evaluations)},
        {"fleet.memo_hits", static_cast<double>(r.pool.memo_hits)},
    };
    AddCounters(m, op);
    return op;
  }

 private:
  std::vector<fleet::FleetConfig> configs_;
  std::vector<std::string> pinned_;
};

// --- grid --------------------------------------------------------------------

std::string GridFingerprint(const std::vector<attack::AttackResult>& rows) {
  std::string out;
  for (const attack::AttackResult& r : rows) {
    out += r.RowLabel() + " | " + r.defense + " | " + r.OutcomeLabel() + "\n";
  }
  return out;
}

class GridWorkload final : public Workload {
 public:
  GridWorkload(std::uint64_t target_seed, std::string pinned)
      : target_seed_(target_seed), pinned_(std::move(pinned)) {}

  std::size_t campaigns() const noexcept override { return 1; }
  std::uint64_t items() const noexcept override { return 60; }
  std::string pinned(std::size_t) const override { return pinned_; }

  util::Result<std::string> Run(std::size_t) override {
    CONNLAB_ASSIGN_OR_RETURN(std::vector<attack::AttackResult> rows,
                             attack::RunDefenseGrid(target_seed_));
    return GridFingerprint(rows);
  }

  util::Result<TracedOp> RunTraced(std::size_t) override {
    obs::Scope scope({.trace = true});
    const Clock::time_point start = Clock::now();
    CONNLAB_ASSIGN_OR_RETURN(std::vector<attack::AttackResult> rows,
                             attack::RunDefenseGrid(target_seed_));
    TracedOp op;
    op.seconds = SecondsSince(start);
    op.fingerprint = GridFingerprint(rows);
    const obs::MetricsSnapshot m = scope.Metrics();
    const SpanTree tree(scope.trace_sink()->Events());
    const std::string cell_key = "attack/GridCell";
    const auto [cells, n_cells] = tree.Sum(cell_key);
    const auto [boot, n_boots] = tree.Sum("loader/Boot", cell_key);
    // The cell spans wrap every iteration of the grid, so this coverage
    // holds by construction: cell self time is the unattributed remainder.
    op.span_coverage = Ratio(cells, op.seconds);
    op.layers = {
        {"grid.boot.self_s", boot},
        {"grid.cell.self_s", cells - boot},
        {"grid.boots", n_boots},
        {"grid.cells", n_cells},
    };
    AddCounters(m, op);
    return op;
  }

 private:
  std::uint64_t target_seed_;
  std::string pinned_;
};

}  // namespace

util::Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                                     std::uint64_t seed,
                                                     std::uint64_t size) {
  const bool pin = seed == kPinnedSeed && size == 0;
  const auto pins = [pin](const auto& fingerprints) {
    std::vector<std::string> out;
    if (pin) out.assign(std::begin(fingerprints), std::end(fingerprints));
    return out;
  };
  const auto size_or = [size](std::uint64_t default_size) {
    return size != 0 ? size : default_size;
  };
  if (name == "fuzz-dnsproxy") {
    return std::unique_ptr<Workload>(std::make_unique<FuzzWorkload>(
        fuzz::TargetKind::kDnsproxy, seed, kDnsproxyCampaigns,
        size_or(kDnsproxyExecs), pins(kDnsproxyPins)));
  }
  if (name == "fleet") {
    return std::unique_ptr<Workload>(std::make_unique<FleetWorkload>(
        seed, kFleetCampaigns, size_or(kFleetVictims), pins(kFleetPins)));
  }
  if (name == "grid") {
    if (size != 0 && size != 60) {
      return util::InvalidArgument("the grid has a fixed size of 60 cells");
    }
    std::string pinned;
    if (pin) {
      for (const char* label : kPinnedGridLabels) {
        pinned += std::string(label) + "\n";
      }
    }
    // Seed 42 maps to the grid's documented target seed 4242.
    return std::unique_ptr<Workload>(
        std::make_unique<GridWorkload>(4200 + seed, std::move(pinned)));
  }
  return util::InvalidArgument("unknown workload: " + name);
}

}  // namespace perfbench
