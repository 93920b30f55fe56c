// The benchmark's workloads. Each workload is a fixed set of campaigns,
// each one call of a public entry point at a seed derived from the run's
// seed; an op is one campaign, and a run cycles through the set. Every
// repetition of a campaign does the same work and returns the same
// fingerprint, so its time spread within a run is host noise.
//
//   fuzz-dnsproxy   8 w1 fuzz::Fuzzer::Run campaigns on the vulnerable
//                   dnsproxy, 10K execs each
//   fleet           4 fleet::RunFleetCampaign runs (stack smash, 8 bits),
//                   100K victims each
//   grid            1 attack::RunDefenseGrid (60 cells)
//
// Campaign i uses seed + 1000 * i. A dnsproxy campaign's cost moves with
// its seed and a fleet campaign's is bimodal in it, so those workloads
// average several campaigns; the grid's cost does not depend on the seed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/util/status.hpp"

namespace perfbench {

/// Seed at which each workload's fingerprints are pinned to today's values.
inline constexpr std::uint64_t kPinnedSeed = 42;

/// One traced campaign: its fingerprint, wall time, the share of that wall
/// time the layer spans cover, and additive per-layer quantities (seconds
/// and counts) that perfbench/run.py sums and turns into metrics. Only the
/// fuzz replica times its layers apart from the code between them; for
/// fleet and grid the coverage is a program span over the op's wall time.
struct TracedOp {
  std::string fingerprint;
  double seconds = 0;
  double span_coverage = 0;
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Campaigns in the set.
  [[nodiscard]] virtual std::size_t campaigns() const noexcept = 0;

  /// Items one campaign processes: execs, victims or grid cells.
  [[nodiscard]] virtual std::uint64_t items() const noexcept = 0;

  /// The fingerprint campaign `i` must reproduce when the run uses the
  /// pinned seed and the default size; empty otherwise.
  [[nodiscard]] virtual std::string pinned(std::size_t i) const = 0;

  /// Campaign `i` through the public entry point.
  virtual connlab::util::Result<std::string> Run(std::size_t i) = 0;

  /// Campaign `i` with per-layer attribution.
  virtual connlab::util::Result<TracedOp> RunTraced(std::size_t i) = 0;
};

/// Builds a workload by name. `size` overrides the items per campaign
/// (fuzz budget, fleet victims) when non-zero; the grid has a fixed size.
connlab::util::Result<std::unique_ptr<Workload>> MakeWorkload(
    const std::string& name, std::uint64_t seed, std::uint64_t size);

}  // namespace perfbench
