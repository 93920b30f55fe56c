// A benchmark-owned replica of the single-worker fuzz loop
// (fuzz::Fuzzer::RunWorker with workers = 1, no sync, no extra seeds),
// built from the library's public calls only, with a clock read before and
// after every layer call. It makes RunWorker's obs calls too, so it differs
// from Fuzzer::Run by those clock reads and by Run's one-time merge of the
// worker's output. It must run the same program as Fuzzer::Run: the
// traced run compares its coverage digest and crash count with
// Fuzzer::Run's for the same (seed, budget) and fails the op otherwise.
#pragma once

#include <cstdint>

#include "src/fuzz/fuzzer.hpp"
#include "src/util/status.hpp"

namespace perfbench {

/// Seconds spent in each layer during one replica campaign. Each field
/// times only its own calls; the code between them (loop control, counters,
/// obs calls) belongs to no layer, and `coverage()` reports how much of
/// `total` the layers account for.
struct ReplicaLayers {
  double boot = 0;      // fuzz::MakeTarget (a full loader::Boot)
  double mutate = 0;    // Mutator::MutateInto
  double clear = 0;     // CoverageMap::Clear
  double execute = 0;   // FuzzTarget::Execute: vm, mem, loader restore, service
  double classify = 0;  // CoverageMap::Classify
  double absorb = 0;    // CoverageMap::AbsorbInto
  double corpus = 0;    // Corpus::PickIndex / EnergyFor / Add
  double triage = 0;    // CrashTriage::Record + MinimizeBucket
  double total = 0;     // wall time of the whole campaign

  [[nodiscard]] double spans() const noexcept {
    return boot + mutate + clear + execute + classify + absorb + corpus +
           triage;
  }
  [[nodiscard]] double coverage() const noexcept {
    return total > 0 ? spans() / total : 0;
  }
};

struct ReplicaResult {
  std::uint64_t coverage_digest = 0;
  std::uint64_t crashing_execs = 0;
  std::uint64_t execs = 0;
  std::uint64_t corpus_adds = 0;
  ReplicaLayers layers;
};

/// Runs one campaign of `config` (which must ask for one worker) through
/// the replica loop.
connlab::util::Result<ReplicaResult> RunFuzzReplica(
    const connlab::fuzz::FuzzConfig& config);

}  // namespace perfbench
