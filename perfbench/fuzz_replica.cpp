#include "perfbench/fuzz_replica.hpp"

#include <chrono>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/fuzz/mutator.hpp"
#include "src/obs/obs.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

using namespace connlab;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `call` and adds its wall time to `layer`. Each layer call reads
/// the clock before and after, so the code between calls (loop control,
/// counters, obs calls) is charged to no layer and shows as missing
/// coverage.
template <typename Call>
auto Timed(double& layer, Call&& call) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<Call>>) {
    call();
    layer += SecondsSince(start);
  } else {
    auto result = call();
    layer += SecondsSince(start);
    return result;
  }
}

}  // namespace

util::Result<ReplicaResult> RunFuzzReplica(const fuzz::FuzzConfig& config) {
  if (config.workers != 1 || !config.extra_seeds.empty() ||
      !config.corpus_path.empty() || config.stop_after_crashes != 0) {
    return util::InvalidArgument(
        "the replica covers single-worker campaigns without extra seeds");
  }
  const Clock::time_point start = Clock::now();
  ReplicaResult out;
  ReplicaLayers& t = out.layers;
  // The obs calls below are RunWorker's, so that the replica differs from
  // it only by its clock reads.
  OBS_TRACE_SPAN(worker_span, "fuzz", "RunWorker");
  worker_span.Arg("worker", std::uint64_t{0});
  worker_span.Arg("budget", config.max_execs);

  CONNLAB_ASSIGN_OR_RETURN(
      std::unique_ptr<fuzz::FuzzTarget> target,
      Timed(t.boot, [&] { return fuzz::MakeTarget(config.target); }));

  // Same stream as worker 0 of Fuzzer::Run.
  fuzz::Mutator mutator(util::Rng(config.seed).Split(0));
  util::Rng& rng = mutator.rng();
  const fuzz::MutationHint hint{
      target->fixed_prefix(), target->dns_shaped(), config.max_input_size,
      config.dictionary.empty() ? nullptr : &config.dictionary};
  const std::uint64_t budget = config.max_execs;

  fuzz::Corpus corpus;
  fuzz::CoverageMap exec_map;
  fuzz::CoverageMap virgin;
  fuzz::CrashTriage triage;
  std::vector<fuzz::CorpusEntry> pending;
  bool defer_adds = false;

  const auto run_one = [&](util::ByteSpan input) {
    Timed(t.clear, [&] { exec_map.Clear(); });
    fuzz::ExecResult result =
        Timed(t.execute, [&] { return target->Execute(input, exec_map); });
    ++out.execs;
    OBS_COUNT("fuzz.execs");
    OBS_HISTOGRAM("fuzz.input_bytes", input.size());
    return result;
  };
  const auto record = [&](const fuzz::ExecResult& result,
                          util::ByteSpan input) {
    if (result.kind == fuzz::ExecResult::Kind::kBenign) {
      Timed(t.classify, [&] { exec_map.Classify(); });
      const int news =
          Timed(t.absorb, [&] { return exec_map.AbsorbInto(virgin, nullptr); });
      if (news > 0) {
        ++out.corpus_adds;
        OBS_COUNT("fuzz.corpus_adds");
        Timed(t.corpus, [&] {
          util::Bytes data(input.begin(), input.end());
          if (defer_adds) {
            pending.push_back(
                fuzz::CorpusEntry{std::move(data), news, out.execs, 0});
          } else {
            corpus.Add(std::move(data), news, out.execs);
          }
        });
      }
    } else {
      ++out.crashing_execs;
      OBS_COUNT("fuzz.crashes");
      OBS_TRACE_INSTANT("fuzz", "crash");
      Timed(t.triage,
            [&] { triage.Record(result, input, out.execs, *target); });
    }
  };

  for (const util::Bytes& seed : target->SeedCorpus()) {
    if (out.execs >= budget) break;
    const fuzz::ExecResult result = run_one(seed);
    record(result, seed);
    Timed(t.corpus, [&] { corpus.Add(seed, 1, out.execs); });
  }

  util::Bytes mutant;  // reused across every exec, like RunWorker's buffer
  while (out.execs < budget && !corpus.empty()) {
    OBS_COUNT("fuzz.scheduler_picks");
    std::size_t pick = 0;
    std::uint32_t energy = 0;
    util::ByteSpan donor;
    Timed(t.corpus, [&] {
      pick = corpus.PickIndex(rng);
      energy = corpus.EnergyFor(pick);
      if (corpus.size() > 1) {
        std::size_t d = rng.NextBelow(corpus.size());
        if (d == pick) d = (d + 1) % corpus.size();
        donor = corpus.entry(d).data;
      }
    });
    const util::Bytes& parent = corpus.entry(pick).data;
    defer_adds = true;
    for (std::uint32_t e = 0; e < energy && out.execs < budget; ++e) {
      Timed(t.mutate,
            [&] { mutator.MutateInto(parent, hint, donor, mutant); });
      const fuzz::ExecResult result = run_one(mutant);
      record(result, mutant);
    }
    defer_adds = false;
    Timed(t.corpus, [&] {
      for (fuzz::CorpusEntry& e : pending) {
        corpus.Add(std::move(e.data), e.news, e.found_at);
      }
      pending.clear();
    });
  }

  if (config.minimize && !target->stateful_across_execs()) {
    Timed(t.triage, [&] {
      for (fuzz::CrashBucket& bucket : triage.buckets()) {
        fuzz::MinimizeBucket(*target, bucket, config.minimize_execs);
      }
    });
  }
  OBS_COUNT_N("fuzz.reboots", target->reboots());
  worker_span.Arg("execs", out.execs);
  worker_span.Arg("crashes", out.crashing_execs);

  out.coverage_digest = virgin.Digest();
  t.total = SecondsSince(start);
  return out;
}

}  // namespace perfbench
