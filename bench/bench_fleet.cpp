// E16: fleet campaign throughput and the survival curve.
//
// Two headline numbers for the tripwire:
//   - fleet_victims_per_sec: how fast the discrete-event driver pushes
//     victims through join/query/attack/leave at 8 bits of diversity (the
//     heaviest configuration — most lanes, most churn), measured on
//     serial campaigns so it does not depend on the runner's core count,
//     and reported as the median of kRepetitions of them.
//   - compromised-fraction rows per entropy point (info-only: they are
//     model outputs, not performance, but CI archives them so a modeling
//     change shows up in the artifact diff).
#include <benchmark/benchmark.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench/bench_json.hpp"
#include "src/fleet/campaign.hpp"
#include "src/fleet/report.hpp"

using namespace connlab;

namespace {

/// Serial campaigns behind the throughput median in the JSON artifact.
constexpr int kRepetitions = 5;

fleet::FleetConfig BenchConfig(std::uint64_t victims, int diversity_bits) {
  fleet::FleetConfig config;
  config.victims = victims;
  config.seed = 42;
  config.population.diversity_bits = diversity_bits;
  return config;
}

void BM_FleetCampaign10k(benchmark::State& state) {
  for (auto _ : state) {
    auto result = fleet::RunFleetCampaign(BenchConfig(10000, 4));
    if (!result.ok()) state.SkipWithError("campaign failed");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FleetCampaign10k)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      benchout::TakeJsonFlag(argc, argv, "BENCH_fleet.json");
  const std::uint64_t victims = json_path.empty() ? 200000 : 100000;

  std::printf("== E16: one profiled exploit vs a diverse fleet ==\n\n");
  auto curve = fleet::RunSurvivalSweep(BenchConfig(victims, 0), {0, 4, 8});
  if (!curve.ok()) {
    std::printf("error: %s\n", curve.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", fleet::RenderSurvivalCurve(curve.value()).c_str());
  std::printf("curve digest: %016" PRIx64 "\n\n",
              fleet::CurveDigest(curve.value()));

  // Throughput headline: the heaviest configuration, run alone. The sweep
  // above runs its campaigns in parallel, so its per-point rates depend on
  // how many cores the runner has and what the other campaigns are doing.
  // One serial run swings with host load, so it repeats and reports the
  // median.
  benchout::Samples samples;
  for (int r = 0; r < kRepetitions; ++r) {
    auto heavy = fleet::RunFleetCampaign(BenchConfig(victims, 8));
    if (!heavy.ok()) {
      std::printf("error: %s\n", heavy.status().ToString().c_str());
      return 1;
    }
    samples.Add("fleet_victims_per_sec", heavy.value().victims_per_sec);
  }
  std::printf("serial campaign (8 bits, %" PRIu64 " victims, median of %d "
              "runs): %.0f victims/sec\n\n",
              victims, kRepetitions, samples.Median("fleet_victims_per_sec"));

  if (!json_path.empty()) {
    benchout::JsonWriter json;
    json.Integer("repetitions", kRepetitions);
    json.String("bench", "fleet");
    json.Integer("fleet_victims", victims);
    json.Medians(samples);
    for (const fleet::SurvivalPoint& p : curve.value()) {
      json.Number("fleet_fraction_b" + std::to_string(p.diversity_bits),
                  p.compromised_fraction);
    }
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                  fleet::CurveDigest(curve.value()));
    json.String("fleet_curve_digest", digest);
    json.WriteFile(json_path);
    return 0;  // CI smoke mode: skip the microbenchmark phase
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
