// Differential correctness gate for the VM fast path and the snapshot fast
// reboots: vm::ExecMode::kFast (predecode cache, shared decode plans, linked
// superblocks) and snapshot / dirty-page-only restores must be pure
// speedups.
//
// Every scenario below runs under kReference — the byte-copying oracle
// interpreter — and under kFast, crossed with the restore axis, and the
// observable outcomes must be identical: stop reasons, failure details,
// retired-step counts, events, crash-bucket sets and coverage digests. Any
// divergence means a cache served a stale decode, a compiled block ran a
// stale op, or a restore differs from a real boot, and fails the build.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/attack/matrix.hpp"
#include "src/fuzz/corpus.hpp"
#include "src/fuzz/fuzzer.hpp"
#include "src/loader/snapshot.hpp"
#include "src/vm/cpu.hpp"

namespace connlab {
namespace {

using vm::ExecMode;

/// Scoped dirty-page-only restore default (RestoreSnapshot reads it
/// whenever the caller passes RestoreMode::kDefault). The only
/// process-global switch left on the VM path; these tests flip it around
/// whole single-threaded scenarios.
class DirtyRestoreGuard {
 public:
  explicit DirtyRestoreGuard(bool enabled) {
    loader::SetDirtyRestoreDefault(enabled);
  }
  ~DirtyRestoreGuard() { loader::SetDirtyRestoreDefault(true); }
};

/// Every observable field of every matrix row must match the baseline's.
void ExpectSameRows(const std::vector<attack::AttackResult>& rows,
                    const std::vector<attack::AttackResult>& baseline,
                    const std::string& label) {
  ASSERT_EQ(rows.size(), baseline.size()) << label;
  ASSERT_FALSE(baseline.empty()) << label;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(label + ", row " + std::to_string(i) + ": " +
                 rows[i].RowLabel());
    EXPECT_EQ(rows[i].kind, baseline[i].kind);
    EXPECT_EQ(rows[i].shell, baseline[i].shell);
    EXPECT_EQ(rows[i].crash, baseline[i].crash);
    EXPECT_EQ(rows[i].exploit_available, baseline[i].exploit_available);
    EXPECT_EQ(rows[i].failure, baseline[i].failure);
    EXPECT_EQ(rows[i].detail, baseline[i].detail);
    EXPECT_EQ(rows[i].guest_steps, baseline[i].guest_steps);
    EXPECT_EQ(rows[i].payload_bytes, baseline[i].payload_bytes);
    EXPECT_EQ(rows[i].response_bytes, baseline[i].response_bytes);
  }
}

TEST(Differential, SixAttackMatrixIdenticalAcrossModes) {
  ExpectSameRows(attack::RunSixAttackMatrix(4242, ExecMode::kFast).value(),
                 attack::RunSixAttackMatrix(4242, ExecMode::kReference).value(),
                 "fast vs reference");
}

fuzz::FuzzConfig ReplayConfig(ExecMode mode, bool fast_reset) {
  fuzz::FuzzConfig config;
  config.target.kind = fuzz::TargetKind::kDnsproxy;
  config.target.fast_reset = fast_reset;
  config.target.exec_mode = mode;
  config.seed = 42;
  config.max_execs = 3000;
  config.workers = 1;
  config.minimize = false;
  return config;
}

struct ReplayOutcome {
  std::uint64_t digest = 0;
  std::size_t coverage_cells = 0;
  std::size_t buckets = 0;
  std::uint64_t crashing_execs = 0;
  std::size_t corpus_size = 0;
};

void ExpectSameOutcome(const ReplayOutcome& a, const ReplayOutcome& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.coverage_cells, b.coverage_cells);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.crashing_execs, b.crashing_execs);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
}

ReplayOutcome OutcomeOf(const fuzz::FuzzConfig& config) {
  auto report = fuzz::Fuzzer(config).Run();
  EXPECT_TRUE(report.ok());
  ReplayOutcome out;
  if (!report.ok()) return out;
  out.digest = report.value().stats.coverage_digest;
  out.coverage_cells = report.value().stats.coverage_cells;
  out.buckets = report.value().triage.buckets().size();
  out.crashing_execs = report.value().stats.crashing_execs;
  out.corpus_size = report.value().stats.corpus_size;
  return out;
}

ReplayOutcome RunReplay(ExecMode mode, bool fast_reset) {
  return OutcomeOf(ReplayConfig(mode, fast_reset));
}

TEST(Differential, FuzzReplayIdenticalAcrossModes) {
  // Full fast engine vs full legacy engine, plus each half alone, so a
  // regression pinpoints which half broke.
  const ReplayOutcome fast = RunReplay(ExecMode::kFast, true);
  const ReplayOutcome cache_only = RunReplay(ExecMode::kFast, false);
  const ReplayOutcome snapshot_only = RunReplay(ExecMode::kReference, true);
  const ReplayOutcome legacy = RunReplay(ExecMode::kReference, false);

  ExpectSameOutcome(fast, legacy);

  EXPECT_EQ(cache_only.digest, legacy.digest);
  EXPECT_EQ(snapshot_only.digest, legacy.digest);
  EXPECT_EQ(cache_only.buckets, legacy.buckets);
  EXPECT_EQ(snapshot_only.buckets, legacy.buckets);
}

/// Multi-worker determinism on the default fast engine (workers share
/// decode plans): two runs of the same config agree.
TEST(Differential, MultiWorkerSharedPlanCampaignIsDeterministic) {
  fuzz::FuzzConfig config = ReplayConfig(ExecMode::kFast, true);
  config.workers = 3;
  auto first = fuzz::Fuzzer(config).Run();
  auto second = fuzz::Fuzzer(config).Run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().stats.execs, second.value().stats.execs);
  EXPECT_EQ(first.value().stats.coverage_digest,
            second.value().stats.coverage_digest);
  EXPECT_EQ(first.value().triage.buckets().size(),
            second.value().triage.buckets().size());
}

// --- PR 8: epoch-batched cross-worker sync ---------------------------------

ReplayOutcome RunMultiWorkerReplay(ExecMode mode, std::uint64_t sync) {
  fuzz::FuzzConfig config =
      ReplayConfig(mode, /*fast_reset=*/mode == ExecMode::kFast);
  config.workers = 3;
  config.sync_interval = sync;
  return OutcomeOf(config);
}

/// The differential gate must keep holding once workers exchange corpus
/// deltas mid-campaign: for a FIXED sync setting, fast and legacy VM modes
/// land on the same merged outcome. Sync on and sync off are different
/// (equally deterministic) campaigns — workers that absorb each other's
/// finds mutate different parents — so the comparison is within each sync
/// setting across VM modes, never across sync settings.
TEST(Differential, EpochSyncedReplayIdenticalAcrossVmModes) {
  // Three workers x 1000 execs, an exchange every 400: epochs fire mid-run.
  const ReplayOutcome fast_synced = RunMultiWorkerReplay(ExecMode::kFast, 400);
  const ReplayOutcome legacy_synced =
      RunMultiWorkerReplay(ExecMode::kReference, 400);
  ExpectSameOutcome(fast_synced, legacy_synced);

  const ReplayOutcome fast_solo = RunMultiWorkerReplay(ExecMode::kFast, 0);
  const ReplayOutcome legacy_solo =
      RunMultiWorkerReplay(ExecMode::kReference, 0);
  ExpectSameOutcome(fast_solo, legacy_solo);
}

// --- Execution mode × restore mode -----------------------------------------

struct Combo {
  ExecMode mode;
  bool dirty_restore;
  std::string Label() const {
    return std::string(vm::ExecModeName(mode)) +
           " dirty_restore=" + (dirty_restore ? "on" : "off");
  }
};

// The whole matrix: the oracle and the fast path, each with dirty-page-only
// and full-copy snapshot restores.
constexpr Combo kCombos[] = {{ExecMode::kFast, true},
                             {ExecMode::kFast, false},
                             {ExecMode::kReference, true},
                             {ExecMode::kReference, false}};

/// The full attack matrix must be bit-for-bit identical in every combo — a
/// compiled block or cached decode serving one stale op anywhere in the
/// exploit chains (SMC shellcode, W^X flips, canary/CFI traps, diversity
/// reshuffles), or a restore that differs from a fresh boot, moves a row and
/// fails this.
TEST(Differential, SixAttackMatrixIdenticalAcrossSuperblockCombos) {
  std::vector<attack::AttackResult> baseline;
  std::string baseline_label;
  for (const Combo& combo : kCombos) {
    DirtyRestoreGuard dirty(combo.dirty_restore);
    std::vector<attack::AttackResult> rows =
        attack::RunSixAttackMatrix(4242, combo.mode).value();
    if (baseline.empty()) {
      baseline = std::move(rows);
      baseline_label = combo.Label();
      ASSERT_FALSE(baseline.empty());
      continue;
    }
    ExpectSameRows(rows, baseline, combo.Label() + " vs " + baseline_label);
  }
}

/// Fixed-seed fuzz replay (snapshot reboots on, so dirty-only restores
/// actually engage) across the same combos: coverage digest, buckets, crash
/// counts and corpus are invariants of the campaign, not of the engine.
/// Coverage is recorded per retired instruction inside compiled blocks, so
/// even the AFL edge stream must not move.
TEST(Differential, FuzzReplayIdenticalAcrossSuperblockCombos) {
  ReplayOutcome baseline{};
  bool have_baseline = false;
  for (const Combo& combo : kCombos) {
    DirtyRestoreGuard dirty(combo.dirty_restore);
    const ReplayOutcome out = RunReplay(combo.mode, true);
    if (!have_baseline) {
      baseline = out;
      have_baseline = true;
      continue;
    }
    SCOPED_TRACE(combo.Label());
    ExpectSameOutcome(out, baseline);
  }
}

/// Execution mode is per CPU, not per process: a kReference and a kFast
/// replay running at the same time on two threads each land exactly where
/// they land alone. Tier state shared process-wide that each run sets for
/// its own mode is a data race here, which the tsan job (it runs this
/// suite) reports.
TEST(Differential, ConcurrentReferenceAndFastReplaysMatchSerial) {
  const ReplayOutcome serial_ref = RunReplay(ExecMode::kReference, true);
  const ReplayOutcome serial_fast = RunReplay(ExecMode::kFast, true);
  ReplayOutcome concurrent_ref;
  ReplayOutcome concurrent_fast;
  std::thread ref_thread(
      [&] { concurrent_ref = RunReplay(ExecMode::kReference, true); });
  std::thread fast_thread(
      [&] { concurrent_fast = RunReplay(ExecMode::kFast, true); });
  ref_thread.join();
  fast_thread.join();
  {
    SCOPED_TRACE("reference");
    ExpectSameOutcome(concurrent_ref, serial_ref);
  }
  {
    SCOPED_TRACE("fast");
    ExpectSameOutcome(concurrent_fast, serial_fast);
  }
  ExpectSameOutcome(serial_ref, serial_fast);
}

/// The pinned eight-worker epoch-synced campaign under both execution
/// modes: each must land on the very digests committed before the
/// superblock tier existed (tests/test_fuzz.cpp pins the same constants).
/// This is the cross-change anchor — the fast path changed nothing
/// observable, even under worker-parallel execution with mid-campaign
/// corpus exchanges.
TEST(Differential, EightWorkerSyncedDigestUnmovedByTierModes) {
  constexpr std::uint64_t kCoverageDigest = 0xd8788bc796ab373cULL;
  constexpr std::uint64_t kCorpusDigest = 0x9c372e9e5056301aULL;
  for (const ExecMode mode : {ExecMode::kReference, ExecMode::kFast}) {
    SCOPED_TRACE(vm::ExecModeName(mode));
    fuzz::FuzzConfig config;
    config.target.kind = fuzz::TargetKind::kDnsproxy;
    config.target.exec_mode = mode;
    config.seed = 42;
    config.max_execs = 8000;
    config.workers = 8;
    config.sync_interval = 250;
    config.minimize = false;
    auto report = fuzz::Fuzzer(config).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().stats.coverage_digest, kCoverageDigest)
        << std::hex << report.value().stats.coverage_digest;
    std::uint64_t corpus_digest = 0xcbf29ce484222325ULL;  // FNV-1a 64
    for (const char c : fuzz::SerializeCorpus(report.value().corpus)) {
      corpus_digest ^= static_cast<std::uint8_t>(c);
      corpus_digest *= 0x100000001b3ULL;
    }
    EXPECT_EQ(corpus_digest, kCorpusDigest) << std::hex << corpus_digest;
  }
}

}  // namespace
}  // namespace connlab
