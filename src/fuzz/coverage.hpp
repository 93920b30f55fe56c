// AFL-style edge-coverage bitmap.
//
// The CPU (Cpu::AttachCoverage) increments one 8-bit cell per retired
// instruction, indexed by hash(prev pc) ^ hash(cur pc); targets fold extra
// semantic features in (outcome kinds, expansion-volume buckets, raised
// events) through AddFeature. Raw hit counts are bucketed into the classic
// count classes (1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+) before novelty
// comparison, so "the copy loop ran twice as long" is new coverage but
// "ran 41 vs 42 times" is not — exactly the signal that walks the fuzzer
// from benign names toward the 1024-byte boundary and past it.
//
// The map keeps one invariant: a touched list that holds each non-zero
// cell's index exactly once. Every writer keeps it — the CPU's edge hook
// appends on a cell's 0 -> 1 transition (vm::CoverageSink), and so do
// AddFeature, MergeClassified, ApplyDelta and AbsorbInto (into the virgin
// map). A single execution touches ~30-300 of the 65536 cells, so Clear,
// Classify, AbsorbInto and CountNonZero cost the touched cells only, never
// a walk over the 64 KiB map. The observable results are those of the
// byte-at-a-time definitions — same classification table, same absorb
// semantics, same FNV digest over the ascending (index, value) stream.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/vm/events.hpp"

namespace connlab::fuzz {

/// One cell's worth of newly-discovered (classified) coverage: the bits
/// `index` gained when an execution was absorbed into a virgin map. A batch
/// of these is the sparse between-worker currency of the epoch sync — tiny
/// compared to shipping 64KiB maps around.
struct CoverageDelta {
  std::uint32_t index = 0;
  std::uint8_t bits = 0;
};

class CoverageMap {
 public:
  /// 64 KiB, the AFL default: big enough that this library's guest images
  /// (a few hundred distinct locations) essentially never collide.
  static constexpr std::uint32_t kSize = vm::kCoverageCells;
  static constexpr std::uint32_t kMask = kSize - 1;

  [[nodiscard]] const std::uint8_t* data() const noexcept { return map_.data(); }

  /// Indices of the non-zero cells, each once, in first-touch order.
  [[nodiscard]] std::span<const std::uint16_t> touched() const noexcept {
    return touched_;
  }

  /// The bitmap and touched list, for Cpu::AttachCoverage.
  [[nodiscard]] vm::CoverageSink sink() noexcept {
    return vm::CoverageSink{map_.data(), &touched_};
  }

  /// Zeroes the touched cells. The list keeps its capacity, so a steady
  /// fuzz loop allocates nothing.
  void Clear() noexcept {
    for (const std::uint16_t i : touched_) map_[i] = 0;
    touched_.clear();
  }

  /// Folds a non-edge feature (outcome kind, size bucket, event kind) into
  /// the same bitmap. Saturating, like the edge counters.
  void AddFeature(std::uint32_t feature) {
    const auto index = static_cast<std::uint16_t>(feature & kMask);
    std::uint8_t& cell = map_[index];
    if (cell == 0) touched_.push_back(index);
    if (cell != 0xFF) ++cell;
  }

  /// Replaces every cell with its count-class bit (1<<class).
  void Classify() noexcept;

  /// OR-merges `other` (classified or raw — it is classified in place by
  /// the caller's contract being "call Classify first"; merging classified
  /// maps is commutative and associative, which is what makes multi-worker
  /// coverage deterministic regardless of scheduling).
  void MergeClassified(const CoverageMap& other);

  /// Compares this (classified) execution map against the accumulated
  /// `virgin` map and absorbs it. Returns 2 for brand-new edges, 1 for new
  /// count classes on known edges, 0 for nothing new. When `delta` is
  /// non-null, every newly-set (index, bits) pair is appended to it, in this
  /// map's touched order — the sparse record a fuzz worker publishes at the
  /// next epoch barrier (ApplyDelta ORs it, so the order is immaterial).
  int AbsorbInto(CoverageMap& virgin,
                 std::vector<CoverageDelta>* delta = nullptr) const;

  /// ORs a batch of sparse deltas (another worker's epoch finds) into this
  /// map. Idempotent, commutative across batches.
  void ApplyDelta(std::span<const CoverageDelta> delta);

  /// Number of cells with any bit set.
  [[nodiscard]] std::uint32_t CountNonZero() const noexcept {
    return static_cast<std::uint32_t>(touched_.size());
  }

  /// Order-independent digest of the (classified) map, for determinism
  /// checks across runs / worker counts: FNV-1a over the non-zero cells'
  /// (index, value) pairs in ascending index order.
  [[nodiscard]] std::uint64_t Digest() const;

  [[nodiscard]] std::string Summary() const;

 private:
  std::array<std::uint8_t, kSize> map_{};
  std::vector<std::uint16_t> touched_;
};

/// The count-class bucket (a single bit) for a raw hit count.
std::uint8_t CountClass(std::uint8_t raw) noexcept;

}  // namespace connlab::fuzz
