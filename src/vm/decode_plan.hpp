// Shared immutable decode plans: one read-only, pc-indexed table of
// predecoded instructions per executable-segment *content*, published via
// shared_ptr so every CPU executing the same booted image — N fuzz-campaign
// workers, the defense grid's victims, diversity-lab restores — decodes the
// text exactly once instead of once per CPU.
//
// A plan is built from a segment's bytes at a point in time and never
// mutated afterwards; sharing it across threads needs no locking beyond the
// registry's build mutex. Validity is the caller's problem and mirrors the
// per-CPU predecode cache: a CPU binds a plan to a (segment, write
// generation) pair and stops consulting it the moment the generation moves
// (self-modifying code, mprotect, a snapshot restore that rewrote bytes).
// The per-CPU 4096-slot cache remains the write-path overlay: segments that
// actually get written (shellcode on an RWX stack) re-decode through it,
// with identical fault wording and step counts.
//
// Host-function trampolines are deliberately NOT part of a plan: host-fn
// tables are per-System state, and the CPU consults them before the plan,
// so a shared plan can never shadow a trampoline.
//
// VX86 plans hold an entry per byte offset (ROP gadgets enter instructions
// at unintended offsets); VARM plans hold one per 4-byte word. Offsets
// whose bytes do not decode — or whose instruction would run off the
// segment — hold an invalid entry, and execution falls back to the ordinary
// fetch/decode path so fault details stay byte-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

#include "src/isa/isa.hpp"
#include "src/mem/segment.hpp"

namespace connlab::vm {

class DecodePlan {
 public:
  /// Content identity used to key plans and to re-arm bindings after a
  /// snapshot restore. Seeded with the length, then one multiply–xorshift
  /// round per 8-byte word (plus one for the zero-padded tail) and a final
  /// avalanche: any single-byte change at any offset changes the hash.
  [[nodiscard]] static std::uint64_t HashContent(util::ByteSpan bytes) noexcept;

  /// Decodes every reachable offset of `seg` as it is right now.
  /// `content_hash` must be HashContent of the segment's current bytes (the
  /// registry passes its key's hash rather than hashing the text twice).
  [[nodiscard]] static std::shared_ptr<const DecodePlan> Build(
      isa::Arch arch, const mem::Segment& seg, std::uint64_t content_hash);

  [[nodiscard]] isa::Arch arch() const noexcept { return arch_; }
  [[nodiscard]] mem::GuestAddr base() const noexcept { return base_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t content_hash() const noexcept { return hash_; }
  [[nodiscard]] std::uint32_t valid_entries() const noexcept { return valid_; }

  [[nodiscard]] bool Covers(mem::GuestAddr pc) const noexcept {
    return pc >= base_ && pc - base_ < size_;
  }

  /// Predecoded instruction at `pc`, or nullptr when the offset does not
  /// decode (caller falls back to the ordinary fetch/decode path). VARM
  /// lookups at unaligned pcs also return nullptr.
  [[nodiscard]] const isa::Instr* Lookup(mem::GuestAddr pc) const noexcept {
    const std::uint32_t off = pc - base_;
    if (off >= size_) return nullptr;
    const isa::Instr* entry;
    if (arch_ == isa::Arch::kVARM) {
      if ((off & 3u) != 0) return nullptr;
      entry = &entries_[off >> 2];
    } else {
      entry = &entries_[off];
    }
    return entry->length != 0 ? entry : nullptr;
  }

 private:
  DecodePlan() = default;

  isa::Arch arch_ = isa::Arch::kVX86;
  mem::GuestAddr base_ = 0;
  std::uint32_t size_ = 0;
  std::uint64_t hash_ = 0;
  std::uint32_t valid_ = 0;
  std::vector<isa::Instr> entries_;  // length == 0 marks an invalid offset
};

/// Process-wide plan store. Keyed by (arch, name, base, size, content hash),
/// so two Systems booted from the same seed share one plan, while a
/// diversity-reshuffled boot — different bytes, different hash — gets its
/// own and can never be served a stale decode. Thread-safe: multi-worker
/// campaigns boot concurrently, and the hot lookup path takes only a shared
/// (reader) lock — N workers re-booting after crashes never serialise on
/// each other. Cold builds happen outside any lock; when two workers race
/// to build the same image, one build wins the insert and the loser shares
/// it (a rare duplicate decode is cheaper than serialising every boot).
class DecodePlanRegistry {
 public:
  static DecodePlanRegistry& Instance();

  /// Returns the plan for this segment's current content, building it on
  /// first request. Identical content => identical shared_ptr.
  std::shared_ptr<const DecodePlan> GetOrBuild(isa::Arch arch,
                                               const mem::Segment& seg);

  struct Stats {
    std::uint64_t builds = 0;  // plans constructed (cold)
    std::uint64_t shares = 0;  // requests served from an existing plan
    std::size_t live_plans = 0;
  };
  [[nodiscard]] Stats GetStats() const;

  /// Drops every cached plan (tests; bound CPUs keep theirs alive via
  /// shared_ptr).
  void Clear();

 private:
  struct Key {
    std::uint8_t arch = 0;
    mem::GuestAddr base = 0;
    std::uint32_t size = 0;
    std::uint64_t hash = 0;
    std::string name;
    auto operator<=>(const Key&) const = default;
  };

  /// The diversity lab boots hundreds of unique layouts; cap the registry
  /// and evict oldest-inserted so it cannot grow without bound. Eviction is
  /// safe: live bindings hold their own shared_ptr.
  static constexpr std::size_t kMaxPlans = 128;

  mutable std::shared_mutex mu_;
  std::map<Key, std::shared_ptr<const DecodePlan>> plans_;
  std::deque<Key> insertion_order_;
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> shares_{0};
};

}  // namespace connlab::vm
