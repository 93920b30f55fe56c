// The 32-bit guest address space: an ordered set of non-overlapping Segments
// with permission-checked accessors. Every guest memory touch in connlab —
// the vulnerable memcpy, instruction fetch, gadget pops — goes through here,
// so a bad pointer produces a Fault record exactly where a real process
// would take SIGSEGV.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/mem/segment.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::mem {

/// What a failed access looked like; mirrors siginfo for SIGSEGV.
enum class AccessKind : std::uint8_t { kRead, kWrite, kFetch };

std::string AccessKindName(AccessKind kind);

struct FaultInfo {
  AccessKind kind = AccessKind::kRead;
  GuestAddr addr = 0;
  std::string detail;  // "unmapped", "no write permission on .text", ...
};

class AddressSpace {
 public:
  AddressSpace() = default;

  // Movable, not copyable: Segments are heavy and identity matters. A move
  // hands the segments — and the region registers that point at them — to
  // the destination and leaves the source an empty space with clear
  // registers, so it faults as unmapped instead of reaching into segments
  // it no longer owns.
  AddressSpace(AddressSpace&& other) noexcept
      : segments_(std::exchange(other.segments_, {})),
        last_fault_(std::exchange(other.last_fault_, std::nullopt)),
        regs_(std::exchange(other.regs_, {})) {}
  AddressSpace& operator=(AddressSpace&& other) noexcept {
    if (this != &other) {
      segments_ = std::exchange(other.segments_, {});
      last_fault_ = std::exchange(other.last_fault_, std::nullopt);
      regs_ = std::exchange(other.regs_, {});
    }
    return *this;
  }
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Maps a new segment. Fails on overlap with an existing one.
  util::Status Map(std::string name, GuestAddr base, std::uint32_t size, Perm perms);

  /// Changes a whole segment's permissions (mprotect analogue).
  util::Status Protect(std::string_view name, Perm perms);

  [[nodiscard]] const Segment* FindSegment(GuestAddr addr) const noexcept;
  [[nodiscard]] const Segment* FindSegmentByName(std::string_view name) const noexcept;
  Segment* FindSegmentByNameMutable(std::string_view name) noexcept;

  // --- Checked guest accessors -------------------------------------------
  // Reads require kRead, writes kWrite, fetches kExec (the W^X teeth).
  // Multi-byte accessors use guest (little-endian) byte order and may NOT
  // straddle segments (real mappings are page-padded; ours are too).
  // The byte and word accessors are defined inline below: their region
  // register hit is the guest's per-instruction load/store path.

  util::Result<std::uint8_t> ReadU8(GuestAddr addr) const;
  util::Result<std::uint32_t> ReadU32(GuestAddr addr) const;
  util::Result<util::Bytes> ReadBytes(GuestAddr addr, std::uint32_t len) const;
  /// Reads until NUL or `max_len`; error if it runs off the mapping.
  util::Result<std::string> ReadCString(GuestAddr addr, std::uint32_t max_len = 4096) const;

  util::Status WriteU8(GuestAddr addr, std::uint8_t value);
  util::Status WriteU32(GuestAddr addr, std::uint32_t value);
  util::Status WriteBytes(GuestAddr addr, util::ByteSpan data);

  /// Fetch check used by the CPU: validates X permission at `addr` for `len`
  /// bytes and returns them. A stack address under W^X fails here.
  util::Result<util::Bytes> Fetch(GuestAddr addr, std::uint32_t len) const;

  /// Zero-allocation fetch: same permission semantics as Fetch, but returns
  /// the backing segment instead of copying bytes out. The caller reads the
  /// window via seg->SpanAt(addr, len) and tags cached decodes with
  /// seg->generation(). The pointer stays valid for the segment's lifetime
  /// (segments are never unmapped); the *bytes* it exposes are only current
  /// while the generation is unchanged.
  util::Result<const Segment*> FetchSegment(GuestAddr addr,
                                            std::uint32_t len) const {
    const Segment* seg = Resolve(addr, len, AccessKind::kFetch);
    if (seg == nullptr) return Denied();
    return seg;
  }

  /// Unchecked variants for the loader/debugger (ptrace analogue): they see
  /// memory regardless of permissions, but still fail on unmapped addresses.
  util::Result<util::Bytes> DebugRead(GuestAddr addr, std::uint32_t len) const;
  util::Status DebugWrite(GuestAddr addr, util::ByteSpan data);

  /// The last permission/unmapped fault, for diagnostics. Cleared by
  /// ClearFault(). The CPU copies this into its exit record.
  [[nodiscard]] const std::optional<FaultInfo>& last_fault() const noexcept {
    return last_fault_;
  }
  void ClearFault() noexcept { last_fault_.reset(); }

  [[nodiscard]] const std::vector<std::unique_ptr<Segment>>& segments() const noexcept {
    return segments_;
  }

  /// /proc/<pid>/maps analogue for examples and the debugger.
  [[nodiscard]] std::string MapsString() const;

 private:
  static constexpr Perm NeededPerm(AccessKind kind) noexcept {
    return kind == AccessKind::kRead    ? Perm::kRead
           : kind == AccessKind::kWrite ? Perm::kWrite
                                        : Perm::kExec;
  }

  /// The segment that may serve a `kind` access of [addr, addr+len): the
  /// register's, when it covers the range and grants the permission;
  /// otherwise whatever the out-of-line CheckAccess finds. nullptr means
  /// the access faulted and last_fault_ says how.
  const Segment* Resolve(GuestAddr addr, std::uint32_t len,
                         AccessKind kind) const {
    const Segment* seg = regs_[static_cast<std::size_t>(kind)];
    if (seg != nullptr && seg->ContainsRange(addr, len) &&
        Has(seg->perms(), NeededPerm(kind))) [[likely]] {
      return seg;
    }
    return CheckAccess(addr, len, kind);
  }

  /// The miss path: finds the segment, builds the fault record (the only
  /// place a fault string is built) or loads the register on success.
  const Segment* CheckAccess(GuestAddr addr, std::uint32_t len, AccessKind kind) const;
  /// The error a faulted checked access returns: last_fault_'s detail.
  util::Status Denied() const;

  std::vector<std::unique_ptr<Segment>> segments_;  // sorted by base
  mutable std::optional<FaultInfo> last_fault_;
  /// Region registers, indexed by AccessKind: the segment that last served
  /// a read, a write and a fetch. One shared entry would thrash on the
  /// label copy's heap-read/stack-write alternation; one per kind holds
  /// both ends of the copy, and instruction fetch never evicts either.
  /// Segment pointers are stable (unique_ptr elements, no unmap), so a
  /// register never dangles. It caches *where*, never *whether*: the
  /// permission byte is re-read on every access, because Protect and a
  /// snapshot restore's set_perms change it without telling the space.
  mutable std::array<const Segment*, 3> regs_{};
};

inline util::Result<std::uint8_t> AddressSpace::ReadU8(GuestAddr addr) const {
  const Segment* seg = Resolve(addr, 1, AccessKind::kRead);
  if (seg == nullptr) return Denied();
  return seg->At(addr);
}

inline util::Result<std::uint32_t> AddressSpace::ReadU32(
    GuestAddr addr) const {
  const Segment* seg = Resolve(addr, 4, AccessKind::kRead);
  if (seg == nullptr) return Denied();
  return static_cast<std::uint32_t>(seg->At(addr)) |
         (static_cast<std::uint32_t>(seg->At(addr + 1)) << 8) |
         (static_cast<std::uint32_t>(seg->At(addr + 2)) << 16) |
         (static_cast<std::uint32_t>(seg->At(addr + 3)) << 24);
}

inline util::Status AddressSpace::WriteU8(GuestAddr addr, std::uint8_t value) {
  const Segment* seg = Resolve(addr, 1, AccessKind::kWrite);
  if (seg == nullptr) return Denied();
  const_cast<Segment*>(seg)->Set(addr, value);
  return util::OkStatus();
}

inline util::Status AddressSpace::WriteU32(GuestAddr addr,
                                           std::uint32_t value) {
  const Segment* seg = Resolve(addr, 4, AccessKind::kWrite);
  if (seg == nullptr) return Denied();
  const_cast<Segment*>(seg)->SetU32(addr, value);
  return util::OkStatus();
}

}  // namespace connlab::mem
