// Unit tests for the guest memory model: segments, permissions, faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/mem/address_space.hpp"
#include "src/mem/perms.hpp"
#include "src/util/rng.hpp"

namespace connlab::mem {
namespace {

using util::StatusCode;

AddressSpace MakeSpace() {
  AddressSpace space;
  EXPECT_TRUE(space.Map(".text", 0x1000, 0x1000, kPermRX).ok());
  EXPECT_TRUE(space.Map(".data", 0x3000, 0x1000, kPermRW).ok());
  EXPECT_TRUE(space.Map("stack", 0x8000, 0x2000, kPermRW).ok());
  return space;
}

TEST(Perms, StringForms) {
  EXPECT_EQ(PermString(kPermRWX), "rwx");
  EXPECT_EQ(PermString(kPermRX), "r-x");
  EXPECT_EQ(PermString(kPermRW), "rw-");
  EXPECT_EQ(PermString(Perm::kNone), "---");
}

TEST(Perms, HasChecksBits) {
  EXPECT_TRUE(Has(kPermRX, Perm::kExec));
  EXPECT_FALSE(Has(kPermRW, Perm::kExec));
  EXPECT_TRUE(Has(kPermRW, Perm::kWrite));
}

TEST(Segment, ContainsRange) {
  Segment seg("s", 0x100, 0x10, kPermRW);
  EXPECT_TRUE(seg.Contains(0x100));
  EXPECT_TRUE(seg.Contains(0x10F));
  EXPECT_FALSE(seg.Contains(0x110));
  EXPECT_TRUE(seg.ContainsRange(0x108, 8));
  EXPECT_FALSE(seg.ContainsRange(0x108, 9));
  EXPECT_FALSE(seg.ContainsRange(0xFF, 2));
}

TEST(AddressSpace, MapRejectsOverlap) {
  AddressSpace space = MakeSpace();
  EXPECT_EQ(space.Map("overlap", 0x1800, 0x100, kPermRW).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(space.Map("touching-ok", 0x2000, 0x100, kPermRW).code(),
            StatusCode::kOk);
}

TEST(AddressSpace, MapRejectsEmptyAnd32BitOverflow) {
  AddressSpace space;
  EXPECT_FALSE(space.Map("empty", 0x1000, 0, kPermRW).ok());
  EXPECT_FALSE(space.Map("huge", 0xFFFFF000, 0x2000, kPermRW).ok());
  EXPECT_TRUE(space.Map("edge", 0xFFFFF000, 0x1000, kPermRW).ok());
}

TEST(AddressSpace, ReadWriteRoundTrip) {
  AddressSpace space = MakeSpace();
  ASSERT_TRUE(space.WriteU32(0x3000, 0xdeadbeef).ok());
  EXPECT_EQ(space.ReadU32(0x3000).value(), 0xdeadbeefu);
  ASSERT_TRUE(space.WriteU8(0x3004, 0x7F).ok());
  EXPECT_EQ(space.ReadU8(0x3004).value(), 0x7F);
}

TEST(AddressSpace, LittleEndianLayout) {
  AddressSpace space = MakeSpace();
  ASSERT_TRUE(space.WriteU32(0x3000, 0x11223344).ok());
  EXPECT_EQ(space.ReadU8(0x3000).value(), 0x44);
  EXPECT_EQ(space.ReadU8(0x3003).value(), 0x11);
}

TEST(AddressSpace, WriteToReadOnlyFails) {
  AddressSpace space = MakeSpace();
  auto status = space.WriteU32(0x1000, 1);
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(space.last_fault().has_value());
  EXPECT_EQ(space.last_fault()->kind, AccessKind::kWrite);
  EXPECT_EQ(space.last_fault()->addr, 0x1000u);
}

TEST(AddressSpace, UnmappedAccessFails) {
  AddressSpace space = MakeSpace();
  EXPECT_EQ(space.ReadU32(0x7000).status().code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(space.last_fault().has_value());
  EXPECT_NE(space.last_fault()->detail.find("unmapped"), std::string::npos);
}

TEST(AddressSpace, RangeMayNotStraddleSegments) {
  AddressSpace space = MakeSpace();
  // 0x3FFE..0x4002 runs off the end of .data.
  EXPECT_FALSE(space.WriteU32(0x3FFE, 1).ok());
  EXPECT_FALSE(space.ReadU32(0x3FFE).ok());
}

TEST(AddressSpace, FetchEnforcesExec) {
  AddressSpace space = MakeSpace();
  EXPECT_TRUE(space.Fetch(0x1000, 4).ok());
  auto r = space.Fetch(0x8000, 4);  // stack is rw- : W^X blocks this
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(space.last_fault().has_value());
  EXPECT_EQ(space.last_fault()->kind, AccessKind::kFetch);
}

TEST(AddressSpace, FetchFromRwxStackAllowed) {
  AddressSpace space = MakeSpace();
  ASSERT_TRUE(space.Protect("stack", kPermRWX).ok());
  EXPECT_TRUE(space.Fetch(0x8000, 4).ok());
}

TEST(AddressSpace, ProtectUnknownSegment) {
  AddressSpace space = MakeSpace();
  EXPECT_EQ(space.Protect("nope", kPermRW).code(), StatusCode::kNotFound);
}

TEST(AddressSpace, ReadCString) {
  AddressSpace space = MakeSpace();
  const util::Bytes s = util::BytesOf("/bin/sh");
  ASSERT_TRUE(space.WriteBytes(0x3100, s).ok());
  ASSERT_TRUE(space.WriteU8(0x3107, 0).ok());
  EXPECT_EQ(space.ReadCString(0x3100).value(), "/bin/sh");
  // Unterminated within max_len:
  EXPECT_FALSE(space.ReadCString(0x3100, 3).ok());
}

TEST(AddressSpace, DebugAccessIgnoresPerms) {
  AddressSpace space = MakeSpace();
  // .text is not writable, but the loader/debugger may write it.
  EXPECT_TRUE(space.DebugWrite(0x1000, util::Bytes{1, 2, 3}).ok());
  EXPECT_EQ(space.DebugRead(0x1000, 3).value(), (util::Bytes{1, 2, 3}));
  // But never unmapped memory.
  EXPECT_FALSE(space.DebugWrite(0x6000, util::Bytes{1}).ok());
  EXPECT_FALSE(space.DebugRead(0x6000, 1).ok());
}

TEST(AddressSpace, FindSegment) {
  AddressSpace space = MakeSpace();
  ASSERT_NE(space.FindSegment(0x1234), nullptr);
  EXPECT_EQ(space.FindSegment(0x1234)->name(), ".text");
  EXPECT_EQ(space.FindSegment(0x0), nullptr);
  EXPECT_EQ(space.FindSegment(0x2000), nullptr);
  ASSERT_NE(space.FindSegmentByName("stack"), nullptr);
  EXPECT_EQ(space.FindSegmentByName("stack")->base(), 0x8000u);
  EXPECT_EQ(space.FindSegmentByName("nope"), nullptr);
}

TEST(AddressSpace, MapsStringListsSegmentsInOrder) {
  AddressSpace space = MakeSpace();
  const std::string maps = space.MapsString();
  const auto text_pos = maps.find(".text");
  const auto data_pos = maps.find(".data");
  const auto stack_pos = maps.find("stack");
  EXPECT_NE(text_pos, std::string::npos);
  EXPECT_LT(text_pos, data_pos);
  EXPECT_LT(data_pos, stack_pos);
  EXPECT_NE(maps.find("r-x"), std::string::npos);
}

TEST(AddressSpace, WriteBytesBulk) {
  AddressSpace space = MakeSpace();
  util::Bytes big(0x800, 0xAB);
  ASSERT_TRUE(space.WriteBytes(0x3000, big).ok());
  auto back = space.ReadBytes(0x3000, 0x800);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), big);
}

TEST(AddressSpace, ClearFault) {
  AddressSpace space = MakeSpace();
  (void)space.ReadU8(0x0);
  ASSERT_TRUE(space.last_fault().has_value());
  space.ClearFault();
  EXPECT_FALSE(space.last_fault().has_value());
}

TEST(AddressSpace, FetchSegmentRequiresExecPermission) {
  AddressSpace space = MakeSpace();
  auto text = space.FetchSegment(0x1000, 4);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value()->name(), ".text");

  auto data = space.FetchSegment(0x3000, 4);
  EXPECT_FALSE(data.ok());
  ASSERT_TRUE(space.last_fault().has_value());
  EXPECT_EQ(space.last_fault()->kind, AccessKind::kFetch);

  EXPECT_FALSE(space.FetchSegment(0x0, 4).ok());       // unmapped
  EXPECT_FALSE(space.FetchSegment(0x1FFE, 4).ok());    // runs off the end
}

TEST(AddressSpace, FetchSegmentWindowMatchesFetch) {
  AddressSpace space = MakeSpace();
  const Segment* seg = space.FindSegmentByName(".text");
  ASSERT_NE(seg, nullptr);
  util::Bytes code{0xAA, 0xBB, 0xCC, 0xDD};
  ASSERT_TRUE(space.DebugWrite(0x1000, code).ok());
  auto got = space.FetchSegment(0x1000, 4);
  ASSERT_TRUE(got.ok());
  const util::ByteSpan window = got.value()->SpanAt(0x1000, 4);
  const util::Bytes copied = space.Fetch(0x1000, 4).value();
  EXPECT_TRUE(std::equal(window.begin(), window.end(), copied.begin()));
}

TEST(Segment, GenerationBumpsOnEveryMutation) {
  AddressSpace space = MakeSpace();
  const Segment* data = space.FindSegmentByName(".data");
  ASSERT_NE(data, nullptr);
  std::uint64_t gen = data->generation();

  ASSERT_TRUE(space.WriteU8(0x3000, 1).ok());
  EXPECT_GT(data->generation(), gen);
  gen = data->generation();

  ASSERT_TRUE(space.WriteU32(0x3004, 42).ok());
  EXPECT_GT(data->generation(), gen);
  gen = data->generation();

  ASSERT_TRUE(space.WriteBytes(0x3008, util::Bytes{1, 2, 3}).ok());
  EXPECT_GT(data->generation(), gen);
  gen = data->generation();

  ASSERT_TRUE(space.DebugWrite(0x3000, util::Bytes{9}).ok());
  EXPECT_GT(data->generation(), gen);
  gen = data->generation();

  // mprotect counts as a mutation too: X may have been granted or revoked.
  ASSERT_TRUE(space.Protect(".data", kPermRWX).ok());
  EXPECT_GT(data->generation(), gen);
  gen = data->generation();

  // Reads leave the generation alone.
  (void)space.ReadU32(0x3000);
  (void)space.ReadBytes(0x3000, 8);
  EXPECT_EQ(data->generation(), gen);

  // Writes to another segment don't disturb this one.
  ASSERT_TRUE(space.WriteU8(0x8000, 7).ok());
  EXPECT_EQ(data->generation(), gen);
}

TEST(Segment, DirtyTrackingMarksTouchedPages) {
  Segment seg("scratch", 0x4000, 0x1000, kPermRW);  // 16 pages of 256 bytes
  EXPECT_EQ(seg.dirty_baseline(), 0u);  // no snapshot baseline yet

  seg.ResetDirty(7);
  EXPECT_EQ(seg.dirty_baseline(), 7u);
  EXPECT_FALSE(seg.HasDirtyPages());
  EXPECT_EQ(seg.CountDirtyPages(), 0u);

  seg.Set(0x4010, 0xAA);  // page 0
  EXPECT_TRUE(seg.HasDirtyPages());
  EXPECT_EQ(seg.CountDirtyPages(), 1u);

  // A bulk write straddling the page-0/page-1 boundary dirties both, but
  // page 0 was already dirty: only one new bit.
  seg.SetBytes(0x40F0, util::Bytes(32, 0xBB));
  EXPECT_EQ(seg.CountDirtyPages(), 2u);

  seg.Set(0x4300, 0xCC);  // page 3
  EXPECT_EQ(seg.CountDirtyPages(), 3u);

  // Reads don't dirty anything.
  (void)seg.At(0x4FFF);
  (void)seg.SpanAt(0x4800, 16);
  EXPECT_EQ(seg.CountDirtyPages(), 3u);

  seg.MarkAllDirty();
  EXPECT_EQ(seg.CountDirtyPages(), 16u);
}

TEST(Segment, RestoreDirtyPagesCopiesOnlyTouchedAndBumpsOnce) {
  Segment seg("scratch", 0x4000, 0x400, kPermRW);  // 4 pages
  seg.SetBytes(0x4000, util::Bytes(0x400, 0x11));
  seg.ResetDirty(1);
  const util::Bytes reference = seg.data();

  seg.Set(0x4100, 0xEE);  // page 1
  seg.Set(0x43FF, 0xEF);  // page 3
  EXPECT_EQ(seg.CountDirtyPages(), 2u);
  const std::uint64_t gen = seg.generation();

  EXPECT_EQ(seg.RestoreDirtyPagesFrom(
                util::ByteSpan(reference.data(), reference.size())),
            2u);
  EXPECT_EQ(seg.data(), reference);
  // One bump total — enough to kill stale decodes, cheap enough to keep the
  // restore O(touched pages).
  EXPECT_EQ(seg.generation(), gen + 1);
  EXPECT_FALSE(seg.HasDirtyPages());
  // Baseline survives the restore, so the next rewind to the same snapshot
  // may trust the bitmap again.
  EXPECT_EQ(seg.dirty_baseline(), 1u);

  // Nothing dirty => nothing copied, generation untouched, caches stay warm.
  EXPECT_EQ(seg.RestoreDirtyPagesFrom(
                util::ByteSpan(reference.data(), reference.size())),
            0u);
  EXPECT_EQ(seg.generation(), gen + 1);
}

TEST(Segment, MutableDataPessimisticallyDirtiesEverything) {
  Segment seg("scratch", 0x4000, 0x1000, kPermRW);
  seg.ResetDirty(3);
  EXPECT_FALSE(seg.HasDirtyPages());
  (void)seg.mutable_data();
  EXPECT_EQ(seg.CountDirtyPages(), 16u);
}

// --- Region registers ------------------------------------------------------
// Reads, writes and fetches each keep the segment that last served them. A
// register must change where an access is looked up, never its outcome:
// every case below states the outcome the segment table alone implies.

std::string HexAddr(GuestAddr a) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", a);
  return buf;
}

std::string FaultDetail(const AddressSpace& space) {
  return space.last_fault() ? space.last_fault()->detail : "<no fault>";
}

AccessKind FaultKind(const AddressSpace& space) {
  EXPECT_TRUE(space.last_fault().has_value());
  return space.last_fault() ? space.last_fault()->kind : AccessKind::kRead;
}

TEST(AddressSpace, TopOfAddressSpaceSegmentIsReachable) {
  AddressSpace space;
  ASSERT_TRUE(space.Map("top", 0xFFFFFF00, 0x100, kPermRW).ok());
  ASSERT_NE(space.FindSegment(0xFFFFFFFF), nullptr);
  ASSERT_TRUE(space.WriteU32(0xFFFFFFFC, 0xA1B2C3D4).ok());
  EXPECT_EQ(space.ReadU32(0xFFFFFFFC).value(), 0xA1B2C3D4u);
  EXPECT_EQ(space.ReadU8(0xFFFFFFFF).value(), 0xA1);
  // addr+4 wraps past 2^32: the word does not fit, whatever a 32-bit sum
  // of addr and len would claim.
  EXPECT_FALSE(space.ReadU32(0xFFFFFFFE).ok());
  EXPECT_EQ(FaultDetail(space), "unmapped address 0xfffffffe");
  EXPECT_FALSE(space.WriteU32(0xFFFFFFFD, 1).ok());
  EXPECT_EQ(FaultDetail(space), "unmapped address 0xfffffffd");
  // Nothing may be mapped over it.
  EXPECT_EQ(space.Map("overlap", 0xFFFFFF80, 0x10, kPermRW).code(),
            StatusCode::kAlreadyExists);
}

TEST(AddressSpace, HeapReadStackWriteAlternation) {
  // The CVE-2017-12865 label copy: ldrb from the packet on the heap, strb
  // into the stack buffer, one byte at a time.
  AddressSpace space = MakeSpace();
  const util::Bytes label = util::BytesOf("connman-label-copy-0123456789");
  ASSERT_TRUE(space.WriteBytes(0x3100, label).ok());
  const Segment* stack = space.FindSegmentByName("stack");
  const Segment* data = space.FindSegmentByName(".data");
  for (std::uint32_t i = 0; i < label.size(); ++i) {
    const std::uint64_t stack_gen = stack->generation();
    const std::uint64_t data_gen = data->generation();
    auto byte = space.ReadU8(0x3100 + i);
    ASSERT_TRUE(byte.ok());
    ASSERT_TRUE(space.WriteU8(0x9000 + i, byte.value()).ok());
    // Instruction fetch between the two must not disturb either side.
    ASSERT_TRUE(space.Fetch(0x1000 + 4 * (i % 8), 4).ok());
    EXPECT_EQ(stack->generation(), stack_gen + 1);
    EXPECT_EQ(data->generation(), data_gen);
  }
  EXPECT_EQ(space.ReadBytes(0x9000, static_cast<std::uint32_t>(label.size()))
                .value(),
            label);
  EXPECT_FALSE(space.last_fault().has_value());
  // The copy running off the stack's end faults exactly where it leaves.
  EXPECT_TRUE(space.WriteU8(0x9FFF, 1).ok());
  EXPECT_FALSE(space.WriteU8(0xA000, 1).ok());
  EXPECT_EQ(FaultKind(space), AccessKind::kWrite);
  EXPECT_EQ(FaultDetail(space), "unmapped address 0x0000a000");
}

TEST(AddressSpace, RevokedWriteOnCachedRegionFaults) {
  AddressSpace space = MakeSpace();
  ASSERT_TRUE(space.WriteU8(0x8010, 1).ok());  // stack serves the writes
  ASSERT_TRUE(space.Protect("stack", kPermR).ok());
  EXPECT_EQ(space.WriteU8(0x8011, 2).code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(space.last_fault().has_value());
  EXPECT_EQ(FaultKind(space), AccessKind::kWrite);
  EXPECT_EQ(space.last_fault()->addr, 0x8011u);
  EXPECT_EQ(FaultDetail(space),
            "no write permission on stack (r--) at 0x00008011");
  EXPECT_EQ(space.ReadU8(0x8011).value(), 0);  // reads still allowed

  // A snapshot restore writes permissions straight into the segment,
  // bypassing Protect: the register must notice that too.
  ASSERT_TRUE(space.Protect("stack", kPermRW).ok());
  ASSERT_TRUE(space.WriteU32(0x8020, 7).ok());
  space.FindSegmentByNameMutable("stack")->set_perms(kPermR);
  EXPECT_FALSE(space.WriteU32(0x8020, 8).ok());
  EXPECT_EQ(FaultDetail(space),
            "no write permission on stack (r--) at 0x00008020");
  EXPECT_EQ(space.ReadU32(0x8020).value(), 7u);

  // Same for the read and fetch registers.
  space.FindSegmentByNameMutable("stack")->set_perms(Perm::kNone);
  EXPECT_FALSE(space.ReadU8(0x8020).ok());
  EXPECT_EQ(FaultDetail(space),
            "no read permission on stack (---) at 0x00008020");
  ASSERT_TRUE(space.Fetch(0x1000, 4).ok());
  space.FindSegmentByNameMutable(".text")->set_perms(kPermR);
  EXPECT_FALSE(space.FetchSegment(0x1004, 4).ok());
  EXPECT_EQ(FaultDetail(space),
            "no fetch permission on .text (r--) at 0x00001004");
}

TEST(AddressSpace, U32StraddlingCachedRegionEndFaults) {
  AddressSpace space;
  // Two adjacent segments: the word at heap's end would land half in each.
  ASSERT_TRUE(space.Map("heap", 0x4000, 0x100, kPermRWX).ok());
  ASSERT_TRUE(space.Map("stack", 0x4100, 0x100, kPermRWX).ok());
  ASSERT_TRUE(space.ReadU8(0x40FF).ok());
  ASSERT_TRUE(space.WriteU8(0x40FF, 1).ok());
  ASSERT_TRUE(space.Fetch(0x40FF, 1).ok());
  const std::uint64_t heap_gen = space.FindSegmentByName("heap")->generation();
  const std::uint64_t stack_gen =
      space.FindSegmentByName("stack")->generation();
  for (const GuestAddr addr : {0x40FDu, 0x40FEu, 0x40FFu}) {
    SCOPED_TRACE(HexAddr(addr));
    const std::string detail = "unmapped address " + HexAddr(addr);
    EXPECT_FALSE(space.ReadU32(addr).ok());
    EXPECT_EQ(FaultKind(space), AccessKind::kRead);
    EXPECT_EQ(FaultDetail(space), detail);
    EXPECT_FALSE(space.WriteU32(addr, 0xFFFFFFFF).ok());
    EXPECT_EQ(FaultKind(space), AccessKind::kWrite);
    EXPECT_EQ(FaultDetail(space), detail);
    EXPECT_FALSE(space.FetchSegment(addr, 4).ok());
    EXPECT_EQ(FaultKind(space), AccessKind::kFetch);
    EXPECT_EQ(FaultDetail(space), detail);
  }
  EXPECT_EQ(space.FindSegmentByName("heap")->generation(), heap_gen);
  EXPECT_EQ(space.FindSegmentByName("stack")->generation(), stack_gen);
  EXPECT_EQ(space.ReadU8(0x4100).value(), 0);  // the failed writes left it
  // The last whole word in each segment is fine.
  EXPECT_TRUE(space.WriteU32(0x40FC, 0x01020304).ok());
  EXPECT_TRUE(space.WriteU32(0x4100, 0x05060708).ok());
  EXPECT_EQ(space.ReadU32(0x40FC).value(), 0x01020304u);
}

TEST(AddressSpace, MovedFromSpaceFaultsAsUnmapped) {
  AddressSpace space = MakeSpace();
  ASSERT_TRUE(space.ReadU8(0x3000).ok());
  ASSERT_TRUE(space.WriteU8(0x8000, 0x5A).ok());
  ASSERT_TRUE(space.Fetch(0x1000, 4).ok());

  AddressSpace moved(std::move(space));
  EXPECT_EQ(moved.ReadU8(0x8000).value(), 0x5A);
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the test.
  EXPECT_TRUE(space.segments().empty());
  EXPECT_EQ(space.FindSegment(0x3000), nullptr);
  EXPECT_FALSE(space.ReadU8(0x3000).ok());
  EXPECT_EQ(FaultDetail(space), "unmapped address 0x00003000");
  EXPECT_FALSE(space.WriteU8(0x8000, 1).ok());
  EXPECT_EQ(FaultDetail(space), "unmapped address 0x00008000");
  EXPECT_FALSE(space.FetchSegment(0x1000, 4).ok());
  EXPECT_EQ(FaultKind(space), AccessKind::kFetch);
  EXPECT_EQ(moved.ReadU8(0x8000).value(), 0x5A);  // untouched by the above

  // Move assignment: the destination's own registers pointed into segments
  // the assignment destroys; afterwards it must resolve into the new ones.
  AddressSpace dest;
  ASSERT_TRUE(dest.Map("other", 0x8000, 0x100, kPermRWX).ok());
  ASSERT_TRUE(dest.ReadU8(0x8000).ok());
  ASSERT_TRUE(dest.WriteU8(0x8000, 1).ok());
  ASSERT_TRUE(dest.Fetch(0x8000, 4).ok());
  dest = std::move(moved);
  EXPECT_EQ(dest.ReadU8(0x8000).value(), 0x5A);
  EXPECT_FALSE(dest.Fetch(0x8000, 4).ok());  // stack is rw-: W^X holds
  EXPECT_TRUE(dest.WriteU8(0x80FF, 2).ok());
  EXPECT_TRUE(dest.WriteU8(0x8100, 3).ok());  // beyond "other", inside stack
  EXPECT_FALSE(moved.ReadU8(0x8000).ok());
  EXPECT_EQ(FaultDetail(moved), "unmapped address 0x00008000");
  // NOLINTEND(bugprone-use-after-move)
}

/// The segment table as a flat list searched linearly with 64-bit bounds:
/// the specification the register-cached AddressSpace must match.
class LinearModel {
 public:
  struct Seg {
    std::string name;
    std::uint64_t base;
    std::uint64_t size;
    Perm perms;
    util::Bytes bytes;
    std::vector<bool> dirty;  // one per 256-byte page
  };

  void Map(std::string name, std::uint64_t base, std::uint64_t size,
           Perm perms) {
    segs.push_back(Seg{std::move(name), base, size, perms,
                       util::Bytes(size, 0),
                       std::vector<bool>((size + 255) / 256, false)});
  }

  /// The segment an access resolves to, or nullptr after recording the
  /// fault the real space must report.
  Seg* Check(GuestAddr addr, std::uint32_t len, AccessKind kind) {
    for (Seg& seg : segs) {
      if (addr < seg.base || addr >= seg.base + seg.size) continue;
      if (addr + std::uint64_t{len} > seg.base + seg.size) break;
      const Perm need = kind == AccessKind::kRead    ? Perm::kRead
                        : kind == AccessKind::kWrite ? Perm::kWrite
                                                     : Perm::kExec;
      if (!Has(seg.perms, need)) {
        fault = FaultInfo{kind, addr,
                          "no " + AccessKindName(kind) + " permission on " +
                              seg.name + " (" + PermString(seg.perms) +
                              ") at " + HexAddr(addr)};
        return nullptr;
      }
      return &seg;
    }
    fault = FaultInfo{kind, addr, "unmapped address " + HexAddr(addr)};
    return nullptr;
  }

  static void Write(Seg& seg, GuestAddr addr, const util::Bytes& bytes) {
    const std::uint64_t off = addr - seg.base;
    std::copy(bytes.begin(), bytes.end(), seg.bytes.begin() + off);
    const std::uint64_t last = off + bytes.size() - 1;
    for (std::uint64_t p = off / 256; p <= last / 256; ++p) seg.dirty[p] = true;
  }

  Seg* ByName(const std::string& name) {
    for (Seg& seg : segs) {
      if (seg.name == name) return &seg;
    }
    return nullptr;
  }

  std::vector<Seg> segs;
  std::optional<FaultInfo> fault;
};

TEST(AddressSpaceProperty, MatchesLinearSearchModel) {
  constexpr Perm kPerms[] = {Perm::kNone, kPermR, kPermRW,  kPermRX,
                             kPermRWX,    Perm::kWrite, Perm::kExec,
                             Perm::kWrite | Perm::kExec};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    AddressSpace space;
    LinearModel model;
    // heap and stack touch, so a word at heap's end straddles into a mapped
    // segment; "top" ends at 0xFFFFFFFF, so addr+4 wraps there.
    const struct {
      const char* name;
      std::uint32_t base, size;
      Perm perms;
    } layout[] = {{".text", 0x1000, 0x300, kPermRX},
                  {"heap", 0x4000, 0x400, kPermRW},
                  {"stack", 0x4400, 0x300, kPermRW},
                  {"top", 0xFFFFFE00, 0x200, kPermRWX}};
    for (const auto& l : layout) {
      ASSERT_TRUE(space.Map(l.name, l.base, l.size, l.perms).ok());
      model.Map(l.name, l.base, l.size, l.perms);
    }

    auto pick_addr = [&]() -> GuestAddr {
      if (rng.NextBelow(16) == 0) return rng.NextU32();  // anywhere at all
      const auto& seg = model.segs[rng.NextBelow(model.segs.size())];
      std::uint64_t off;
      switch (rng.NextBelow(4)) {
        case 0: off = seg.size - 6 + rng.NextBelow(12); break;  // the end
        case 1: off = rng.NextBelow(12) - 6; break;             // the base
        case 2: off = (rng.NextBelow(seg.size / 256 + 1) * 256) - 2 +
                      rng.NextBelow(4);
                break;  // a dirty-page boundary
        default: off = rng.NextBelow(seg.size); break;
      }
      return static_cast<GuestAddr>(seg.base + off);
    };

    for (int step = 0; step < 4000; ++step) {
      std::vector<std::uint64_t> gens;
      for (const auto& seg : space.segments()) {
        gens.push_back(seg->generation());
      }
      std::string bumped;  // the one segment whose generation must move

      const GuestAddr addr = pick_addr();
      const std::uint64_t op = rng.NextBelow(11);
      std::string what;
      switch (op) {
        case 0: {
          what = "ReadU8";
          auto got = space.ReadU8(addr);
          auto* seg = model.Check(addr, 1, AccessKind::kRead);
          ASSERT_EQ(got.ok(), seg != nullptr) << what << " " << HexAddr(addr);
          if (seg) {
            EXPECT_EQ(got.value(), seg->bytes[addr - seg->base]);
          }
          break;
        }
        case 1: {
          what = "ReadU32";
          auto got = space.ReadU32(addr);
          auto* seg = model.Check(addr, 4, AccessKind::kRead);
          ASSERT_EQ(got.ok(), seg != nullptr) << what << " " << HexAddr(addr);
          if (seg) {
            const std::uint64_t o = addr - seg->base;
            const std::uint32_t want =
                seg->bytes[o] | (seg->bytes[o + 1] << 8) |
                (seg->bytes[o + 2] << 16) |
                (static_cast<std::uint32_t>(seg->bytes[o + 3]) << 24);
            EXPECT_EQ(got.value(), want);
          }
          break;
        }
        case 2: {
          what = "WriteU8";
          const auto value = static_cast<std::uint8_t>(rng.NextU32());
          const bool ok = space.WriteU8(addr, value).ok();
          auto* seg = model.Check(addr, 1, AccessKind::kWrite);
          ASSERT_EQ(ok, seg != nullptr) << what << " " << HexAddr(addr);
          if (seg) {
            LinearModel::Write(*seg, addr, util::Bytes{value});
            bumped = seg->name;
          }
          break;
        }
        case 3: {
          what = "WriteU32";
          const std::uint32_t value = rng.NextU32();
          const bool ok = space.WriteU32(addr, value).ok();
          auto* seg = model.Check(addr, 4, AccessKind::kWrite);
          ASSERT_EQ(ok, seg != nullptr) << what << " " << HexAddr(addr);
          if (seg) {
            LinearModel::Write(
                *seg, addr,
                util::Bytes{static_cast<std::uint8_t>(value),
                            static_cast<std::uint8_t>(value >> 8),
                            static_cast<std::uint8_t>(value >> 16),
                            static_cast<std::uint8_t>(value >> 24)});
            bumped = seg->name;
          }
          break;
        }
        case 4: {
          what = "Fetch";
          const auto len = static_cast<std::uint32_t>(1 + rng.NextBelow(8));
          auto got = space.Fetch(addr, len);
          auto* seg = model.Check(addr, len, AccessKind::kFetch);
          ASSERT_EQ(got.ok(), seg != nullptr) << what << " " << HexAddr(addr);
          if (seg) {
            const auto first = seg->bytes.begin() + (addr - seg->base);
            EXPECT_EQ(got.value(), util::Bytes(first, first + len));
          }
          break;
        }
        case 5: {
          what = "FetchSegment";
          const std::uint32_t len = rng.NextBool(0.5) ? 1 : 4;
          auto got = space.FetchSegment(addr, len);
          auto* seg = model.Check(addr, len, AccessKind::kFetch);
          ASSERT_EQ(got.ok(), seg != nullptr) << what << " " << HexAddr(addr);
          if (seg) {
            EXPECT_EQ(got.value()->name(), seg->name);
          }
          break;
        }
        case 6:
        case 7: {
          // mprotect through the front door (bumps the generation) or a
          // snapshot-style direct set_perms (does not).
          auto& mseg = model.segs[rng.NextBelow(model.segs.size())];
          const Perm perms = kPerms[rng.NextBelow(std::size(kPerms))];
          mseg.perms = perms;
          if (op == 6) {
            what = "Protect " + mseg.name + " " + PermString(perms);
            ASSERT_TRUE(space.Protect(mseg.name, perms).ok());
            bumped = mseg.name;
          } else {
            what = "set_perms " + mseg.name + " " + PermString(perms);
            space.FindSegmentByNameMutable(mseg.name)->set_perms(perms);
          }
          break;
        }
        case 8: {
          what = "ClearFault";
          space.ClearFault();
          model.fault.reset();
          break;
        }
        default: {
          // Bias toward the copy loop: a heap read followed by a stack write.
          what = "copy byte";
          const auto src =
              static_cast<GuestAddr>(0x4000 + rng.NextBelow(0x404));
          const auto dst =
              static_cast<GuestAddr>(0x4400 + rng.NextBelow(0x304));
          auto byte = space.ReadU8(src);
          auto* sseg = model.Check(src, 1, AccessKind::kRead);
          ASSERT_EQ(byte.ok(), sseg != nullptr) << what << " " << HexAddr(src);
          if (!byte.ok()) break;
          const bool ok = space.WriteU8(dst, byte.value()).ok();
          auto* dseg = model.Check(dst, 1, AccessKind::kWrite);
          ASSERT_EQ(ok, dseg != nullptr) << what << " " << HexAddr(dst);
          if (dseg) {
            LinearModel::Write(*dseg, dst, util::Bytes{byte.value()});
            bumped = dseg->name;
          }
          break;
        }
      }
      SCOPED_TRACE("step " + std::to_string(step) + ": " + what + " at " +
                   HexAddr(addr));

      ASSERT_EQ(space.last_fault().has_value(), model.fault.has_value());
      if (model.fault.has_value()) {
        EXPECT_EQ(FaultKind(space), model.fault->kind);
        EXPECT_EQ(space.last_fault()->addr, model.fault->addr);
        EXPECT_EQ(FaultDetail(space), model.fault->detail);
      }
      for (std::size_t i = 0; i < model.segs.size(); ++i) {
        const Segment& seg = *space.segments()[i];
        const auto& mseg = model.segs[i];
        ASSERT_EQ(seg.name(), mseg.name);
        EXPECT_EQ(seg.perms(), mseg.perms);
        EXPECT_EQ(seg.generation() != gens[i], seg.name() == bumped)
            << seg.name();
        ASSERT_EQ(seg.data(), mseg.bytes) << seg.name();
        EXPECT_EQ(seg.CountDirtyPages(),
                  static_cast<std::uint32_t>(
                      std::count(mseg.dirty.begin(), mseg.dirty.end(), true)))
            << seg.name();
      }
    }
  }
}

}  // namespace
}  // namespace connlab::mem
