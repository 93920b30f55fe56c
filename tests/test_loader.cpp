// Loader tests: layouts, ASLR behaviour, symbol tables, image loading, and
// end-to-end guest execution of PLT/libc paths on both architectures.
#include <gtest/gtest.h>

#include <vector>

#include "src/isa/assembler.hpp"
#include "src/isa/disasm.hpp"
#include "src/isa/vx86.hpp"
#include "src/loader/boot.hpp"
#include "src/loader/layout.hpp"
#include "src/loader/libc_image.hpp"
#include "src/loader/snapshot.hpp"
#include "src/obs/obs.hpp"
#include "src/vm/decode_plan.hpp"

namespace connlab::loader {
namespace {

using isa::Arch;

TEST(ProtectionConfig, ToStringLevels) {
  EXPECT_EQ(ProtectionConfig::None().ToString(), "none");
  EXPECT_EQ(ProtectionConfig::WxOnly().ToString(), "W^X");
  EXPECT_EQ(ProtectionConfig::WxAslr().ToString(), "W^X+ASLR");
  EXPECT_EQ(ProtectionConfig::All().ToString(), "W^X+ASLR+canary");
}

TEST(Layout, MainImageIsBelowLibcAndStack) {
  for (Arch arch : {Arch::kVX86, Arch::kVARM}) {
    const Layout l = DefaultLayout(arch);
    EXPECT_LT(l.text_base, l.libc_base);
    EXPECT_LT(l.libc_base + l.libc_size, l.stack_base());
    EXPECT_LT(l.initial_sp(), l.stack_top);
    EXPECT_GT(l.initial_sp(), l.stack_base());
  }
}

TEST(Layout, AslrOffLeavesEverythingFixed) {
  util::Rng rng(1);
  const Layout a = RandomizedLayout(Arch::kVX86, ProtectionConfig::WxOnly(), rng);
  const Layout b = DefaultLayout(Arch::kVX86);
  EXPECT_EQ(a.libc_base, b.libc_base);
  EXPECT_EQ(a.stack_top, b.stack_top);
}

TEST(Layout, AslrRandomizesOnlyLibcAndStack) {
  util::Rng rng(7);
  const Layout base = DefaultLayout(Arch::kVARM);
  bool libc_moved = false;
  bool stack_moved = false;
  for (int i = 0; i < 32; ++i) {
    const Layout l = RandomizedLayout(Arch::kVARM, ProtectionConfig::WxAslr(), rng);
    EXPECT_EQ(l.text_base, base.text_base);
    EXPECT_EQ(l.bss_base, base.bss_base);
    EXPECT_EQ(l.got_base, base.got_base);
    EXPECT_LE(l.libc_base, base.libc_base);
    EXPECT_LE(l.stack_top, base.stack_top);
    EXPECT_EQ(l.libc_base % 0x1000, 0u);
    EXPECT_EQ(l.stack_top % 0x1000, 0u);
    libc_moved |= l.libc_base != base.libc_base;
    stack_moved |= l.stack_top != base.stack_top;
  }
  EXPECT_TRUE(libc_moved);
  EXPECT_TRUE(stack_moved);
}

TEST(SymbolTable, DefineLookupDescribe) {
  SymbolTable t;
  ASSERT_TRUE(t.Define("foo", 0x1000).ok());
  ASSERT_TRUE(t.Define("bar", 0x2000).ok());
  EXPECT_FALSE(t.Define("foo", 0x3000).ok());
  EXPECT_EQ(t.Lookup("foo").value(), 0x1000u);
  EXPECT_FALSE(t.Lookup("baz").ok());
  EXPECT_EQ(t.Describe(0x1000), "foo");
  EXPECT_EQ(t.Describe(0x1010), "foo+0x10");
  EXPECT_EQ(t.Describe(0x2004), "bar+0x4");
  EXPECT_EQ(t.Describe(0x10), "0x00000010");
}

class BootTest : public ::testing::TestWithParam<Arch> {};

TEST_P(BootTest, BootsWithExpectedSegments) {
  auto sys = Boot(GetParam(), ProtectionConfig::None(), 42);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  const auto& space = sys.value()->space;
  for (const char* name :
       {".text", ".rodata", ".got", ".bss", ".scratch", "heap", "libc", "stack"}) {
    EXPECT_NE(space.FindSegmentByName(name), nullptr) << name;
  }
}

TEST_P(BootTest, WxControlsStackExecutability) {
  auto lax = Boot(GetParam(), ProtectionConfig::None(), 1);
  auto strict = Boot(GetParam(), ProtectionConfig::WxOnly(), 1);
  ASSERT_TRUE(lax.ok());
  ASSERT_TRUE(strict.ok());
  const auto* lax_stack = lax.value()->space.FindSegmentByName("stack");
  const auto* strict_stack = strict.value()->space.FindSegmentByName("stack");
  EXPECT_TRUE(Has(lax_stack->perms(), mem::Perm::kExec));
  EXPECT_FALSE(Has(strict_stack->perms(), mem::Perm::kExec));
}

TEST_P(BootTest, CoreSymbolsPresent) {
  auto sys = Boot(GetParam(), ProtectionConfig::None(), 3);
  ASSERT_TRUE(sys.ok());
  for (const char* sym :
       {"connman._start", "connman.parse_response", "connman.get_name",
        "connman.parse_rr", "connman.resume_ok", "plt.memcpy", "plt.execlp",
        "plt.__strcpy_chk", "got.memcpy", "libc.system", "libc.exit",
        "libc.memcpy", "libc.execlp", "libc.str.bin_sh", "bss.start"}) {
    EXPECT_TRUE(sys.value()->symbols.Has(sym)) << sym;
  }
  // Connman has no plain strcpy — the constraint that forces the paper's
  // memcpy chain.
  EXPECT_FALSE(sys.value()->symbols.Has("plt.strcpy"));
}

TEST_P(BootTest, GotResolvesToLibc) {
  auto sys = Boot(GetParam(), ProtectionConfig::None(), 4);
  ASSERT_TRUE(sys.ok());
  auto& s = *sys.value();
  const auto got = s.Sym("got.memcpy").value();
  const auto libc_memcpy = s.Sym("libc.memcpy").value();
  EXPECT_EQ(s.space.ReadU32(got).value(), libc_memcpy);
}

TEST_P(BootTest, BinShStringLoaded) {
  auto sys = Boot(GetParam(), ProtectionConfig::None(), 5);
  ASSERT_TRUE(sys.ok());
  auto& s = *sys.value();
  const auto addr = s.Sym("libc.str.bin_sh").value();
  EXPECT_EQ(s.space.ReadCString(addr).value(), "/bin/sh");
  EXPECT_EQ(addr, s.layout.libc_base + kLibcBinShOff);
}

TEST_P(BootTest, DeterministicImageAcrossBoots) {
  auto a = Boot(GetParam(), ProtectionConfig::None(), 10);
  auto b = Boot(GetParam(), ProtectionConfig::None(), 999);  // different seed
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The main image bytes and symbols are identical regardless of seed (only
  // ASLR-covered bases and the canary depend on it).
  const auto& la = a.value()->layout;
  auto ta = a.value()->space.DebugRead(la.text_base, la.text_size).value();
  auto tb = b.value()->space.DebugRead(la.text_base, la.text_size).value();
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a.value()->Sym("gadget.pppr").value_or(0),
            b.value()->Sym("gadget.pppr").value_or(0));
}

TEST_P(BootTest, AslrMovesLibcAcrossSeeds) {
  auto a = Boot(GetParam(), ProtectionConfig::WxAslr(), 10);
  auto b = Boot(GetParam(), ProtectionConfig::WxAslr(), 11);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value()->layout.libc_base, b.value()->layout.libc_base);
  EXPECT_EQ(a.value()->layout.text_base, b.value()->layout.text_base);
}

TEST_P(BootTest, SameSeedSameAslrDraw) {
  auto a = Boot(GetParam(), ProtectionConfig::WxAslr(), 77);
  auto b = Boot(GetParam(), ProtectionConfig::WxAslr(), 77);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->layout.libc_base, b.value()->layout.libc_base);
  EXPECT_EQ(a.value()->layout.stack_top, b.value()->layout.stack_top);
}

TEST_P(BootTest, HighEntropyBootStillPlacesStack) {
  ProtectionConfig prot = ProtectionConfig::WxAslr();
  prot.aslr_entropy_bits = 16;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto sys = Boot(GetParam(), prot, seed);
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  }
}

TEST_P(BootTest, CanaryValueSetOnlyWhenEnabled) {
  auto off = Boot(GetParam(), ProtectionConfig::WxAslr(), 5);
  auto on = Boot(GetParam(), ProtectionConfig::All(), 5);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(off.value()->canary_value, 0u);
  EXPECT_NE(on.value()->canary_value, 0u);
}

// --- Guest execution through PLT and libc ----------------------------------

TEST_P(BootTest, CallingSystemViaLibcSpawnsShell) {
  auto boot = Boot(GetParam(), ProtectionConfig::None(), 21);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  // Plant a command string on the heap and call libc.system per convention.
  const mem::GuestAddr cmd = sys.layout.heap_base;
  util::Bytes text = util::BytesOf("id");
  text.push_back(0);
  ASSERT_TRUE(sys.space.WriteBytes(cmd, text).ok());
  const auto system_addr = sys.Sym("libc.system").value();
  if (GetParam() == Arch::kVX86) {
    ASSERT_TRUE(sys.cpu->Push(cmd).ok());        // argument
    ASSERT_TRUE(sys.cpu->Push(0xDEAD0001).ok()); // fake return address
  } else {
    sys.cpu->set_reg(isa::kR0, cmd);
    sys.cpu->set_reg(isa::kLR, 0xDEAD0001);
  }
  sys.cpu->set_pc(system_addr);
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kShellSpawned);
  ASSERT_FALSE(sys.cpu->events().empty());
  EXPECT_EQ(sys.cpu->events().back().kind, vm::EventKind::kShellSpawned);
}

TEST_P(BootTest, MemcpyThroughPltCopiesGuestMemory) {
  auto boot = Boot(GetParam(), ProtectionConfig::WxAslr(), 22);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const mem::GuestAddr src = sys.layout.heap_base;
  const mem::GuestAddr dst = sys.layout.bss_base;
  ASSERT_TRUE(sys.space.WriteBytes(src, util::BytesOf("COPYME")).ok());
  const auto plt_memcpy = sys.Sym("plt.memcpy").value();
  const auto resume = sys.Sym("connman.resume_ok").value();
  if (GetParam() == Arch::kVX86) {
    // cdecl frame: ret, dest, src, len, (frame word read by the epilogue).
    ASSERT_TRUE(sys.cpu->Push(0xAAAAAAAA).ok());
    ASSERT_TRUE(sys.cpu->Push(6).ok());
    ASSERT_TRUE(sys.cpu->Push(src).ok());
    ASSERT_TRUE(sys.cpu->Push(dst).ok());
    ASSERT_TRUE(sys.cpu->Push(resume).ok());
  } else {
    sys.cpu->set_reg(isa::kR0, dst);
    sys.cpu->set_reg(isa::kR1, src);
    sys.cpu->set_reg(isa::kR2, 6);
    sys.cpu->set_reg(isa::kLR, resume);
  }
  sys.cpu->set_pc(plt_memcpy);
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kHalted) << stop.ToString();
  EXPECT_EQ(sys.space.ReadBytes(dst, 6).value(), util::BytesOf("COPYME"));
}

TEST_P(BootTest, MemcpyIntoTextFaults) {
  auto boot = Boot(GetParam(), ProtectionConfig::None(), 23);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const auto libc_memcpy = sys.Sym("libc.memcpy").value();
  if (GetParam() == Arch::kVX86) {
    ASSERT_TRUE(sys.cpu->Push(0xAAAAAAAA).ok());
    ASSERT_TRUE(sys.cpu->Push(4).ok());
    ASSERT_TRUE(sys.cpu->Push(sys.layout.heap_base).ok());
    ASSERT_TRUE(sys.cpu->Push(sys.layout.text_base).ok());  // read-only dest
    ASSERT_TRUE(sys.cpu->Push(0xDEAD0001).ok());
  } else {
    sys.cpu->set_reg(isa::kR0, sys.layout.text_base);
    sys.cpu->set_reg(isa::kR1, sys.layout.heap_base);
    sys.cpu->set_reg(isa::kR2, 4);
    sys.cpu->set_reg(isa::kLR, 0xDEAD0001);
  }
  sys.cpu->set_pc(libc_memcpy);
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kFault);
}

TEST_P(BootTest, ExeclpShRequiresNullTerminatedArgs) {
  auto boot = Boot(GetParam(), ProtectionConfig::None(), 24);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const mem::GuestAddr file = sys.layout.heap_base + 0x100;
  util::Bytes name = util::BytesOf("sh");
  name.push_back(0);
  ASSERT_TRUE(sys.space.WriteBytes(file, name).ok());
  const auto execlp = sys.Sym("libc.execlp").value();
  if (GetParam() == Arch::kVX86) {
    ASSERT_TRUE(sys.cpu->Push(0).ok());          // vararg NULL terminator
    ASSERT_TRUE(sys.cpu->Push(file).ok());       // file
    ASSERT_TRUE(sys.cpu->Push(0xBBBBBBBB).ok()); // return address (unused)
  } else {
    sys.cpu->set_reg(isa::kR0, file);
    sys.cpu->set_reg(isa::kR1, 0);  // NULL terminator, as in Listing 2
  }
  sys.cpu->set_pc(execlp);
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kShellSpawned) << stop.ToString();
}

TEST(BootArm, ExeclpWithoutNullTerminatorFaults) {
  auto boot = Boot(Arch::kVARM, ProtectionConfig::None(), 25);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const mem::GuestAddr file = sys.layout.heap_base;
  util::Bytes name = util::BytesOf("sh");
  name.push_back(0);
  ASSERT_TRUE(sys.space.WriteBytes(file, name).ok());
  sys.cpu->set_reg(isa::kR0, file);
  sys.cpu->set_reg(isa::kR1, 0x41414141);
  sys.cpu->set_reg(isa::kR2, 0x41414141);
  sys.cpu->set_reg(isa::kR3, 0x41414141);
  sys.cpu->set_pc(sys.Sym("libc.execlp").value());
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kFault);
}

TEST(BootX86, GadgetPpprPopsFourWordsAndRets) {
  auto boot = Boot(Arch::kVX86, ProtectionConfig::None(), 26);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const auto resume = sys.Sym("connman.resume_ok").value();
  ASSERT_TRUE(sys.cpu->Push(resume).ok());  // final ret target
  ASSERT_TRUE(sys.cpu->Push(4).ok());
  ASSERT_TRUE(sys.cpu->Push(3).ok());
  ASSERT_TRUE(sys.cpu->Push(2).ok());
  ASSERT_TRUE(sys.cpu->Push(1).ok());
  sys.cpu->set_pc(sys.Sym("gadget.pppr").value());
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kHalted);
  EXPECT_EQ(sys.cpu->reg(isa::kESI), 1u);
  EXPECT_EQ(sys.cpu->reg(isa::kEDI), 2u);
  EXPECT_EQ(sys.cpu->reg(isa::kEBX), 3u);
  EXPECT_EQ(sys.cpu->reg(isa::kEBP), 4u);
}

TEST(BootArm, PopRegsGadgetLoadsSevenRegistersAndPc) {
  auto boot = Boot(Arch::kVARM, ProtectionConfig::None(), 27);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const auto resume = sys.Sym("connman.resume_ok").value();
  // Frame per Listing 2: r0, r1, r2, r3, r5, r6, r7, pc.
  const std::uint32_t frame[] = {0xA0, 0xA1, 0xA2, 0xA3, 0xA5, 0xA6, 0xA7, resume};
  std::uint32_t sp = sys.layout.initial_sp() - sizeof(frame);
  sys.cpu->set_sp(sp);
  for (std::uint32_t w : frame) {
    ASSERT_TRUE(sys.space.WriteU32(sp, w).ok());
    sp += 4;
  }
  sys.cpu->set_pc(sys.Sym("gadget.pop_regs_pc").value());
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kHalted) << stop.ToString();
  EXPECT_EQ(sys.cpu->reg(isa::kR0), 0xA0u);
  EXPECT_EQ(sys.cpu->reg(isa::kR3), 0xA3u);
  EXPECT_EQ(sys.cpu->reg(isa::kR5), 0xA5u);
  EXPECT_EQ(sys.cpu->reg(isa::kR7), 0xA7u);
  // r4 is intentionally not part of the gadget.
  EXPECT_EQ(sys.cpu->reg(isa::kR4), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothArchs, BootTest,
                         ::testing::Values(Arch::kVX86, Arch::kVARM),
                         [](const auto& info) {
                           return info.param == Arch::kVX86 ? "vx86" : "varm";
                         });

// --- Snapshot / restore fast reboots ---------------------------------------

TEST(Snapshot, RoundTripRestoresMemoryAndCpu) {
  for (Arch arch : {Arch::kVX86, Arch::kVARM}) {
    auto sys = Boot(arch, ProtectionConfig::None(), 5).value();
    const Snapshot snap = TakeSnapshot(*sys);
    const std::uint32_t sp0 = sys->cpu->sp();
    const mem::GuestAddr stack_probe = sp0 - 64;
    const util::Bytes before =
        sys->space.DebugRead(stack_probe, 32).value();

    // Trash guest state the way a corrupted execution would: scribble on
    // the stack, move registers, change permissions, advance the RNG.
    ASSERT_TRUE(
        sys->space.DebugWrite(stack_probe, util::Bytes(32, 0xEE)).ok());
    sys->cpu->set_sp(sp0 - 256);
    sys->cpu->set_pc(0xDEAD);
    sys->cpu->PushEvent(vm::EventKind::kNote, "corruption");
    ASSERT_TRUE(sys->space.Protect("stack", mem::kPermRX).ok());
    (void)sys->rng.NextU64();

    ASSERT_TRUE(RestoreSnapshot(*sys, snap).ok());
    EXPECT_EQ(sys->space.DebugRead(stack_probe, 32).value(), before);
    EXPECT_EQ(sys->cpu->sp(), sp0);
    EXPECT_EQ(sys->cpu->pc(), snap.cpu.pc);
    EXPECT_TRUE(sys->cpu->events().empty());
    const mem::Segment* stack = sys->space.FindSegmentByName("stack");
    ASSERT_NE(stack, nullptr);
    EXPECT_TRUE(mem::Has(stack->perms(), mem::Perm::kWrite));
    // Restored RNG replays the same stream as a fresh boot would.
    auto fresh = Boot(arch, ProtectionConfig::None(), 5).value();
    EXPECT_EQ(sys->rng.NextU64(), fresh->rng.NextU64());
  }
}

TEST(Snapshot, RestoreAfterExecutionRewindsSteps) {
  auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  const Snapshot snap = TakeSnapshot(*sys);
  const std::uint64_t steps0 = sys->cpu->steps_executed();
  (void)sys->cpu->Run(50);  // wander from _start for a bit
  EXPECT_GT(sys->cpu->steps_executed(), steps0);
  ASSERT_TRUE(RestoreSnapshot(*sys, snap).ok());
  EXPECT_EQ(sys->cpu->steps_executed(), steps0);
  EXPECT_FALSE(sys->cpu->stopped());
}

TEST(Snapshot, RefusesForeignSystem) {
  auto a = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  auto b = Boot(Arch::kVX86, ProtectionConfig::WxAslr(), 977).value();
  const Snapshot snap = TakeSnapshot(*a);
  // Different ASLR slide => different segment bases; the restore must
  // refuse rather than scribble over the wrong layout.
  auto status = RestoreSnapshot(*b, snap);
  if (b->layout.libc_base != a->layout.libc_base) {
    EXPECT_FALSE(status.ok());
  }
}

// Trashes guest state the way a corrupted execution would: stack scribble,
// register churn, a W^X flip, RNG advance. Deterministic, so two
// identically-booted systems end up trashed identically.
void TrashSystem(System& sys) {
  const std::uint32_t sp0 = sys.cpu->sp();
  ASSERT_TRUE(sys.space.DebugWrite(sp0 - 64, util::Bytes(32, 0xEE)).ok());
  ASSERT_TRUE(sys.space.WriteU32(sys.layout.bss_base + 16, 0xFEEDu).ok());
  sys.cpu->set_sp(sp0 - 256);
  sys.cpu->set_pc(0xDEAD);
  ASSERT_TRUE(sys.space.Protect("stack", mem::kPermRX).ok());
  (void)sys.rng.NextU64();
}

std::vector<util::Bytes> AllSegmentBytes(const System& sys) {
  std::vector<util::Bytes> out;
  for (const auto& seg : sys.space.segments()) out.push_back(seg->data());
  return out;
}

TEST(Snapshot, DirtyOnlyRestoreIsObservablyIdenticalToFull) {
  auto full_sys = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  auto dirty_sys = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  const Snapshot full_snap = TakeSnapshot(*full_sys);
  const Snapshot dirty_snap = TakeSnapshot(*dirty_sys);

  TrashSystem(*full_sys);
  TrashSystem(*dirty_sys);
  ASSERT_TRUE(RestoreSnapshot(*full_sys, full_snap, RestoreMode::kFull).ok());
  ASSERT_TRUE(
      RestoreSnapshot(*dirty_sys, dirty_snap, RestoreMode::kDirtyOnly).ok());

  EXPECT_EQ(AllSegmentBytes(*full_sys), AllSegmentBytes(*dirty_sys));
  EXPECT_EQ(full_sys->cpu->sp(), dirty_sys->cpu->sp());
  EXPECT_EQ(full_sys->cpu->pc(), dirty_sys->cpu->pc());
  EXPECT_EQ(full_sys->rng.NextU64(), dirty_sys->rng.NextU64());

  // Round 2 on the dirty system: the first restore must leave the bitmap
  // re-armed so a second trash/rewind cycle is just as correct.
  TrashSystem(*dirty_sys);
  ASSERT_TRUE(
      RestoreSnapshot(*dirty_sys, dirty_snap, RestoreMode::kDirtyOnly).ok());
  EXPECT_EQ(AllSegmentBytes(*full_sys), AllSegmentBytes(*dirty_sys));
}

TEST(Snapshot, WxFlipRolledBackByRestoreInBothModes) {
  for (const RestoreMode mode : {RestoreMode::kFull, RestoreMode::kDirtyOnly}) {
    auto sys = Boot(Arch::kVX86, ProtectionConfig::WxAslr(), 5).value();
    const Snapshot snap = TakeSnapshot(*sys);

    // mprotect-style attack staging between snapshot and restore: make the
    // stack executable and the text image writable.
    ASSERT_TRUE(sys->space.Protect("stack", mem::kPermRWX).ok());
    ASSERT_TRUE(sys->space.Protect(".text", mem::kPermRWX).ok());

    ASSERT_TRUE(RestoreSnapshot(*sys, snap, mode).ok());
    const mem::Segment* stack = sys->space.FindSegmentByName("stack");
    const mem::Segment* text = sys->space.FindSegmentByName(".text");
    ASSERT_NE(stack, nullptr);
    ASSERT_NE(text, nullptr);
    // Permissions — not just bytes — are part of the snapshot contract.
    EXPECT_EQ(stack->perms(), mem::kPermRW)
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(text->perms(), mem::kPermRX) << "mode " << static_cast<int>(mode);
  }
}

/// Superblock tier across W^X flips and snapshot restores: a hot loop in
/// .scratch compiles into blocks, a Protect flip bumps the segment's write
/// generation (dropping them), and a RestoreSnapshot in either mode rewinds
/// bytes + permissions. Re-running and then rewriting the loop afterwards
/// must always execute the current bytes — never a stale compiled block.
TEST(Snapshot, SuperblockTierSurvivesWxFlipAndRestoreInBothModes) {
  for (const RestoreMode mode : {RestoreMode::kFull, RestoreMode::kDirtyOnly}) {
    auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 7).value();
    ASSERT_EQ(sys->cpu->exec_mode(), vm::ExecMode::kFast);
    const mem::GuestAddr scratch = sys->Sym("scratch.start").value();
    const Snapshot snap = TakeSnapshot(*sys);

    auto assemble_loop = [&](std::uint32_t iters) {
      isa::Assembler a(Arch::kVX86, scratch);
      isa::vx86::EncMovImm(a.w(), isa::kEAX, iters);
      a.Label("loop");
      isa::vx86::EncSubImm(a.w(), isa::kEAX, 1);
      isa::vx86::EncCmpImm(a.w(), isa::kEAX, 0);
      a.JnzLabel("loop");
      isa::vx86::EncHlt(a.w());
      return a.Finish().value();
    };

    // Round 1: compile + run the loop hot (blocks built and chained).
    ASSERT_TRUE(sys->space.DebugWrite(scratch, assemble_loop(500)).ok());
    ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRX).ok());
    sys->cpu->set_pc(scratch);
    auto first = sys->cpu->Run(100000);
    EXPECT_EQ(first.reason, vm::StopReason::kHalted);
    EXPECT_EQ(first.steps, 1502u) << "mode " << static_cast<int>(mode);

    // W^X flip mid-life bumps the generation, then restore rewinds all of
    // it (bytes AND permissions) to the snapshot image.
    ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRW).ok());
    ASSERT_TRUE(RestoreSnapshot(*sys, snap, mode).ok());

    // Round 2 on the restored image: a different loop at the same pc. A
    // stale block from round 1 would retire 1502 steps; the rewritten
    // 200-iteration loop retires 602.
    ASSERT_TRUE(sys->space.DebugWrite(scratch, assemble_loop(200)).ok());
    ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRX).ok());
    sys->cpu->set_pc(scratch);
    auto second = sys->cpu->Run(100000);
    EXPECT_EQ(second.reason, vm::StopReason::kHalted);
    EXPECT_EQ(second.steps, 602u) << "mode " << static_cast<int>(mode);
  }
}

/// Snapshot restore drops stale block links: a two-block chain compiles and
/// links in round 1, the restore rewinds .scratch, and round 2 rewrites
/// only the *successor* at the same addresses. The unchanged predecessor
/// must not ride its stale edge into the old successor.
TEST(Snapshot, RestoreDropsStaleBlockLinksInBothModes) {
  for (const RestoreMode mode : {RestoreMode::kFull, RestoreMode::kDirtyOnly}) {
    auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 7).value();
    ASSERT_EQ(sys->cpu->exec_mode(), vm::ExecMode::kFast);
    const mem::GuestAddr scratch = sys->Sym("scratch.start").value();
    const Snapshot snap = TakeSnapshot(*sys);

    // Predecessor bytes are identical in both rounds; only the successor's
    // immediate differs, so a surviving A→B link is exactly the hazard.
    util::ByteWriter probe;
    isa::vx86::EncMovImm(probe, isa::kECX, 5);
    isa::vx86::EncJmp(probe, 0);
    const std::uint32_t b_addr = static_cast<std::uint32_t>(
        scratch + probe.bytes().size());
    auto assemble_chain = [&](std::uint32_t esi_val) {
      util::ByteWriter w;
      isa::vx86::EncMovImm(w, isa::kECX, 5);  // A
      isa::vx86::EncJmp(w, b_addr);
      isa::vx86::EncMovImm(w, isa::kESI, esi_val);  // B
      isa::vx86::EncHlt(w);
      return w.bytes();
    };

    ASSERT_TRUE(sys->space.DebugWrite(scratch, assemble_chain(7)).ok());
    ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRX).ok());
    sys->cpu->set_pc(scratch);
    EXPECT_EQ(sys->cpu->Run(100).reason, vm::StopReason::kHalted);
    EXPECT_EQ(sys->cpu->reg(isa::kESI), 7u);

    ASSERT_TRUE(RestoreSnapshot(*sys, snap, mode).ok());
    ASSERT_TRUE(sys->space.DebugWrite(scratch, assemble_chain(9)).ok());
    ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRX).ok());
    sys->cpu->set_pc(scratch);
    EXPECT_EQ(sys->cpu->Run(100).reason, vm::StopReason::kHalted);
    EXPECT_EQ(sys->cpu->reg(isa::kESI), 9u)
        << "stale link survived restore, mode " << static_cast<int>(mode);
  }
}

// --- Shared decode plans at boot -------------------------------------------

TEST(Boot, BindsSharedPlansForImmutableTextOnly) {
  auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  const mem::Segment* text = sys->space.FindSegmentByName(".text");
  const mem::Segment* libc = sys->space.FindSegmentByName("libc");
  const mem::Segment* stack = sys->space.FindSegmentByName("stack");
  ASSERT_NE(text, nullptr);
  ASSERT_NE(libc, nullptr);
  ASSERT_NE(stack, nullptr);
  EXPECT_NE(sys->cpu->BoundPlan(text), nullptr);
  EXPECT_NE(sys->cpu->BoundPlan(libc), nullptr);
  // The non-W^X stack is RWX: the first shellcode byte would invalidate a
  // plan anyway, so Boot never binds one to writable memory.
  EXPECT_EQ(sys->cpu->BoundPlan(stack), nullptr);

  // An identically-seeded boot — campaign worker N — reuses worker 0's plan
  // object rather than re-decoding the image.
  auto sys2 = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  EXPECT_EQ(sys2->cpu->BoundPlan(sys2->space.FindSegmentByName(".text")),
            sys->cpu->BoundPlan(text));

  // The reference interpreter decodes every instruction itself: a
  // kReference boot binds nothing.
  auto ref = Boot(Arch::kVX86, ProtectionConfig::None(), 5,
                  vm::ExecMode::kReference)
                 .value();
  EXPECT_EQ(ref->cpu->exec_mode(), vm::ExecMode::kReference);
  EXPECT_EQ(ref->cpu->BoundPlan(ref->space.FindSegmentByName(".text")),
            nullptr);
}

/// Diversity-reshuffled boots (per-boot function shuffle) must never be
/// served a plan built from a differently-shuffled image: the registry keys
/// on content, so each layout gets a plan hashing exactly its own bytes.
TEST(Boot, DiversityReshuffledBootNeverSeesAForeignPlan) {
  ProtectionConfig prot = ProtectionConfig::WxAslr();
  prot.stochastic_diversity = true;
  auto a = Boot(Arch::kVX86, prot, 11).value();
  auto b = Boot(Arch::kVX86, prot, 12).value();
  const mem::Segment* text_a = a->space.FindSegmentByName(".text");
  const mem::Segment* text_b = b->space.FindSegmentByName(".text");
  ASSERT_NE(text_a, nullptr);
  ASSERT_NE(text_b, nullptr);
  ASSERT_NE(text_a->data(), text_b->data());  // the shuffle actually shuffled

  const vm::DecodePlan* plan_a = a->cpu->BoundPlan(text_a);
  const vm::DecodePlan* plan_b = b->cpu->BoundPlan(text_b);
  ASSERT_NE(plan_a, nullptr);
  ASSERT_NE(plan_b, nullptr);
  EXPECT_NE(plan_a, plan_b);
  // Each plan describes its own boot's bytes — a stale cross-boot decode is
  // structurally impossible.
  EXPECT_EQ(plan_a->content_hash(),
            vm::DecodePlan::HashContent(
                util::ByteSpan(text_a->data().data(), text_a->data().size())));
  EXPECT_EQ(plan_b->content_hash(),
            vm::DecodePlan::HashContent(
                util::ByteSpan(text_b->data().data(), text_b->data().size())));

  // And both images execute from their own plans without faulting.
  EXPECT_NE(a->cpu->Run(50).reason, vm::StopReason::kFault);
  EXPECT_NE(b->cpu->Run(50).reason, vm::StopReason::kFault);
}

/// TakeSnapshot hashes only the segments a plan is bound to. A plan bound
/// *after* the snapshot meets a "not hashed" image at restore time: the
/// restore hashes the image then, so a full copy of unchanged bytes re-arms
/// the binding and a restore of bytes the plan was not built from drops it,
/// exactly as for a plan bound at boot.
TEST(Snapshot, PlanBoundAfterSnapshotRearmsOrDrops) {
  auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 7).value();
  const mem::GuestAddr scratch = sys->Sym("scratch.start").value();
  const mem::Segment* seg = sys->space.FindSegmentByName(".scratch");
  ASSERT_NE(seg, nullptr);
  auto stub = [](std::uint32_t esi_val) {
    util::ByteWriter w;
    isa::vx86::EncMovImm(w, isa::kESI, esi_val);
    isa::vx86::EncHlt(w);
    return w.bytes();
  };
  ASSERT_TRUE(sys->space.DebugWrite(scratch, stub(7)).ok());
  ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRX).ok());

  const Snapshot snap = TakeSnapshot(*sys);
  for (const Snapshot::SegmentImage& img : snap.segments) {
    const bool bound = img.name == ".text" || img.name == "libc";
    EXPECT_EQ(img.content_hash.has_value(), bound) << img.name;
  }

  // Bound after the snapshot, from the very bytes the snapshot holds.
  auto& registry = vm::DecodePlanRegistry::Instance();
  const auto plan = registry.GetOrBuild(Arch::kVX86, *seg);
  sys->cpu->BindDecodePlan(seg, plan);
  ASSERT_TRUE(RestoreSnapshot(*sys, snap, RestoreMode::kFull).ok());
  EXPECT_EQ(sys->cpu->BoundPlan(seg), plan.get());
#ifndef CONNLAB_OBS_DISABLED
  // Re-armed, not merely kept: the next fetch is served from the plan.
  const obs::Counter& plan_hits =
      obs::Registry::Instance().GetCounter("vm.plan_hits");
  const std::uint64_t hits_before = plan_hits.Value();
  sys->cpu->set_pc(scratch);
  sys->cpu->Step();
  EXPECT_EQ(plan_hits.Value(), hits_before + 1);
#endif

  // Bound after the snapshot, from bytes the snapshot does not hold.
  ASSERT_TRUE(sys->space.DebugWrite(scratch, stub(9)).ok());
  const auto changed = registry.GetOrBuild(Arch::kVX86, *seg);
  ASSERT_NE(changed->content_hash(), plan->content_hash());
  sys->cpu->BindDecodePlan(seg, changed);
  ASSERT_TRUE(RestoreSnapshot(*sys, snap, RestoreMode::kFull).ok());
  EXPECT_EQ(sys->cpu->BoundPlan(seg), nullptr);
  sys->cpu->set_pc(scratch);
  EXPECT_EQ(sys->cpu->Run(100).reason, vm::StopReason::kHalted);
  EXPECT_EQ(sys->cpu->reg(isa::kESI), 7u);
}

TEST(Snapshot, DirtyOnlyFallsBackWhenBaselineBelongsToAnotherSnapshot) {
  auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  const mem::GuestAddr probe = sys->layout.bss_base + 8;
  const std::uint32_t probe_at_a = sys->space.ReadU32(probe).value();
  const Snapshot snap_a = TakeSnapshot(*sys);

  ASSERT_TRUE(sys->space.WriteU32(probe, 0xB000Bu).ok());
  const Snapshot snap_b = TakeSnapshot(*sys);  // baselines now point at B

  ASSERT_TRUE(sys->space.WriteU32(probe, 0xC000Cu).ok());

  // Restoring A with the bitmap armed for B must not trust the dirty bits:
  // every segment falls back to a full copy, and the probe returns to A's
  // value, not B's.
  ASSERT_TRUE(RestoreSnapshot(*sys, snap_a, RestoreMode::kDirtyOnly).ok());
  EXPECT_EQ(sys->space.ReadU32(probe).value(), probe_at_a);

  // And the fallback re-armed the baseline for A: flipping back to B now
  // takes the mismatch path again, still byte-correct.
  ASSERT_TRUE(RestoreSnapshot(*sys, snap_b, RestoreMode::kDirtyOnly).ok());
  EXPECT_EQ(sys->space.ReadU32(probe).value(), 0xB000Bu);
}

}  // namespace
}  // namespace connlab::loader
