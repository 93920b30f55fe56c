// CPU interpreter tests: arithmetic, control flow, stack ops, syscalls,
// W^X fetch enforcement, host functions, breakpoints, step limits.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/isa/assembler.hpp"
#include "src/isa/varm.hpp"
#include "src/isa/vx86.hpp"
#include "src/vm/cpu.hpp"
#include "src/vm/syscalls.hpp"

namespace connlab::vm {
namespace {

using isa::Arch;
namespace x = isa::vx86;
namespace v = isa::varm;

struct Machine {
  mem::AddressSpace space;
  std::unique_ptr<Cpu> cpu;
};

Machine MakeMachine(Arch arch, const util::Bytes& text,
                    mem::Perm stack_perm = mem::kPermRW,
                    ExecMode mode = ExecMode::kFast) {
  Machine m;
  EXPECT_TRUE(m.space.Map(".text", 0x1000, 0x1000, mem::kPermRX).ok());
  EXPECT_TRUE(m.space.Map(".data", 0x4000, 0x1000, mem::kPermRW).ok());
  EXPECT_TRUE(m.space.Map("stack", 0x8000, 0x1000, stack_perm).ok());
  EXPECT_TRUE(m.space.DebugWrite(0x1000, text).ok());
  m.cpu = std::make_unique<Cpu>(arch, m.space, mode);
  m.cpu->set_pc(0x1000);
  m.cpu->set_sp(0x9000);
  return m;
}

TEST(CpuVX86, ArithmeticAndFlags) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 40);
  x::EncAddImm(w, isa::kEAX, 2);
  x::EncCmpImm(w, isa::kEAX, 42);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 42u);
  EXPECT_TRUE(m.cpu->zf());
}

TEST(CpuVX86, SubXorMovReg) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 100);
  x::EncSubImm(w, isa::kEBX, 58);
  x::EncMovReg(w, isa::kECX, isa::kEBX);
  x::EncXorReg(w, isa::kEBX, isa::kEBX);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kECX), 42u);
  EXPECT_EQ(m.cpu->reg(isa::kEBX), 0u);
}

TEST(CpuVX86, PushPopAndMemory) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 0xABCD);
  x::EncPushReg(w, isa::kEAX);
  x::EncPopReg(w, isa::kEDX);
  x::EncMovImm(w, isa::kEDI, 0x4000);
  x::EncStore(w, isa::kEDX, isa::kEDI, 0x10);  // [edi+0x10] = edx
  x::EncLoad(w, isa::kESI, isa::kEDI, 0x10);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kEDX), 0xABCDu);
  EXPECT_EQ(m.cpu->reg(isa::kESI), 0xABCDu);
  EXPECT_EQ(m.cpu->sp(), 0x9000u);  // balanced
}

TEST(CpuVX86, CallRetRoundTrip) {
  isa::Assembler a(Arch::kVX86, 0x1000);
  a.CallLabel("fn");
  x::EncHlt(a.w());
  a.Label("fn");
  x::EncMovImm(a.w(), isa::kEAX, 7);
  x::EncRet(a.w());
  auto m = MakeMachine(Arch::kVX86, a.Finish().value());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 7u);
  EXPECT_EQ(m.cpu->sp(), 0x9000u);
}

TEST(CpuVX86, ConditionalJumps) {
  isa::Assembler a(Arch::kVX86, 0x1000);
  x::EncMovImm(a.w(), isa::kEAX, 5);
  x::EncCmpImm(a.w(), isa::kEAX, 5);
  a.JzLabel("taken");
  x::EncMovImm(a.w(), isa::kEBX, 1);  // skipped
  a.Label("taken");
  x::EncCmpImm(a.w(), isa::kEAX, 6);
  a.JnzLabel("also");
  x::EncMovImm(a.w(), isa::kECX, 1);  // skipped
  a.Label("also");
  x::EncHlt(a.w());
  auto m = MakeMachine(Arch::kVX86, a.Finish().value());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kEBX), 0u);
  EXPECT_EQ(m.cpu->reg(isa::kECX), 0u);
}

TEST(CpuVX86, JmpIndirectThroughMemory) {
  util::ByteWriter w;
  x::EncJmpInd(w, 0x4000);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  // Plant target pointing at an hlt we also plant.
  util::ByteWriter t;
  x::EncHlt(t);
  ASSERT_TRUE(m.space.DebugWrite(0x1800, t.bytes()).ok());
  ASSERT_TRUE(m.space.WriteU32(0x4000, 0x1800).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(stop.pc, 0x1800u);
}

TEST(CpuVX86, ExecSyscallSpawnsShell) {
  // Shellcode shape used by the code-injection exploit: point ebx at the
  // command string, eax = SYS_exec, syscall.
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 0x4000);
  x::EncMovImm(w, isa::kECX, 0);
  x::EncMovImm(w, isa::kEAX, static_cast<std::uint32_t>(Sys::kExec));
  x::EncSyscall(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  util::Bytes cmd = util::BytesOf("/bin/sh");
  cmd.push_back(0);
  ASSERT_TRUE(m.space.WriteBytes(0x4000, cmd).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kShellSpawned);
  ASSERT_EQ(m.cpu->events().size(), 1u);
  EXPECT_EQ(m.cpu->events()[0].kind, EventKind::kShellSpawned);
  EXPECT_NE(m.cpu->events()[0].text.find("root"), std::string::npos);
}

TEST(CpuVX86, ExitAndWriteSyscalls) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 1);       // fd
  x::EncMovImm(w, isa::kECX, 0x4000);  // buf
  x::EncMovImm(w, isa::kEDX, 2);       // len
  x::EncMovImm(w, isa::kEAX, static_cast<std::uint32_t>(Sys::kWrite));
  x::EncSyscall(w);
  x::EncMovImm(w, isa::kEBX, 3);
  x::EncMovImm(w, isa::kEAX, static_cast<std::uint32_t>(Sys::kExit));
  x::EncSyscall(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  ASSERT_TRUE(m.space.WriteBytes(0x4000, util::BytesOf("ok")).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kExited);
  EXPECT_EQ(stop.exit_code, 3u);
  ASSERT_EQ(m.cpu->events().size(), 2u);
  EXPECT_EQ(m.cpu->events()[0].kind, EventKind::kWrite);
}

TEST(CpuVX86, WxBlocksStackExecution) {
  util::ByteWriter w;
  x::EncJmp(w, 0x8100);  // jump into the stack
  // Stack contains valid code, but is rw- (W^X).
  auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRW);
  util::ByteWriter payload;
  x::EncHlt(payload);
  ASSERT_TRUE(m.space.DebugWrite(0x8100, payload.bytes()).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kFault);
  ASSERT_TRUE(stop.fault.has_value());
  EXPECT_EQ(stop.fault->kind, mem::AccessKind::kFetch);
}

TEST(CpuVX86, ExecutableStackRunsShellcode) {
  util::ByteWriter w;
  x::EncJmp(w, 0x8100);
  auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRWX);
  util::ByteWriter payload;
  for (int i = 0; i < 16; ++i) x::EncNop(payload);  // NOP sled
  x::EncHlt(payload);
  ASSERT_TRUE(m.space.DebugWrite(0x8100, payload.bytes()).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
}

TEST(CpuVX86, IllegalOpcodeFaults) {
  auto m = MakeMachine(Arch::kVX86, util::Bytes{0xFE});
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kFault);
}

TEST(CpuVX86, UnmappedFetchFaults) {
  auto m = MakeMachine(Arch::kVX86, util::Bytes{0x90});
  m.cpu->set_pc(0x7000);
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kFault);
}

TEST(CpuVX86, StepLimitStops) {
  isa::Assembler a(Arch::kVX86, 0x1000);
  a.Label("loop");
  a.JmpLabel("loop");
  auto m = MakeMachine(Arch::kVX86, a.Finish().value());
  auto stop = m.cpu->Run(50);
  EXPECT_EQ(stop.reason, StopReason::kStepLimit);
  EXPECT_EQ(stop.steps, 50u);
}

TEST(CpuVARM, MovwMovtBuilds32Bit) {
  util::ByteWriter w;
  v::EncMovImm32(w, isa::kR0, 0xDEADBEEF);
  v::EncHlt(w);
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kR0), 0xDEADBEEFu);
}

TEST(CpuVARM, PushPopDescendingOrder) {
  util::ByteWriter w;
  v::EncMovW(w, isa::kR0, 0x11);
  v::EncMovW(w, isa::kR1, 0x22);
  v::EncPush(w, v::Mask({isa::kR0, isa::kR1}));
  v::EncHlt(w);
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  m.cpu->Run(100);
  // Lowest register at lowest address.
  EXPECT_EQ(m.cpu->sp(), 0x9000u - 8);
  EXPECT_EQ(m.space.ReadU32(0x9000 - 8).value(), 0x11u);
  EXPECT_EQ(m.space.ReadU32(0x9000 - 4).value(), 0x22u);
}

TEST(CpuVARM, PopIntoPcTransfersControl) {
  util::ByteWriter w;
  v::EncPop(w, v::Mask({isa::kR4, isa::kPC}));
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  // Stack: r4 value then pc target (an hlt at 0x1800).
  util::ByteWriter t;
  v::EncHlt(t);
  ASSERT_TRUE(m.space.DebugWrite(0x1800, t.bytes()).ok());
  m.cpu->set_sp(0x8800);
  ASSERT_TRUE(m.space.WriteU32(0x8800, 0x99).ok());
  ASSERT_TRUE(m.space.WriteU32(0x8804, 0x1800).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(stop.pc, 0x1800u);
  EXPECT_EQ(m.cpu->reg(isa::kR4), 0x99u);
  EXPECT_EQ(m.cpu->sp(), 0x8808u);
}

TEST(CpuVARM, BlSetsLrAndBxReturns) {
  isa::Assembler a(Arch::kVARM, 0x1000);
  a.BlLabel("fn");
  v::EncHlt(a.w());
  a.Label("fn");
  v::EncMovW(a.w(), isa::kR0, 9);
  v::EncBx(a.w(), isa::kLR);
  auto m = MakeMachine(Arch::kVARM, a.Finish().value());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kR0), 9u);
}

TEST(CpuVARM, BlxBranchesThroughRegister) {
  util::ByteWriter w;
  v::EncMovImm32(w, isa::kR3, 0x1800);
  v::EncBlx(w, isa::kR3);
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  util::ByteWriter t;
  v::EncBx(t, isa::kLR);  // return to instruction after blx
  ASSERT_TRUE(m.space.DebugWrite(0x1800, t.bytes()).ok());
  util::ByteWriter after;
  v::EncHlt(after);
  ASSERT_TRUE(m.space.DebugWrite(0x100C, after.bytes()).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(stop.pc, 0x100Cu);
}

TEST(CpuVARM, LdrLitLoadsFromPool) {
  isa::Assembler a(Arch::kVARM, 0x1000);
  a.LdrLitLabel(isa::kR5, "pool");
  v::EncHlt(a.w());
  a.Label("pool");
  a.Word32(0xFEEDC0DE);
  auto m = MakeMachine(Arch::kVARM, a.Finish().value());
  m.cpu->Run(10);
  EXPECT_EQ(m.cpu->reg(isa::kR5), 0xFEEDC0DEu);
}

TEST(CpuVARM, MvnNegates) {
  util::ByteWriter w;
  v::EncMovW(w, isa::kR1, 0x00FF);
  v::EncMvn(w, isa::kR0, isa::kR1);
  v::EncHlt(w);
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  m.cpu->Run(10);
  EXPECT_EQ(m.cpu->reg(isa::kR0), 0xFFFFFF00u);
}

TEST(CpuVARM, SyscallConventionUsesR7) {
  util::ByteWriter w;
  v::EncMovW(w, isa::kR0, 5);
  v::EncMovW(w, isa::kR7, static_cast<std::uint16_t>(Sys::kExit));
  v::EncSyscall(w);
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kExited);
  EXPECT_EQ(stop.exit_code, 5u);
}

TEST(CpuVARM, ConditionalBranches) {
  isa::Assembler a(Arch::kVARM, 0x1000);
  v::EncMovW(a.w(), isa::kR0, 1);
  v::EncCmpImm(a.w(), isa::kR0, 1);
  a.BeqLabel("skip");
  v::EncMovW(a.w(), isa::kR4, 0xBAD);
  a.Label("skip");
  v::EncCmpImm(a.w(), isa::kR0, 2);
  a.BneLabel("end");
  v::EncMovW(a.w(), isa::kR5, 0xBAD);
  a.Label("end");
  v::EncHlt(a.w());
  auto m = MakeMachine(Arch::kVARM, a.Finish().value());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kR4), 0u);
  EXPECT_EQ(m.cpu->reg(isa::kR5), 0u);
}

TEST(Cpu, HostFnInterceptsExecution) {
  auto m = MakeMachine(Arch::kVX86, util::Bytes{0x90});
  bool called = false;
  ASSERT_TRUE(m.cpu
                  ->RegisterHostFn(0x1000, "probe",
                                   [&called](Cpu& cpu) {
                                     called = true;
                                     cpu.RequestStop(StopReason::kHalted, "probe");
                                     return util::OkStatus();
                                   })
                  .ok());
  EXPECT_TRUE(m.cpu->IsHostFn(0x1000));
  EXPECT_EQ(m.cpu->HostFnName(0x1000), "probe");
  auto stop = m.cpu->Run(10);
  EXPECT_TRUE(called);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
}

TEST(Cpu, HostFnErrorBecomesFault) {
  auto m = MakeMachine(Arch::kVX86, util::Bytes{0x90});
  ASSERT_TRUE(m.cpu
                  ->RegisterHostFn(0x1000, "bad",
                                   [](Cpu&) {
                                     return util::PermissionDenied("simulated");
                                   })
                  .ok());
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kFault);
}

TEST(Cpu, DuplicateHostFnRejected) {
  auto m = MakeMachine(Arch::kVX86, util::Bytes{0x90});
  auto ok = [](Cpu&) { return util::OkStatus(); };
  ASSERT_TRUE(m.cpu->RegisterHostFn(0x1000, "a", ok).ok());
  EXPECT_FALSE(m.cpu->RegisterHostFn(0x1000, "b", ok).ok());
}

TEST(Cpu, BreakpointStopsAndResumes) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 1);
  x::EncMovImm(w, isa::kEBX, 2);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  m.cpu->AddBreakpoint(0x1006);  // second instruction
  auto stop1 = m.cpu->Run(100);
  EXPECT_EQ(stop1.reason, StopReason::kBreakpoint);
  EXPECT_EQ(m.cpu->pc(), 0x1006u);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 1u);
  EXPECT_EQ(m.cpu->reg(isa::kEBX), 0u);
  m.cpu->ClearStop();
  auto stop2 = m.cpu->Run(100);
  EXPECT_EQ(stop2.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEBX), 2u);
}

TEST(Cpu, RegistersStringMentionsAllRegisters) {
  auto m = MakeMachine(Arch::kVARM, util::Bytes{});
  const std::string s = m.cpu->RegistersString();
  EXPECT_NE(s.find("r0="), std::string::npos);
  EXPECT_NE(s.find("lr="), std::string::npos);
  EXPECT_NE(s.find("pc="), std::string::npos);
}

TEST(Cpu, StackOverflowOffMappingFaults) {
  util::ByteWriter w;
  x::EncPushReg(w, isa::kEAX);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  m.cpu->set_sp(0x8000);  // at the bottom of the stack segment
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kFault);
}

}  // namespace
}  // namespace connlab::vm

namespace connlab::vm {
namespace {

TEST(CpuTrace, DisabledByDefault) {
  util::ByteWriter w;
  isa::vx86::EncNop(w);
  isa::vx86::EncHlt(w);
  auto m = MakeMachine(isa::Arch::kVX86, w.bytes());
  m.cpu->Run(10);
  EXPECT_TRUE(m.cpu->trace().empty());
}

TEST(CpuTrace, RecordsInstructionsAndHostFns) {
  util::ByteWriter w;
  isa::vx86::EncMovImm(w, isa::kEAX, 7);
  isa::vx86::EncJmp(w, 0x1800);
  auto m = MakeMachine(isa::Arch::kVX86, w.bytes());
  ASSERT_TRUE(m.cpu
                  ->RegisterHostFn(0x1800, "stopper",
                                   [](Cpu& cpu) {
                                     cpu.RequestStop(StopReason::kHalted, "x");
                                     return util::OkStatus();
                                   })
                  .ok());
  m.cpu->set_trace_limit(16);
  m.cpu->Run(10);
  ASSERT_EQ(m.cpu->trace().size(), 3u);
  EXPECT_EQ(m.cpu->trace()[0].text, "mov eax, #0x7");
  EXPECT_EQ(m.cpu->trace()[2].text, "<host: stopper>");
  const std::string rendered = m.cpu->TraceString();
  EXPECT_NE(rendered.find("0x00001000:  mov eax, #0x7"), std::string::npos);
}

TEST(CpuTrace, RingBufferKeepsOnlyLastN) {
  isa::Assembler a(isa::Arch::kVX86, 0x1000);
  for (int i = 0; i < 20; ++i) isa::vx86::EncNop(a.w());
  isa::vx86::EncHlt(a.w());
  auto m = MakeMachine(isa::Arch::kVX86, a.Finish().value());
  m.cpu->set_trace_limit(5);
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->trace().size(), 5u);
  EXPECT_EQ(m.cpu->trace().back().text, "hlt");
  // Disabling clears.
  m.cpu->set_trace_limit(0);
  EXPECT_TRUE(m.cpu->trace().empty());
}

}  // namespace
}  // namespace connlab::vm

namespace connlab::vm {
namespace {

TEST(CpuByteOps, LoadZeroExtendsStoreTruncates) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 0xFFFFFFFF);
  x::EncMovImm(w, isa::kEDI, 0x4000);
  x::EncStoreByte(w, isa::kEAX, isa::kEDI, 0);   // writes 0xFF only
  x::EncMovImm(w, isa::kEBX, 0);
  x::EncLoadByte(w, isa::kEBX, isa::kEDI, 0);    // reads back 0x000000FF
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  ASSERT_TRUE(m.space.WriteU32(0x4000, 0x11223344).ok());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kEBX), 0xFFu);
  // Only the low byte of the word changed.
  EXPECT_EQ(m.space.ReadU32(0x4000).value(), 0x112233FFu);
}

TEST(CpuByteOps, VarmByteCopyLoop) {
  // The copy_label shape: a byte-granular guest memcpy.
  isa::Assembler a(Arch::kVARM, 0x1000);
  a.Label("loop");
  v::EncCmpImm(a.w(), isa::kR2, 0);
  a.BeqLabel("done");
  v::EncLdrb(a.w(), isa::kR3, isa::kR1, 0);
  v::EncStrb(a.w(), isa::kR3, isa::kR0, 0);
  v::EncAddImm(a.w(), isa::kR0, isa::kR0, 1);
  v::EncAddImm(a.w(), isa::kR1, isa::kR1, 1);
  v::EncSubImm(a.w(), isa::kR2, isa::kR2, 1);
  a.BLabel("loop");
  a.Label("done");
  v::EncHlt(a.w());
  auto m = MakeMachine(Arch::kVARM, a.Finish().value());
  ASSERT_TRUE(m.space.WriteBytes(0x4000, util::BytesOf("HELLO")).ok());
  m.cpu->set_reg(isa::kR0, 0x4100);
  m.cpu->set_reg(isa::kR1, 0x4000);
  m.cpu->set_reg(isa::kR2, 5);
  auto stop = m.cpu->Run(1000);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.space.ReadBytes(0x4100, 5).value(), util::BytesOf("HELLO"));
}

TEST(CpuByteOps, ByteStoreToReadOnlyFaults) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEDI, 0x1000);  // .text
  x::EncStoreByte(w, isa::kEAX, isa::kEDI, 0);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kFault);
}

// --- Predecode cache: self-modifying code must never run stale decodes ----

/// Guest stores rewrite a stack stub between two executions of the same pc
/// (W^X off, stack RWX). The first run primes the predecode cache with the
/// old stub; the stores bump the stack segment's write generation, so the
/// second run must decode — and execute — the new bytes.
TEST(CpuPredecode, GuestStoresInvalidateStackDecodes) {
  util::ByteWriter stub1;
  x::EncMovImm(stub1, isa::kEAX, 1);
  x::EncHlt(stub1);
  util::ByteWriter stub2w;
  x::EncMovImm(stub2w, isa::kEAX, 2);
  x::EncHlt(stub2w);
  util::Bytes stub2 = stub2w.bytes();
  while (stub2.size() % 4 != 0) stub2.push_back(0);

  // .text program: store the new stub over 0x8000 word by word, then jump
  // into it.
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 0x8000);
  for (std::size_t i = 0; i < stub2.size(); i += 4) {
    const std::uint32_t word = static_cast<std::uint32_t>(stub2[i]) |
                               (static_cast<std::uint32_t>(stub2[i + 1]) << 8) |
                               (static_cast<std::uint32_t>(stub2[i + 2]) << 16) |
                               (static_cast<std::uint32_t>(stub2[i + 3]) << 24);
    x::EncMovImm(w, isa::kEAX, word);
    x::EncStore(w, isa::kEAX, isa::kEBX, static_cast<std::uint32_t>(i));
  }
  x::EncJmp(w, 0x8000);

  auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRWX);
  ASSERT_EQ(m.cpu->exec_mode(), ExecMode::kFast);
  ASSERT_TRUE(m.space.DebugWrite(0x8000, stub1.bytes()).ok());

  m.cpu->set_pc(0x8000);
  auto first = m.cpu->Run(100);
  EXPECT_EQ(first.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 1u);

  m.cpu->set_pc(0x1000);
  auto second = m.cpu->Run(100);
  EXPECT_EQ(second.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 2u);
}

/// Same shape on VARM (fixed 4-byte instructions): the heap-ish .data
/// segment is made executable, a stub runs, the guest overwrites it, and
/// the rewrite must be honoured on re-entry.
TEST(CpuPredecode, GuestStoresInvalidateVarmDecodes) {
  util::ByteWriter stub1;
  v::EncMovW(stub1, 0, 7);
  v::EncHlt(stub1);
  util::ByteWriter stub2w;
  v::EncMovW(stub2w, 0, 9);
  v::EncHlt(stub2w);
  const util::Bytes stub2 = stub2w.bytes();
  ASSERT_EQ(stub2.size() % 4, 0u);

  util::ByteWriter w;
  v::EncMovImm32(w, 1, 0x4000);
  for (std::size_t i = 0; i < stub2.size(); i += 4) {
    const std::uint32_t word = static_cast<std::uint32_t>(stub2[i]) |
                               (static_cast<std::uint32_t>(stub2[i + 1]) << 8) |
                               (static_cast<std::uint32_t>(stub2[i + 2]) << 16) |
                               (static_cast<std::uint32_t>(stub2[i + 3]) << 24);
    v::EncMovImm32(w, 0, word);
    v::EncStr(w, 0, 1, static_cast<std::uint8_t>(i));
  }
  v::EncHlt(w);

  auto m = MakeMachine(Arch::kVARM, w.bytes());
  ASSERT_TRUE(m.space.Protect(".data", mem::kPermRWX).ok());
  ASSERT_TRUE(m.space.DebugWrite(0x4000, stub1.bytes()).ok());

  m.cpu->set_pc(0x4000);
  auto first = m.cpu->Run(100);
  EXPECT_EQ(first.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(0), 7u);

  m.cpu->set_pc(0x1000);
  auto rewrite = m.cpu->Run(100);
  EXPECT_EQ(rewrite.reason, StopReason::kHalted);

  m.cpu->set_pc(0x4000);
  auto second = m.cpu->Run(100);
  EXPECT_EQ(second.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(0), 9u);
}

/// A debugger poke (DebugWrite bypasses permissions) must also invalidate
/// cached decodes of .text.
TEST(CpuPredecode, DebugPokeInvalidatesTextDecodes) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 1);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  auto first = m.cpu->Run(100);
  EXPECT_EQ(first.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 1u);

  util::ByteWriter patched;
  x::EncMovImm(patched, isa::kEAX, 42);
  x::EncHlt(patched);
  ASSERT_TRUE(m.space.DebugWrite(0x1000, patched.bytes()).ok());

  m.cpu->set_pc(0x1000);
  auto second = m.cpu->Run(100);
  EXPECT_EQ(second.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 42u);
}

/// An mprotect revoking X must take effect even for already-cached pcs.
TEST(CpuPredecode, ProtectRevokingExecInvalidatesDecodes) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 5);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  auto first = m.cpu->Run(100);
  EXPECT_EQ(first.reason, StopReason::kHalted);

  ASSERT_TRUE(m.space.Protect(".text", mem::kPermRW).ok());
  m.cpu->set_pc(0x1000);
  auto second = m.cpu->Run(100);
  EXPECT_EQ(second.reason, StopReason::kFault);
  EXPECT_EQ(second.detail, "instruction fetch failed");
}

/// The reference interpreter (no caches) executes the same program with
/// identical architectural results and step counts.
TEST(CpuPredecode, LegacyModeExecutesIdentically) {
  for (const ExecMode mode : {ExecMode::kFast, ExecMode::kReference}) {
    util::ByteWriter w;
    x::EncMovImm(w, isa::kEAX, 40);
    x::EncAddImm(w, isa::kEAX, 2);
    x::EncCmpImm(w, isa::kEAX, 42);
    x::EncHlt(w);
    auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRW, mode);
    EXPECT_EQ(m.cpu->exec_mode(), mode);
    auto stop = m.cpu->Run(100);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    EXPECT_EQ(stop.steps, 4u);
    EXPECT_EQ(m.cpu->reg(isa::kEAX), 42u);
    EXPECT_TRUE(m.cpu->zf());
  }
}

// --- Superblock tier: threaded-code blocks must mirror the interpreter ----

/// The tier is on by default, and a hot loop retires the same stop reason,
/// step count, and architectural state as the reference interpreter.
TEST(CpuSuperblock, TightLoopMatchesInterpreter) {
  auto run = [](ExecMode mode) {
    isa::Assembler a(Arch::kVX86, 0x1000);
    x::EncMovImm(a.w(), isa::kEAX, 1000);
    a.Label("loop");
    x::EncSubImm(a.w(), isa::kEAX, 1);
    x::EncCmpImm(a.w(), isa::kEAX, 0);
    a.JnzLabel("loop");
    x::EncHlt(a.w());
    auto m = MakeMachine(Arch::kVX86, a.Finish().value(), mem::kPermRW, mode);
    auto stop = m.cpu->Run(100000);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    return std::make_pair(stop.steps, m.cpu->reg(isa::kEAX));
  };
  const auto tier = run(ExecMode::kFast);
  EXPECT_EQ(tier, run(ExecMode::kReference));
  EXPECT_EQ(tier.first, 3002u);  // mov + 1000 * (sub, cmp, jnz) + hlt
}

/// Same identity on VARM: the byte-copy loop exercises ARM loads, stores,
/// flags, and backward branches through compiled blocks.
TEST(CpuSuperblock, VarmCopyLoopMatchesInterpreter) {
  auto run = [](ExecMode mode) {
    isa::Assembler a(Arch::kVARM, 0x1000);
    a.Label("loop");
    v::EncCmpImm(a.w(), isa::kR2, 0);
    a.BeqLabel("done");
    v::EncLdrb(a.w(), isa::kR3, isa::kR1, 0);
    v::EncStrb(a.w(), isa::kR3, isa::kR0, 0);
    v::EncAddImm(a.w(), isa::kR0, isa::kR0, 1);
    v::EncAddImm(a.w(), isa::kR1, isa::kR1, 1);
    v::EncSubImm(a.w(), isa::kR2, isa::kR2, 1);
    a.BLabel("loop");
    a.Label("done");
    v::EncHlt(a.w());
    auto m = MakeMachine(Arch::kVARM, a.Finish().value(), mem::kPermRW, mode);
    EXPECT_TRUE(m.space.WriteBytes(0x4000, util::BytesOf("HELLO")).ok());
    m.cpu->set_reg(isa::kR0, 0x4100);
    m.cpu->set_reg(isa::kR1, 0x4000);
    m.cpu->set_reg(isa::kR2, 5);
    auto stop = m.cpu->Run(1000);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    EXPECT_EQ(m.space.ReadBytes(0x4100, 5).value(), util::BytesOf("HELLO"));
    return std::make_tuple(stop.steps, m.cpu->reg(isa::kR0), m.cpu->pc());
  };
  EXPECT_EQ(run(ExecMode::kFast), run(ExecMode::kReference));
}

/// A step budget that lands mid-block must stop at exactly that step — the
/// tier falls back to an interpreter tail rather than overrunning.
TEST(CpuSuperblock, StepLimitExactMidLoop) {
  std::uint32_t pc[2], eax[2];
  int i = 0;
  for (const ExecMode mode : {ExecMode::kFast, ExecMode::kReference}) {
    isa::Assembler a(Arch::kVX86, 0x1000);
    x::EncMovImm(a.w(), isa::kEAX, 1000);
    a.Label("loop");
    x::EncSubImm(a.w(), isa::kEAX, 1);
    x::EncCmpImm(a.w(), isa::kEAX, 0);
    a.JnzLabel("loop");
    x::EncHlt(a.w());
    auto m = MakeMachine(Arch::kVX86, a.Finish().value(), mem::kPermRW, mode);
    auto stop = m.cpu->Run(500);  // not a multiple of the 3-op body
    EXPECT_EQ(stop.reason, StopReason::kStepLimit);
    EXPECT_EQ(stop.steps, 500u);
    pc[i] = m.cpu->pc();
    eax[i] = m.cpu->reg(isa::kEAX);
    ++i;
  }
  EXPECT_EQ(pc[0], pc[1]);
  EXPECT_EQ(eax[0], eax[1]);
}

/// Shellcode that patches an instruction LATER IN ITS OWN superblock: the
/// store bumps the code segment's write generation mid-block, so the
/// remaining compiled ops are stale and execution must fall back to the
/// interpreter, which decodes — and runs — the new bytes.
TEST(CpuSuperblock, MidBlockStoreFallsBackToFreshBytes) {
  // Replacement tail (mov ecx,2 ; hlt), padded to a word multiple so word
  // stores overwrite it exactly.
  util::ByteWriter nw;
  x::EncMovImm(nw, isa::kECX, 2);
  x::EncHlt(nw);
  util::Bytes new_tail = nw.bytes();
  while (new_tail.size() % 4 != 0) new_tail.push_back(0);

  // Measure encoding lengths so the tail offset is known up front.
  util::ByteWriter probe;
  x::EncMovImm(probe, isa::kEAX, 0);
  const std::size_t mov_len = probe.bytes().size();
  x::EncStore(probe, isa::kEAX, isa::kEBX, 0);
  const std::size_t store_len = probe.bytes().size() - mov_len;
  std::size_t tail_off = mov_len + (new_tail.size() / 4) * (mov_len + store_len);
  while (tail_off % 4 != 0) ++tail_off;  // nop padding below keeps this true

  // One straight-line region in RWX stack memory — a single superblock —
  // whose stores overwrite its own mov ecx,1 tail before reaching it.
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 0x8000);
  for (std::size_t i = 0; i < new_tail.size(); i += 4) {
    const std::uint32_t word =
        static_cast<std::uint32_t>(new_tail[i]) |
        (static_cast<std::uint32_t>(new_tail[i + 1]) << 8) |
        (static_cast<std::uint32_t>(new_tail[i + 2]) << 16) |
        (static_cast<std::uint32_t>(new_tail[i + 3]) << 24);
    x::EncMovImm(w, isa::kEAX, word);
    x::EncStore(w, isa::kEAX, isa::kEBX,
                static_cast<std::uint32_t>(tail_off + i));
  }
  while (w.bytes().size() < tail_off) x::EncNop(w);
  ASSERT_EQ(w.bytes().size(), tail_off);
  x::EncMovImm(w, isa::kECX, 1);
  x::EncHlt(w);

  auto m = MakeMachine(Arch::kVX86, util::Bytes{}, mem::kPermRWX);
  ASSERT_EQ(m.cpu->exec_mode(), ExecMode::kFast);
  ASSERT_TRUE(m.space.DebugWrite(0x8000, w.bytes()).ok());
  m.cpu->set_pc(0x8000);
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kECX), 2u);  // a stale block would leave 1

  // Re-entry after the rewrite recompiles from the patched bytes.
  m.cpu->set_pc(0x8000);
  EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kECX), 2u);
}

/// An mprotect revoking X drops compiled blocks; granting it back after a
/// patch recompiles from the new bytes (the full W^X flip round trip).
TEST(CpuSuperblock, WxFlipInvalidatesCompiledBlocks) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 5);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);  // block compiled

  ASSERT_TRUE(m.space.Protect(".text", mem::kPermRW).ok());
  m.cpu->set_pc(0x1000);
  auto fault = m.cpu->Run(100);
  EXPECT_EQ(fault.reason, StopReason::kFault);
  EXPECT_EQ(fault.detail, "instruction fetch failed");

  util::ByteWriter patched;
  x::EncMovImm(patched, isa::kEAX, 77);
  x::EncHlt(patched);
  ASSERT_TRUE(m.space.DebugWrite(0x1000, patched.bytes()).ok());
  ASSERT_TRUE(m.space.Protect(".text", mem::kPermRX).ok());
  m.cpu->set_pc(0x1000);
  EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 77u);
}

/// Breakpoints flush compiled blocks and are honoured exactly: the stop
/// lands on the breakpoint pc after the same number of retired steps on the
/// fast path as on the reference, and resuming skips it once, as the
/// debugger expects.
TEST(CpuSuperblock, BreakpointInsideHotLoopStillHit) {
  std::vector<std::uint64_t> steps_seen;
  for (const ExecMode mode : {ExecMode::kFast, ExecMode::kReference}) {
    isa::Assembler a(Arch::kVX86, 0x1000);
    x::EncMovImm(a.w(), isa::kEAX, 100);
    a.Label("loop");
    x::EncSubImm(a.w(), isa::kEAX, 1);
    x::EncCmpImm(a.w(), isa::kEAX, 0);
    a.JnzLabel("loop");
    x::EncHlt(a.w());
    auto m = MakeMachine(Arch::kVX86, a.Finish().value(), mem::kPermRW, mode);

    // Warm the block cache, then set a breakpoint on the cmp inside the
    // loop body and re-run from scratch.
    EXPECT_EQ(m.cpu->Run(1000).reason, StopReason::kHalted);
    util::ByteWriter probe;
    x::EncMovImm(probe, isa::kEAX, 0);
    x::EncSubImm(probe, isa::kEAX, 0);
    const std::uint32_t cmp_pc = static_cast<std::uint32_t>(
        0x1000 + probe.bytes().size());  // mov, sub, then cmp
    m.cpu->AddBreakpoint(cmp_pc);
    m.cpu->set_reg(isa::kEAX, 0);
    m.cpu->set_pc(0x1000);
    auto stop = m.cpu->Run(1000);
    EXPECT_EQ(stop.reason, StopReason::kBreakpoint);
    EXPECT_EQ(m.cpu->pc(), cmp_pc);
    steps_seen.push_back(stop.steps);

    // Resume: the skip-once contract steps over the breakpoint and comes
    // back around the loop to it.
    auto again = m.cpu->Run(1000);
    EXPECT_EQ(again.reason, StopReason::kBreakpoint);
    EXPECT_EQ(m.cpu->pc(), cmp_pc);
    steps_seen.push_back(again.steps);

    m.cpu->RemoveBreakpoint(cmp_pc);
    EXPECT_EQ(m.cpu->Run(1000).reason, StopReason::kHalted);
  }
  ASSERT_EQ(steps_seen.size(), 4u);
  EXPECT_EQ(steps_seen[0], steps_seen[2]);  // fast == reference
  EXPECT_EQ(steps_seen[1], steps_seen[3]);
}

// --- Block links: chained blocks must invalidate exactly like lone ones ---

/// A loop whose body and header are separate blocks (a conditional exit at
/// the top, a backward jmp at the bottom) stays linked block-to-block and
/// retires identically to the reference interpreter.
TEST(CpuBlockLink, TwoBlockLoopMatchesInterpreter) {
  auto run = [](ExecMode mode) {
    isa::Assembler a(Arch::kVX86, 0x1000);
    x::EncMovImm(a.w(), isa::kEAX, 300);
    a.Label("loop");
    x::EncCmpImm(a.w(), isa::kEAX, 0);
    a.JzLabel("done");
    x::EncSubImm(a.w(), isa::kEAX, 1);
    x::EncAddImm(a.w(), isa::kEBX, 1);
    a.JmpLabel("loop");
    a.Label("done");
    x::EncHlt(a.w());
    auto m = MakeMachine(Arch::kVX86, a.Finish().value(), mem::kPermRW, mode);
    auto stop = m.cpu->Run(100000);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    return std::make_tuple(stop.steps, m.cpu->reg(isa::kEBX), m.cpu->pc());
  };
  const auto linked = run(ExecMode::kFast);
  EXPECT_EQ(linked, run(ExecMode::kReference));
  EXPECT_EQ(std::get<0>(linked), 1504u);  // mov + 300*5 + cmp,jz + hlt
  EXPECT_EQ(std::get<1>(linked), 300u);
}

/// SMC in a *successor* block while its linked predecessor chain is
/// mid-execution: a patcher block (reached through a fresh link) overwrites
/// the final block the chain was about to enter. The store bumps the
/// generation mid-block, so every link into the stale successor is dead and
/// the patched bytes — not the compiled ones — must run.
TEST(CpuBlockLink, SuccessorSmcMidChainRunsPatchedBytes) {
  // Replacement for block B (`mov esi,9 ; hlt`), padded to two words.
  util::ByteWriter nb;
  x::EncMovImm(nb, isa::kESI, 9);
  x::EncHlt(nb);
  util::Bytes new_b = nb.bytes();
  while (new_b.size() % 4 != 0) new_b.push_back(0);
  ASSERT_LE(new_b.size(), 8u);
  while (new_b.size() < 8) new_b.push_back(0);
  auto word_at = [&](std::size_t i) {
    return static_cast<std::uint32_t>(new_b[i]) |
           (static_cast<std::uint32_t>(new_b[i + 1]) << 8) |
           (static_cast<std::uint32_t>(new_b[i + 2]) << 16) |
           (static_cast<std::uint32_t>(new_b[i + 3]) << 24);
  };

  // Two-pass emission: targets are absolute, encodings fixed-length, so the
  // dummy pass measures the label offsets the real pass encodes.
  auto emit = [&](std::uint32_t base, std::uint32_t patcher, std::uint32_t b,
                  std::uint32_t* patcher_off, std::uint32_t* b_off) {
    util::ByteWriter w;
    x::EncCmpImm(w, isa::kEAX, 1);  // A: eax==1 selects the patch pass
    x::EncJz(w, patcher);
    x::EncMovImm(w, isa::kECX, 1);  // F: benign fall-through, links to B
    x::EncJmp(w, b);
    *patcher_off = static_cast<std::uint32_t>(w.bytes().size());
    x::EncMovImm(w, isa::kEBX, b);  // patcher: rewrite B, then enter it
    x::EncMovImm(w, isa::kEDX, word_at(0));
    x::EncStore(w, isa::kEDX, isa::kEBX, 0);
    x::EncMovImm(w, isa::kEDX, word_at(4));
    x::EncStore(w, isa::kEDX, isa::kEBX, 4);
    x::EncJmp(w, b);
    *b_off = static_cast<std::uint32_t>(w.bytes().size());
    x::EncMovImm(w, isa::kESI, 7);  // B: the block the patcher rewrites
    x::EncHlt(w);
    while (w.bytes().size() < *b_off + 8) x::EncNop(w);
    (void)base;
    return w.bytes();
  };

  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> seen;
  for (const ExecMode mode : {ExecMode::kFast, ExecMode::kReference}) {
    std::uint32_t patcher_off = 0, b_off = 0;
    (void)emit(0x8000, 0, 0, &patcher_off, &b_off);
    std::uint32_t po2 = 0, bo2 = 0;
    const util::Bytes code =
        emit(0x8000, 0x8000 + patcher_off, 0x8000 + b_off, &po2, &bo2);
    ASSERT_EQ(po2, patcher_off);
    ASSERT_EQ(bo2, b_off);

    auto m = MakeMachine(Arch::kVX86, util::Bytes{}, mem::kPermRWX, mode);
    ASSERT_TRUE(m.space.DebugWrite(0x8000, code).ok());

    // Pass 1 (eax=0): benign path compiles A, F and B and links A→F→B.
    m.cpu->set_pc(0x8000);
    EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(isa::kESI), 7u);

    // Pass 2 (eax=1): the chain links into the patcher, whose stores gut B
    // while A's links still point at the round-1 compile.
    m.cpu->set_reg(isa::kEAX, 1);
    m.cpu->set_reg(isa::kESI, 0);
    m.cpu->set_pc(0x8000);
    auto stop = m.cpu->Run(100);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(isa::kESI), 9u);  // a stale linked B would leave 7
    seen.emplace_back(stop.steps, m.cpu->reg(isa::kESI), m.cpu->pc());
  }
  EXPECT_EQ(seen[0], seen[1]);  // fast == reference, step for step
}

/// A W^X flip unlinks a chained edge: revoking X, patching the successor
/// and re-granting X must land execution in the rewritten successor even
/// though the predecessor's bytes never changed.
TEST(CpuBlockLink, WxFlipUnlinksChainedEdge) {
  util::ByteWriter probe;
  x::EncMovImm(probe, isa::kECX, 5);
  x::EncJmp(probe, 0);
  const std::uint32_t b_addr =
      0x1000 + static_cast<std::uint32_t>(probe.bytes().size());

  util::ByteWriter w;
  x::EncMovImm(w, isa::kECX, 5);  // A
  x::EncJmp(w, b_addr);
  x::EncMovImm(w, isa::kESI, 7);  // B
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());

  EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);  // A→B link formed
  EXPECT_EQ(m.cpu->reg(isa::kESI), 7u);

  ASSERT_TRUE(m.space.Protect(".text", mem::kPermRW).ok());
  util::ByteWriter nb;
  x::EncMovImm(nb, isa::kESI, 9);
  x::EncHlt(nb);
  ASSERT_TRUE(m.space.DebugWrite(b_addr, nb.bytes()).ok());
  ASSERT_TRUE(m.space.Protect(".text", mem::kPermRX).ok());

  m.cpu->set_reg(isa::kESI, 0);
  m.cpu->set_pc(0x1000);
  EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kESI), 9u);  // the stale edge would deliver 7
}

/// A breakpoint set on a linked successor's entry pc after the link formed:
/// the flush drops the edge, the stop lands exactly on the successor's
/// first instruction, and the retired step count matches the interpreter.
TEST(CpuBlockLink, BreakpointOnLinkedSuccessorEntryHonoured) {
  util::ByteWriter probe;
  x::EncMovImm(probe, isa::kECX, 5);
  x::EncJmp(probe, 0);
  const std::uint32_t b_addr =
      0x1000 + static_cast<std::uint32_t>(probe.bytes().size());

  std::vector<std::uint64_t> steps_seen;
  for (const ExecMode mode : {ExecMode::kFast, ExecMode::kReference}) {
    util::ByteWriter w;
    x::EncMovImm(w, isa::kECX, 5);  // A
    x::EncJmp(w, b_addr);
    x::EncMovImm(w, isa::kESI, 7);  // B
    x::EncHlt(w);
    auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRW, mode);

    EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);  // warm the link
    m.cpu->AddBreakpoint(b_addr);
    m.cpu->set_reg(isa::kESI, 0);
    m.cpu->set_pc(0x1000);
    auto stop = m.cpu->Run(100);
    EXPECT_EQ(stop.reason, StopReason::kBreakpoint);
    EXPECT_EQ(m.cpu->pc(), b_addr);
    EXPECT_EQ(m.cpu->reg(isa::kESI), 0u);  // stopped before B executed
    steps_seen.push_back(stop.steps);

    EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);  // skip-once
    EXPECT_EQ(m.cpu->reg(isa::kESI), 7u);
  }
  EXPECT_EQ(steps_seen[0], steps_seen[1]);
}

/// Host functions registered after code has run. RegisterHostFn skips the
/// predecode flush only while no slot has been filled, so a pc the
/// interpreter already predecoded (one Step()) and a pc compiled as a linked
/// superblock successor (Run()) must both dispatch the new trampoline — with
/// or without a shared plan bound, which fills the slot from the plan
/// instead of a decode. Steps, stop, registers and events match the
/// reference interpreter.
TEST(CpuPredecode, HostFnRegisteredAfterRunShadowsCachedCode) {
  util::ByteWriter probe;
  x::EncMovImm(probe, isa::kEAX, 1);
  const std::uint32_t p1_next =
      0x1000 + static_cast<std::uint32_t>(probe.bytes().size());
  x::EncAddImm(probe, isa::kEAX, 2);
  x::EncJmp(probe, 0);
  const std::uint32_t p2 =
      0x1000 + static_cast<std::uint32_t>(probe.bytes().size());
  x::EncMovImm(probe, isa::kEBX, 5);
  const std::uint32_t p2_next =
      0x1000 + static_cast<std::uint32_t>(probe.bytes().size());

  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 1);  // p1: predecoded by a single Step()
  x::EncAddImm(w, isa::kEAX, 2);
  x::EncJmp(w, p2);
  x::EncMovImm(w, isa::kEBX, 5);  // p2: the linked successor block's entry
  x::EncAddImm(w, isa::kEBX, 1);
  x::EncHlt(w);

  const Cpu::HostFn hook_p1 = [p1_next](Cpu& cpu) {
    cpu.PushEvent(EventKind::kNote, "hook_p1");
    cpu.set_reg(isa::kEAX, 100);
    cpu.set_pc(p1_next);
    return util::OkStatus();
  };
  const Cpu::HostFn hook_p2 = [p2_next](Cpu& cpu) {
    cpu.PushEvent(EventKind::kNote, "hook_p2");
    cpu.set_reg(isa::kEBX, 50);
    cpu.set_pc(p2_next);
    return util::OkStatus();
  };
  auto run = [&](ExecMode mode, bool bind_plan) {
    auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRW, mode);
    const mem::Segment* text = m.space.FindSegmentByName(".text");
    if (bind_plan) {
      m.cpu->BindDecodePlan(
          text, DecodePlanRegistry::Instance().GetOrBuild(Arch::kVX86, *text));
    }
    // One Step() fills p1's predecode slot; the Run() compiles the block
    // after p1 and links it to p2's block.
    m.cpu->Step();
    EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);

    EXPECT_TRUE(m.cpu->RegisterHostFn(0x1000, "hook_p1", hook_p1).ok());
    EXPECT_TRUE(m.cpu->RegisterHostFn(p2, "hook_p2", hook_p2).ok());
    m.cpu->ClearStop();
    m.cpu->set_pc(0x1000);
    m.cpu->Step();  // a surviving slot would run `mov eax, 1` here
    const StopInfo stop = m.cpu->Run(100);
    std::vector<std::string> events;
    for (const Event& e : m.cpu->events()) events.push_back(e.ToString());
    return std::make_tuple(stop.reason, m.cpu->steps_executed(),
                           m.cpu->reg(isa::kEAX), m.cpu->reg(isa::kEBX),
                           m.cpu->pc(), events);
  };
  for (const bool bind_plan : {false, true}) {
    SCOPED_TRACE(bind_plan ? "plan bound" : "no plan");
    const auto fast = run(ExecMode::kFast, bind_plan);
    EXPECT_EQ(fast, run(ExecMode::kReference, bind_plan));
    EXPECT_EQ(std::get<0>(fast), StopReason::kHalted);
    EXPECT_EQ(std::get<2>(fast), 102u);  // hook_p1's 100, then add eax, 2
    EXPECT_EQ(std::get<3>(fast), 51u);   // hook_p2's 50, then add ebx, 1
    ASSERT_EQ(std::get<5>(fast).size(), 2u);
    EXPECT_NE(std::get<5>(fast)[0].find("hook_p1"), std::string::npos);
    EXPECT_NE(std::get<5>(fast)[1].find("hook_p2"), std::string::npos);
  }
}

// --- Shared decode plans: one predecoded table per image content ----------

/// A CPU with a plan bound executes byte-identically to one without:
/// same stop, same step count, same registers.
TEST(CpuSharedPlan, PlanHitsExecuteIdentically) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 40);
  x::EncAddImm(w, isa::kEAX, 2);
  x::EncCmpImm(w, isa::kEAX, 42);
  x::EncHlt(w);
  const util::Bytes text = w.bytes();

  auto planned = MakeMachine(Arch::kVX86, text);
  const mem::Segment* seg = planned.space.FindSegmentByName(".text");
  ASSERT_NE(seg, nullptr);
  planned.cpu->BindDecodePlan(
      seg, DecodePlanRegistry::Instance().GetOrBuild(Arch::kVX86, *seg));
  ASSERT_NE(planned.cpu->BoundPlan(seg), nullptr);
  EXPECT_GT(planned.cpu->BoundPlan(seg)->valid_entries(), 0u);

  auto unplanned = MakeMachine(Arch::kVX86, text);

  auto a = planned.cpu->Run(100);
  auto b = unplanned.cpu->Run(100);
  EXPECT_EQ(a.reason, StopReason::kHalted);
  EXPECT_EQ(b.reason, a.reason);
  EXPECT_EQ(b.steps, a.steps);
  EXPECT_EQ(planned.cpu->reg(isa::kEAX), 42u);
  EXPECT_EQ(unplanned.cpu->reg(isa::kEAX), 42u);
}

/// Identical segment content yields the very same shared plan object;
/// different content (a diversity-reshuffled image) yields a distinct one.
TEST(CpuSharedPlan, RegistryKeysOnContent) {
  util::ByteWriter w1;
  x::EncMovImm(w1, isa::kEAX, 1);
  x::EncHlt(w1);
  util::ByteWriter w2;
  x::EncMovImm(w2, isa::kEAX, 2);
  x::EncHlt(w2);

  auto a = MakeMachine(Arch::kVX86, w1.bytes());
  auto b = MakeMachine(Arch::kVX86, w1.bytes());
  auto c = MakeMachine(Arch::kVX86, w2.bytes());
  auto& registry = DecodePlanRegistry::Instance();
  const auto stats0 = registry.GetStats();
  const auto plan_a = registry.GetOrBuild(
      Arch::kVX86, *a.space.FindSegmentByName(".text"));
  const auto plan_b = registry.GetOrBuild(
      Arch::kVX86, *b.space.FindSegmentByName(".text"));
  const auto plan_c = registry.GetOrBuild(
      Arch::kVX86, *c.space.FindSegmentByName(".text"));
  const auto stats1 = registry.GetStats();

  EXPECT_EQ(plan_a.get(), plan_b.get());
  EXPECT_NE(plan_a.get(), plan_c.get());
  EXPECT_NE(plan_a->content_hash(), plan_c->content_hash());
  EXPECT_GE(stats1.shares, stats0.shares + 1);  // b's request was served warm
}

/// SMC through a shared plan: once the guest rewrites a planned segment the
/// generation moves, the stale plan is refused, and execution decodes the
/// new bytes — same contract as the per-CPU predecode cache.
TEST(CpuSharedPlan, StalePlanNeverExecutesAfterRewrite) {
  util::ByteWriter stub1;
  x::EncMovImm(stub1, isa::kEAX, 1);
  x::EncHlt(stub1);
  util::ByteWriter stub2w;
  x::EncMovImm(stub2w, isa::kEAX, 2);
  x::EncHlt(stub2w);
  util::Bytes stub2 = stub2w.bytes();
  while (stub2.size() % 4 != 0) stub2.push_back(0);

  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 0x8000);
  for (std::size_t i = 0; i < stub2.size(); i += 4) {
    const std::uint32_t word = static_cast<std::uint32_t>(stub2[i]) |
                               (static_cast<std::uint32_t>(stub2[i + 1]) << 8) |
                               (static_cast<std::uint32_t>(stub2[i + 2]) << 16) |
                               (static_cast<std::uint32_t>(stub2[i + 3]) << 24);
    x::EncMovImm(w, isa::kEAX, word);
    x::EncStore(w, isa::kEAX, isa::kEBX, static_cast<std::uint32_t>(i));
  }
  x::EncJmp(w, 0x8000);

  auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRWX);
  ASSERT_TRUE(m.space.DebugWrite(0x8000, stub1.bytes()).ok());
  const mem::Segment* stack = m.space.FindSegmentByName("stack");
  ASSERT_NE(stack, nullptr);
  // Deliberately bind a plan for writable memory (Boot never would) to
  // prove the generation check stands even if someone does.
  m.cpu->BindDecodePlan(
      stack, DecodePlanRegistry::Instance().GetOrBuild(Arch::kVX86, *stack));

  m.cpu->set_pc(0x8000);
  auto first = m.cpu->Run(100);
  EXPECT_EQ(first.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 1u);

  m.cpu->set_pc(0x1000);
  auto second = m.cpu->Run(100);
  EXPECT_EQ(second.reason, StopReason::kHalted);
  // The bound plan still describes the old bytes…
  const DecodePlan* plan = m.cpu->BoundPlan(stack);
  ASSERT_NE(plan, nullptr);
  EXPECT_NE(plan->content_hash(),
            DecodePlan::HashContent(util::ByteSpan(stack->data().data(),
                                                   stack->data().size())));
  // …but the CPU executed the rewritten stub, not the stale decode.
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 2u);
}

/// Rearm semantics: a matching content hash revalidates the binding after a
/// generation-only move (snapshot restore); a mismatch drops it.
TEST(CpuSharedPlan, RearmRevalidatesOrDrops) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 7);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  const mem::Segment* text = m.space.FindSegmentByName(".text");
  ASSERT_NE(text, nullptr);
  const auto plan =
      DecodePlanRegistry::Instance().GetOrBuild(Arch::kVX86, *text);
  m.cpu->BindDecodePlan(text, plan);

  // Content-preserving generation move, as a full snapshot restore causes
  // (a same-perms Protect still bumps the generation).
  ASSERT_TRUE(m.space.Protect(".text", mem::kPermRX).ok());
  m.cpu->RearmDecodePlan(text, plan->content_hash());
  EXPECT_EQ(m.cpu->BoundPlan(text), plan.get());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 7u);

  // A restore that changed the bytes re-arms with a different hash: the
  // binding must go away entirely.
  m.cpu->RearmDecodePlan(text, plan->content_hash() ^ 1u);
  EXPECT_EQ(m.cpu->BoundPlan(text), nullptr);
}

/// HashContent keys plans by content: equal bytes hash equally, and a flip
/// of any single byte at any offset — the sub-word tail included — changes
/// the hash, at every length up to five words and at a full 16 KiB image.
/// Zero-filled buffers of different lengths differ too (the length seed).
TEST(DecodePlanHash, EveryByteFlipChangesTheHash) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(16 * 1024);
  const auto hash = [](const util::Bytes& b) {
    return DecodePlan::HashContent(util::ByteSpan(b.data(), b.size()));
  };
  std::set<std::uint64_t> zero_hashes;
  for (const std::size_t n : lengths) {
    util::Bytes bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    const util::Bytes copy = bytes;
    const std::uint64_t base = hash(bytes);
    EXPECT_EQ(base, hash(copy)) << "length " << n;
    for (std::size_t off = 0; off < n; ++off) {
      // Short buffers get three flips per byte; the 16 KiB image one, at a
      // bit position that walks through all eight.
      const auto walk = static_cast<std::uint8_t>(1u << (off % 8));
      std::vector<std::uint8_t> flips{walk};
      if (n <= 40) flips = {0x01, 0x80, walk};
      for (const std::uint8_t flip : flips) {
        bytes[off] ^= flip;
        EXPECT_NE(hash(bytes), base) << "length " << n << " offset " << off;
        bytes[off] ^= flip;
      }
    }
    if (n <= 40) zero_hashes.insert(hash(util::Bytes(n)));
  }
  EXPECT_EQ(zero_hashes.size(), 41u);
}

/// Snapshot state round-trip at the CPU level: registers, flags, steps,
/// events and the shadow stack all restore; the stop record clears.
TEST(CpuState, SaveRestoreRoundTrip) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 11);
  x::EncCmpImm(w, isa::kEAX, 11);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  m.cpu->PushEvent(EventKind::kNote, "pre-save");
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  const Cpu::State state = m.cpu->SaveState();

  m.cpu->set_reg(isa::kEAX, 999);
  m.cpu->set_zf(false);
  m.cpu->set_pc(0xDEAD);
  m.cpu->PushEvent(EventKind::kNote, "post-save");

  m.cpu->RestoreState(state);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 11u);
  EXPECT_TRUE(m.cpu->zf());
  EXPECT_EQ(m.cpu->pc(), state.pc);
  EXPECT_EQ(m.cpu->steps_executed(), state.steps);
  ASSERT_EQ(m.cpu->events().size(), 1u);
  EXPECT_EQ(m.cpu->events()[0].text, "pre-save");
  EXPECT_FALSE(m.cpu->stopped());
}

}  // namespace
}  // namespace connlab::vm
