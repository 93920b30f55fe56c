#include "src/vm/cpu.hpp"

#include <cstdio>

#include "src/isa/disasm.hpp"
#include "src/isa/varm.hpp"
#include "src/isa/vx86.hpp"
#include "src/obs/obs.hpp"
#include "src/util/log.hpp"
#include "src/vm/superblock.hpp"
#include "src/vm/syscalls.hpp"

namespace connlab::vm {

namespace {
std::string Hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

#ifndef CONNLAB_OBS_DISABLED
constexpr std::size_t kStopReasons =
    static_cast<std::size_t>(StopReason::kHeapCorruption) + 1;

/// Per-stop-reason counters, interned once (magic-static, so the table is
/// built thread-safely): flushes happen often enough under fuzzing that the
/// name-building + registry lookup must not recur per flush.
obs::Counter* const* StopReasonCounters() {
  struct Table {
    obs::Counter* c[kStopReasons];
    Table() {
      for (std::size_t i = 0; i < kStopReasons; ++i) {
        c[i] = &obs::Registry::Instance().GetCounter(
            "vm.stop." +
            std::string(StopReasonName(static_cast<StopReason>(i))));
      }
    }
  };
  static const Table table;
  return table.c;
}
#endif
}  // namespace

std::string_view StopReasonName(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kRunning: return "running";
    case StopReason::kHalted: return "halted";
    case StopReason::kExited: return "exited";
    case StopReason::kShellSpawned: return "shell-spawned";
    case StopReason::kProcessExec: return "process-exec";
    case StopReason::kFault: return "fault";
    case StopReason::kAbort: return "abort";
    case StopReason::kStepLimit: return "step-limit";
    case StopReason::kBreakpoint: return "breakpoint";
    case StopReason::kCfiViolation: return "cfi-violation";
    case StopReason::kHeapCorruption: return "heap-corruption";
  }
  return "?";
}

std::string_view ExecModeName(ExecMode mode) noexcept {
  switch (mode) {
    case ExecMode::kReference: return "reference";
    case ExecMode::kFast: return "fast";
  }
  return "?";
}

std::string StopInfo::ToString() const {
  std::string out(StopReasonName(reason));
  out += " at pc=" + Hex(pc);
  if (!detail.empty()) out += " (" + detail + ")";
  if (fault.has_value()) {
    out += " [" + mem::AccessKindName(fault->kind) + " fault: " + fault->detail + "]";
  }
  return out;
}

Cpu::Cpu(isa::Arch arch, mem::AddressSpace& space, ExecMode mode)
    : arch_(arch),
      space_(&space),
      mode_(mode),
      predecode_(kPredecodeSlots),
      predecode_shift_(arch == isa::Arch::kVARM ? 2 : 0) {}

Cpu::~Cpu() {
#ifndef CONNLAB_OBS_DISABLED
  FlushObsBatch();
#endif
}

#ifndef CONNLAB_OBS_DISABLED
void Cpu::FlushObsBatch() noexcept {
  if (obs_batch_.runs == 0) return;
  static obs::Counter* const steps = &obs::Registry::Instance().GetCounter("vm.steps");
  steps->Add(obs_batch_.steps);
  obs::Counter* const* stop_counters = StopReasonCounters();
  for (std::size_t i = 0; i < kStopReasons; ++i) {
    if (obs_batch_.stops[i] != 0) stop_counters[i]->Add(obs_batch_.stops[i]);
  }
  obs_batch_ = ObsBatch{};
  // Superblock-tier counters ride the same batch cadence: they only move
  // inside Run(), and every Run ends by flushing-or-counting the batch.
  if (sb_ != nullptr) {
    if (sb_->compiles != 0) {
      OBS_COUNT_N("vm.superblock.compiles", sb_->compiles);
      sb_->compiles = 0;
    }
    if (sb_->hits != 0) {
      OBS_COUNT_N("vm.superblock.hits", sb_->hits);
      sb_->hits = 0;
    }
    if (sb_->fallbacks != 0) {
      OBS_COUNT_N("vm.superblock.fallbacks", sb_->fallbacks);
      sb_->fallbacks = 0;
    }
    if (sb_->invalidations != 0) {
      OBS_COUNT_N("vm.superblock.invalidations", sb_->invalidations);
      sb_->invalidations = 0;
    }
    if (sb_->links != 0) {
      OBS_COUNT_N("vm.superblock.links", sb_->links);
      sb_->links = 0;
    }
    if (sb_->resumes != 0) {
      OBS_COUNT_N("vm.superblock.resumes", sb_->resumes);
      sb_->resumes = 0;
    }
  }
}
#endif

void Cpu::FlushPredecodeCache() noexcept {
  // A Boot registers its host functions before any guest code runs; each
  // registration would otherwise zero all kPredecodeSlots for nothing.
  if (!predecode_filled_) return;
  for (PredecodeEntry& slot : predecode_) slot = PredecodeEntry{};
  predecode_filled_ = false;
}

void Cpu::BindDecodePlan(const mem::Segment* seg,
                         std::shared_ptr<const DecodePlan> plan) {
  if (seg == nullptr || plan == nullptr) return;
  for (PlanBinding& binding : plan_bindings_) {
    if (binding.seg == seg) {
      binding.gen = seg->generation();
      binding.plan = std::move(plan);
      return;
    }
  }
  plan_bindings_.push_back(PlanBinding{seg, seg->generation(), std::move(plan)});
}

void Cpu::RearmDecodePlan(const mem::Segment* seg,
                          std::uint64_t content_hash) noexcept {
  for (std::size_t i = 0; i < plan_bindings_.size(); ++i) {
    if (plan_bindings_[i].seg != seg) continue;
    if (plan_bindings_[i].plan->content_hash() == content_hash) {
      plan_bindings_[i].gen = seg->generation();
    } else {
      plan_bindings_.erase(plan_bindings_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    }
    return;
  }
}

const DecodePlan* Cpu::BoundPlan(const mem::Segment* seg) const noexcept {
  for (const PlanBinding& binding : plan_bindings_) {
    if (binding.seg == seg) return binding.plan.get();
  }
  return nullptr;
}

const isa::Instr* Cpu::PlannedInstr(const mem::Segment* seg) const noexcept {
  for (const PlanBinding& binding : plan_bindings_) {
    if (binding.seg != seg) continue;
    // A moved generation means the segment was written or re-protected
    // since binding; the plan's decodes may be stale, so refuse and let the
    // ordinary decode path (and its SMC-correct per-CPU cache) take over.
    if (binding.gen != seg->generation()) return nullptr;
    return binding.plan->Lookup(pc_);
  }
  return nullptr;
}

std::uint32_t Cpu::sp() const noexcept {
  return arch_ == isa::Arch::kVX86 ? regs_[isa::kESP] : regs_[isa::kSP];
}

void Cpu::set_sp(std::uint32_t value) noexcept {
  if (arch_ == isa::Arch::kVX86) {
    regs_[isa::kESP] = value;
  } else {
    regs_[isa::kSP] = value;
  }
}

util::Status Cpu::Push(std::uint32_t value) {
  const std::uint32_t next = sp() - 4;
  CONNLAB_RETURN_IF_ERROR(space_->WriteU32(next, value));
  set_sp(next);
  return util::OkStatus();
}

util::Result<std::uint32_t> Cpu::Pop() {
  CONNLAB_ASSIGN_OR_RETURN(std::uint32_t value, space_->ReadU32(sp()));
  set_sp(sp() + 4);
  return value;
}

util::Status Cpu::RegisterHostFn(mem::GuestAddr addr, std::string name, HostFn fn) {
  if (host_fns_.contains(addr)) {
    return util::AlreadyExists("host function already at " + Hex(addr));
  }
  host_fns_[addr] = {std::move(name), std::move(fn)};
  // A new trampoline may shadow an address whose decode (or absence) is
  // cached; start clean rather than tracking individual slots. Compiled
  // superblocks may likewise run straight through the new trampoline's pc.
  FlushPredecodeCache();
  FlushSuperblocks();
  return util::OkStatus();
}

std::string Cpu::HostFnName(mem::GuestAddr addr) const {
  auto it = host_fns_.find(addr);
  return it == host_fns_.end() ? std::string() : it->second.first;
}

void Cpu::RequestStop(StopReason reason, std::string detail) {
  stop_.reason = reason;
  stop_.detail = std::move(detail);
  stop_.pc = pc_;
}

void Cpu::PushEvent(EventKind kind, std::string text) {
  events_.push_back(Event{kind, std::move(text), pc_, steps_});
}

bool Cpu::ShadowCheckReturn(std::uint32_t target) noexcept {
  if (!shadow_enabled_) return true;
  if (!shadow_.empty() && shadow_.back() == target) {
    shadow_.pop_back();
    return true;
  }
  return false;
}

void Cpu::Fault(std::string detail) {
  stop_.reason = StopReason::kFault;
  stop_.detail = std::move(detail);
  stop_.pc = pc_;
  stop_.fault = space_->last_fault();
  space_->ClearFault();
}

StopInfo Cpu::Run(std::uint64_t max_steps) {
  stop_ = StopInfo{};
  stop_.reason = StopReason::kRunning;
  const std::uint64_t start_steps = steps_;
  while (!stopped()) {
    if (steps_ - start_steps >= max_steps) {
      RequestStop(StopReason::kStepLimit, "instruction budget exhausted");
      break;
    }
    if (!breakpoints_.empty() && !skip_breakpoint_once_ &&
        breakpoints_.contains(pc_)) {
      RequestStop(StopReason::kBreakpoint, "breakpoint");
      skip_breakpoint_once_ = true;  // next Run steps over it
      break;
    }
    skip_breakpoint_once_ = false;
    if (mode_ == ExecMode::kFast &&
        TrySuperblocks(max_steps - (steps_ - start_steps))) {
      continue;  // re-evaluate stop/budget/breakpoints at the block boundary
    }
    Step();
  }
  stop_.steps = steps_ - start_steps;
  // Plain member increments only: fuzz targets issue tens of short Run()
  // calls per exec, so even one shard add per Run costs a few percent of
  // throughput. The batch flushes to the registry every kFlushRuns runs and
  // in ~Cpu(), which covers every current scrape point (campaign reports
  // scrape after the workers' Systems are destroyed). No separate runs
  // counter: every Run ends in exactly one stop reason, so total runs is
  // the sum of the vm.stop.* counters.
#ifndef CONNLAB_OBS_DISABLED
  obs_batch_.steps += stop_.steps;
  const auto reason_index = static_cast<std::size_t>(stop_.reason);
  if (reason_index < kStopReasons) ++obs_batch_.stops[reason_index];
  if (++obs_batch_.runs >= ObsBatch::kFlushRuns) FlushObsBatch();
#endif
  if (stop_.reason != StopReason::kBreakpoint) skip_breakpoint_once_ = false;
  return stop_;
}

void Cpu::set_trace_limit(std::size_t limit) {
  trace_limit_ = limit;
  if (limit == 0) {
    trace_.clear();
  } else {
    while (trace_.size() > limit) trace_.pop_front();
  }
}

std::string Cpu::TraceString() const {
  std::string out;
  for (const TraceEntry& entry : trace_) {
    out += Hex(entry.pc) + ":  " + entry.text + "\n";
  }
  return out;
}

void Cpu::ListTouched(std::uint16_t index) { cov_.touched->push_back(index); }

void Cpu::Step() {
  if (stopped()) return;
  if (cov_.cells != nullptr) RecordEdge(CoverageLocation(pc_));

  if (mode_ == ExecMode::kFast) {
    const PredecodeEntry& slot = PredecodeSlot(pc_);
    if (slot.pc == pc_ && slot.kind == PredecodeEntry::Kind::kInstr &&
        slot.gen == slot.seg->generation()) {
      // Hot path: pc hit and the backing segment is byte-for-byte what we
      // decoded from (write generation unchanged). No map lookup, no fetch,
      // no decode. Copying the 12-byte Instr out keeps ExecuteInstr free of
      // any aliasing with the cache slot.
      const isa::Instr ins = slot.instr;
      ++steps_;
      if (trace_limit_ != 0) {
        trace_.push_back({pc_, ins.ToString(arch_)});
        if (trace_.size() > trace_limit_) trace_.pop_front();
      }
      ExecuteInstr(ins);
      return;
    }
    if (slot.pc == pc_ && slot.kind == PredecodeEntry::Kind::kHostFn) {
      DispatchHostFn(*slot.host);
      return;
    }
  }
  StepSlow();
}

void Cpu::DispatchHostFn(const std::pair<std::string, HostFn>& fn) {
  ++steps_;
  if (trace_limit_ != 0) {
    trace_.push_back({pc_, "<host: " + fn.first + ">"});
    if (trace_.size() > trace_limit_) trace_.pop_front();
  }
  CONNLAB_DEBUG("vm") << "host fn " << fn.first << " at " << Hex(pc_);
  util::Status status = fn.second(*this);
  if (!status.ok() && !stopped()) {
    Fault("in host function " + fn.first + ": " + status.ToString());
  }
}

void Cpu::StepSlow() {
  // Host-function trampoline takes priority over decoding.
  auto host = host_fns_.find(pc_);
  if (host != host_fns_.end()) {
    if (mode_ == ExecMode::kFast) {
      PredecodeEntry& slot = PredecodeSlot(pc_);
      slot.pc = pc_;
      slot.kind = PredecodeEntry::Kind::kHostFn;
      slot.seg = nullptr;
      slot.host = &host->second;  // std::map nodes are pointer-stable
      predecode_filled_ = true;
    }
    DispatchHostFn(host->second);
    return;
  }

  if (mode_ == ExecMode::kReference) {
    // The reference fetch/decode, byte-copying via util::Bytes: the oracle
    // every fast path is checked against — identical fault wording,
    // identical two-step VX86 fetch semantics.
    const std::uint32_t fetch_len =
        arch_ == isa::Arch::kVARM ? isa::kVARMInstrSize : 1;
    auto first = space_->Fetch(pc_, fetch_len);
    if (!first.ok()) {
      Fault("instruction fetch failed");
      return;
    }
    util::Bytes window = std::move(first).value();
    if (arch_ == isa::Arch::kVX86) {
      const std::uint8_t len = isa::vx86::InstrLength(window[0]);
      if (len == 0) {
        Fault("illegal instruction byte " + Hex(window[0]) + " at " + Hex(pc_));
        return;
      }
      if (len > 1) {
        auto rest = space_->Fetch(pc_, len);
        if (!rest.ok()) {
          Fault("instruction fetch failed (tail)");
          return;
        }
        window = std::move(rest).value();
      }
    }
    auto decoded = isa::Decode(arch_, window, 0);
    if (!decoded.ok()) {
      Fault("illegal instruction at " + Hex(pc_));
      return;
    }
    OBS_COUNT("vm.decodes");
    ++steps_;
    if (trace_limit_ != 0) {
      trace_.push_back({pc_, decoded.value().ToString(arch_)});
      if (trace_.size() > trace_limit_) trace_.pop_front();
    }
    ExecuteInstr(decoded.value());
    return;
  }

  // Zero-allocation fetch (this is where W^X bites: no X => fault). Mirrors
  // the reference path's two-step VX86 probe so fault details stay identical.
  const std::uint32_t first_len =
      arch_ == isa::Arch::kVARM ? isa::kVARMInstrSize : 1;
  auto head = space_->FetchSegment(pc_, first_len);
  if (!head.ok()) {
    Fault("instruction fetch failed");
    return;
  }
  const mem::Segment* seg = head.value();

  // Shared decode plan (the cross-CPU L2 behind the per-CPU slots): the
  // fetch above already enforced X on this segment, a valid plan entry is
  // wholly inside it, and the generation check above ruled out writes since
  // the plan was built — so executing the planned decode is bit-identical
  // to decoding here. Offsets the plan could not decode fall through so
  // fault wording stays byte-identical to the plain path.
  if (const isa::Instr* planned = PlannedInstr(seg)) {
    OBS_COUNT("vm.plan_hits");
    PredecodeEntry& slot = PredecodeSlot(pc_);
    slot.pc = pc_;
    slot.kind = PredecodeEntry::Kind::kInstr;
    slot.seg = seg;
    slot.gen = seg->generation();
    slot.instr = *planned;
    slot.host = nullptr;
    predecode_filled_ = true;
    const isa::Instr ins = *planned;  // plans are immutable; copy anyway,
    ++steps_;                         // matching the hot path's idiom
    if (trace_limit_ != 0) {
      trace_.push_back({pc_, ins.ToString(arch_)});
      if (trace_.size() > trace_limit_) trace_.pop_front();
    }
    ExecuteInstr(ins);
    return;
  }

  std::uint32_t len = first_len;
  if (arch_ == isa::Arch::kVX86) {
    const std::uint8_t op = seg->At(pc_);
    len = isa::vx86::InstrLength(op);
    if (len == 0) {
      Fault("illegal instruction byte " + Hex(op) + " at " + Hex(pc_));
      return;
    }
    if (len > 1) {
      auto full = space_->FetchSegment(pc_, len);
      if (!full.ok()) {
        Fault("instruction fetch failed (tail)");
        return;
      }
      seg = full.value();
    }
  }
  auto decoded = isa::Decode(arch_, seg->SpanAt(pc_, len), 0);
  if (!decoded.ok()) {
    Fault("illegal instruction at " + Hex(pc_));
    return;
  }
  OBS_COUNT("vm.decodes");

  PredecodeEntry& slot = PredecodeSlot(pc_);
  slot.pc = pc_;
  slot.kind = PredecodeEntry::Kind::kInstr;
  slot.seg = seg;
  slot.gen = seg->generation();
  slot.instr = decoded.value();
  slot.host = nullptr;
  predecode_filled_ = true;

  ++steps_;
  if (trace_limit_ != 0) {
    trace_.push_back({pc_, decoded.value().ToString(arch_)});
    if (trace_.size() > trace_limit_) trace_.pop_front();
  }
  ExecuteInstr(decoded.value());
}

Cpu::State Cpu::SaveState() const {
  State state;
  state.regs = regs_;
  state.pc = pc_;
  state.zf = zf_;
  state.steps = steps_;
  state.shadow = shadow_;
  state.events = events_;
  return state;
}

void Cpu::RestoreState(const State& state) {
  regs_ = state.regs;
  pc_ = state.pc;
  zf_ = state.zf;
  steps_ = state.steps;
  shadow_ = state.shadow;
  events_ = state.events;
  stop_ = StopInfo{};
  skip_breakpoint_once_ = false;
  trace_.clear();
  cov_prev_ = 0;
  // Cached decodes whose segments were rewritten are invalidated by the
  // generation tags; no flush needed.
}

void Cpu::ExecuteInstr(const isa::Instr& ins) {
  const mem::GuestAddr pc_next = pc_ + ins.length;
  if (arch_ == isa::Arch::kVX86) {
    ExecVX86(ins, pc_next);
  } else {
    ExecVARM(ins, pc_next);
  }
}

void Cpu::ExecVX86(const isa::Instr& ins, mem::GuestAddr pc_next) {
  using isa::Op;
  set_pc(pc_next);  // default; control flow overrides below
  switch (ins.op) {
    case Op::kNop:
      break;
    case Op::kMovImm:
      regs_[ins.ra] = ins.imm;
      break;
    case Op::kMovReg:
      regs_[ins.ra] = regs_[ins.rb];
      break;
    case Op::kXorReg:
      regs_[ins.ra] ^= regs_[ins.rb];
      break;
    case Op::kAddImm:
      regs_[ins.ra] += ins.imm;
      break;
    case Op::kSubImm:
      regs_[ins.ra] -= ins.imm;
      break;
    case Op::kAddReg:
      regs_[ins.ra] = regs_[ins.rb] + regs_[ins.rc];
      break;
    case Op::kCmpImm:
      zf_ = regs_[ins.ra] == ins.imm;
      break;
    case Op::kLoad: {
      auto value = space_->ReadU32(regs_[ins.rb] + ins.imm);
      if (!value.ok()) { Fault("load failed"); return; }
      regs_[ins.ra] = value.value();
      break;
    }
    case Op::kStore: {
      auto status = space_->WriteU32(regs_[ins.rb] + ins.imm, regs_[ins.ra]);
      if (!status.ok()) { Fault("store failed"); return; }
      break;
    }
    case Op::kLoadByte: {
      auto value = space_->ReadU8(regs_[ins.rb] + ins.imm);
      if (!value.ok()) { Fault("ldrb failed"); return; }
      regs_[ins.ra] = value.value();
      break;
    }
    case Op::kStoreByte: {
      auto status = space_->WriteU8(
          regs_[ins.rb] + ins.imm,
          static_cast<std::uint8_t>(regs_[ins.ra] & 0xFF));
      if (!status.ok()) { Fault("strb failed"); return; }
      break;
    }
    case Op::kPush: {
      auto status = Push(regs_[ins.ra]);
      if (!status.ok()) { Fault("push failed"); return; }
      break;
    }
    case Op::kPushImm: {
      auto status = Push(ins.imm);
      if (!status.ok()) { Fault("push failed"); return; }
      break;
    }
    case Op::kPop: {
      auto value = Pop();
      if (!value.ok()) { Fault("pop failed"); return; }
      regs_[ins.ra] = value.value();
      break;
    }
    case Op::kCall: {
      auto status = Push(pc_next);
      if (!status.ok()) { Fault("call push failed"); return; }
      ShadowPush(pc_next);
      set_pc(ins.imm);
      break;
    }
    case Op::kRet: {
      auto target = Pop();
      if (!target.ok()) { Fault("ret pop failed"); return; }
      if (!ShadowCheckReturn(target.value())) {
        OBS_COUNT("defense.cfi_traps");
        PushEvent(EventKind::kCfiViolation, "CFI: return address mismatch");
        RequestStop(StopReason::kCfiViolation, "CFI violation on ret");
        return;
      }
      set_pc(target.value());
      break;
    }
    case Op::kJmp:
      set_pc(ins.imm);
      break;
    case Op::kJz:
      if (zf_) set_pc(ins.imm);
      break;
    case Op::kJnz:
      if (!zf_) set_pc(ins.imm);
      break;
    case Op::kJmpInd: {
      auto target = space_->ReadU32(ins.imm);
      if (!target.ok()) { Fault("indirect jump load failed"); return; }
      set_pc(target.value());
      break;
    }
    case Op::kSyscall: {
      util::Status status = DispatchSyscall(*this);
      if (!status.ok() && !stopped()) { Fault(status.ToString()); return; }
      break;
    }
    case Op::kHlt:
      set_pc(pc_next - ins.length);  // halt leaves pc on the hlt itself
      RequestStop(StopReason::kHalted, "hlt");
      break;
    default:
      Fault("vx86 cannot execute op " + std::string(isa::OpName(ins.op)));
      break;
  }
}

void Cpu::ExecVARM(const isa::Instr& ins, mem::GuestAddr pc_next) {
  using isa::Op;
  set_pc(pc_next);
  switch (ins.op) {
    case Op::kMovReg:
      set_reg(ins.ra, regs_[ins.rb]);
      break;
    case Op::kMovImm:
      set_reg(ins.ra, ins.imm & 0xFFFF);
      break;
    case Op::kMovT:
      set_reg(ins.ra, (regs_[ins.ra] & 0xFFFF) | (ins.imm << 16));
      break;
    case Op::kMvn:
      set_reg(ins.ra, ~regs_[ins.rb]);
      break;
    case Op::kAddImm:
      set_reg(ins.ra, regs_[ins.rb] + ins.imm);
      break;
    case Op::kSubImm:
      set_reg(ins.ra, regs_[ins.rb] - ins.imm);
      break;
    case Op::kAddReg:
      set_reg(ins.ra, regs_[ins.rb] + regs_[ins.rc]);
      break;
    case Op::kCmpImm:
      zf_ = regs_[ins.ra] == ins.imm;
      break;
    case Op::kLoad: {
      auto value = space_->ReadU32(regs_[ins.rb] + ins.imm);
      if (!value.ok()) { Fault("ldr failed"); return; }
      set_reg(ins.ra, value.value());
      break;
    }
    case Op::kStore: {
      auto status = space_->WriteU32(regs_[ins.rb] + ins.imm, regs_[ins.ra]);
      if (!status.ok()) { Fault("str failed"); return; }
      break;
    }
    case Op::kLoadByte: {
      auto value = space_->ReadU8(regs_[ins.rb] + ins.imm);
      if (!value.ok()) { Fault("ldrb failed"); return; }
      set_reg(ins.ra, value.value());
      break;
    }
    case Op::kStoreByte: {
      auto status = space_->WriteU8(
          regs_[ins.rb] + ins.imm,
          static_cast<std::uint8_t>(regs_[ins.ra] & 0xFF));
      if (!status.ok()) { Fault("strb failed"); return; }
      break;
    }
    case Op::kLdrLit: {
      const mem::GuestAddr addr =
          pc_next + static_cast<std::int32_t>(ins.imm);
      auto value = space_->ReadU32(addr);
      if (!value.ok()) { Fault("ldrl failed"); return; }
      set_reg(ins.ra, value.value());
      break;
    }
    case Op::kLdrInd: {
      auto value = space_->ReadU32(regs_[ins.rb]);
      if (!value.ok()) { Fault("ldri failed"); return; }
      set_reg(ins.ra, value.value());
      break;
    }
    case Op::kPush: {
      // ARM store-multiple, descending: lowest register at lowest address.
      int count = 0;
      for (int i = 0; i < 16; ++i) count += (ins.reg_mask >> i) & 1;
      std::uint32_t addr = sp() - 4 * static_cast<std::uint32_t>(count);
      const std::uint32_t new_sp = addr;
      for (int i = 0; i < 16; ++i) {
        if (((ins.reg_mask >> i) & 1) == 0) continue;
        auto status = space_->WriteU32(addr, regs_[i]);
        if (!status.ok()) { Fault("push failed"); return; }
        addr += 4;
      }
      set_sp(new_sp);
      break;
    }
    case Op::kPop: {
      // ARM load-multiple, ascending; pc (bit 15) loaded last => control
      // transfer. This is the `pop {..., pc}` return/gadget mechanism.
      std::uint32_t addr = sp();
      std::uint32_t new_pc = pc_next;
      bool has_pc = false;
      for (int i = 0; i < 16; ++i) {
        if (((ins.reg_mask >> i) & 1) == 0) continue;
        auto value = space_->ReadU32(addr);
        if (!value.ok()) { Fault("pop failed"); return; }
        addr += 4;
        if (i == isa::kPC) {
          new_pc = value.value();
          has_pc = true;
        } else if (i == isa::kSP) {
          // Popping sp is unpredictable on real ARM; we ignore the value
          // (sp is rewritten below anyway).
        } else {
          regs_[i] = value.value();
        }
      }
      set_sp(addr);
      if (has_pc) {
        if (!ShadowCheckReturn(new_pc)) {
          OBS_COUNT("defense.cfi_traps");
          PushEvent(EventKind::kCfiViolation, "CFI: return address mismatch");
          RequestStop(StopReason::kCfiViolation, "CFI violation on pop {pc}");
          return;
        }
        set_pc(new_pc);
      }
      break;
    }
    case Op::kBl: {
      regs_[isa::kLR] = pc_next;
      ShadowPush(pc_next);
      set_pc(pc_next + static_cast<std::int32_t>(ins.imm) * 4);
      break;
    }
    case Op::kBlx:
      regs_[isa::kLR] = pc_next;
      ShadowPush(pc_next);
      set_pc(regs_[ins.ra]);
      break;
    case Op::kBx:
      set_pc(regs_[ins.ra]);
      break;
    case Op::kJmp:
      set_pc(pc_next + static_cast<std::int32_t>(ins.imm) * 4);
      break;
    case Op::kJz:
      if (zf_) set_pc(pc_next + static_cast<std::int32_t>(ins.imm) * 4);
      break;
    case Op::kJnz:
      if (!zf_) set_pc(pc_next + static_cast<std::int32_t>(ins.imm) * 4);
      break;
    case Op::kSyscall: {
      util::Status status = DispatchSyscall(*this);
      if (!status.ok() && !stopped()) { Fault(status.ToString()); return; }
      break;
    }
    case Op::kHlt:
      set_pc(pc_next - ins.length);  // halt leaves pc on the hlt itself
      RequestStop(StopReason::kHalted, "hlt");
      break;
    default:
      Fault("varm cannot execute op " + std::string(isa::OpName(ins.op)));
      break;
  }
}

std::string Cpu::RegistersString() const {
  std::string out;
  char buf[32];
  const int count = arch_ == isa::Arch::kVX86 ? 8 : 16;
  for (int i = 0; i < count; ++i) {
    const std::string_view name =
        arch_ == isa::Arch::kVX86
            ? isa::VX86RegName(static_cast<std::uint8_t>(i))
            : isa::VARMRegName(static_cast<std::uint8_t>(i));
    std::snprintf(buf, sizeof(buf), "%s=%08x ", std::string(name).c_str(), regs_[i]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "pc=%08x zf=%d", pc_, zf_ ? 1 : 0);
  out += buf;
  return out;
}

}  // namespace connlab::vm
