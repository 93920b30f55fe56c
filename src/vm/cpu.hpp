// The guest CPU: an interpreter over VX86 / VARM instruction streams with
// W^X-enforcing fetch, a host-function trampoline registry, breakpoints and
// an event log.
//
// Host functions are how connlab hosts high-level guest code (the simulated
// Connman parser, libc routines) without a C compiler: a guest address is
// registered with a callback; when pc reaches it, the callback runs *against
// guest memory and guest registers* — it reads its arguments per the calling
// convention, mutates only guest state, and performs the return-sequence
// itself (popping the return address / reading lr). Hijacked control flow —
// shellcode, ROP gadgets, PLT stubs — is ordinary interpreted code.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/isa/isa.hpp"
#include "src/mem/address_space.hpp"
#include "src/vm/decode_plan.hpp"
#include "src/vm/events.hpp"

namespace connlab::vm {

struct SbOp;
struct Superblock;
class SuperblockCache;

/// How a CPU executes guest code. Fixed at construction; every CPU carries
/// its own, so CPUs in different modes can run side by side in one process.
enum class ExecMode : std::uint8_t {
  /// The oracle: byte-copying fetch and decode of every instruction, no
  /// caches of any kind. Every paper result is defined by what this does.
  kReference,
  /// The one fast path: predecode cache, shared decode plans, superblocks
  /// with block links and host-fn/syscall continuation. Observably
  /// identical to kReference (tests/test_differential.cpp).
  kFast,
};

std::string_view ExecModeName(ExecMode mode) noexcept;

enum class StopReason : std::uint8_t {
  kRunning,       // not stopped (internal)
  kHalted,        // hlt or an explicit clean stop from a host function
  kExited,        // exit() syscall
  kShellSpawned,  // exec of a shell — the paper's success condition
  kProcessExec,   // exec of a non-shell program
  kFault,         // SIGSEGV / SIGILL equivalent
  kAbort,         // SIGABRT equivalent (canary failure)
  kStepLimit,     // ran out of instruction budget
  kBreakpoint,    // debugger breakpoint hit
  kCfiViolation,  // shadow-stack return check failed (CFI CaRE model)
  kHeapCorruption,  // heap-integrity check failed (chunk canary / unlink)
};

std::string_view StopReasonName(StopReason reason) noexcept;

struct StopInfo {
  StopReason reason = StopReason::kRunning;
  std::string detail;
  std::optional<mem::FaultInfo> fault;   // populated for kFault
  std::uint32_t exit_code = 0;           // populated for kExited
  mem::GuestAddr pc = 0;                 // pc when the CPU stopped
  std::uint64_t steps = 0;               // instructions retired this Run

  [[nodiscard]] std::string ToString() const;
};

class Cpu {
 public:
  using HostFn = std::function<util::Status(Cpu&)>;

  Cpu(isa::Arch arch, mem::AddressSpace& space,
      ExecMode mode = ExecMode::kFast);
  ~Cpu();
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  [[nodiscard]] isa::Arch arch() const noexcept { return arch_; }
  [[nodiscard]] mem::AddressSpace& space() noexcept { return *space_; }
  [[nodiscard]] const mem::AddressSpace& space() const noexcept { return *space_; }

  // --- Register file -------------------------------------------------------
  [[nodiscard]] std::uint32_t reg(std::uint8_t index) const noexcept {
    return regs_[index];
  }
  void set_reg(std::uint8_t index, std::uint32_t value) noexcept {
    regs_[index] = value;
    if (arch_ == isa::Arch::kVARM && index == isa::kPC) pc_ = value;
  }
  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }
  void set_pc(std::uint32_t value) noexcept {
    pc_ = value;
    if (arch_ == isa::Arch::kVARM) regs_[isa::kPC] = value;
  }
  /// Stack pointer, arch-aware (ESP on VX86, r13 on VARM).
  [[nodiscard]] std::uint32_t sp() const noexcept;
  void set_sp(std::uint32_t value) noexcept;
  [[nodiscard]] bool zf() const noexcept { return zf_; }
  void set_zf(bool value) noexcept { zf_ = value; }

  // --- Stack helpers (4-byte, descending) -----------------------------------
  util::Status Push(std::uint32_t value);
  util::Result<std::uint32_t> Pop();

  // --- Host functions --------------------------------------------------------
  util::Status RegisterHostFn(mem::GuestAddr addr, std::string name, HostFn fn);
  [[nodiscard]] bool IsHostFn(mem::GuestAddr addr) const noexcept {
    return host_fns_.contains(addr);
  }
  [[nodiscard]] std::string HostFnName(mem::GuestAddr addr) const;

  // --- Execution --------------------------------------------------------------
  /// Runs until a stop condition or `max_steps` instructions.
  StopInfo Run(std::uint64_t max_steps);

  /// Executes exactly one instruction (or host function). The stop state is
  /// observable through stopped()/stop_info() afterwards.
  void Step();

  // --- Execution mode -------------------------------------------------------
  [[nodiscard]] ExecMode exec_mode() const noexcept { return mode_; }

  // --- Predecode cache ------------------------------------------------------
  // kFast only. Direct-mapped cache of decoded instructions (and host-function
  // hits) keyed by pc. Entries are tagged with the backing segment's write
  // generation, so any write into a segment — shellcode landing on the
  // stack, a debugger poke into .text — invalidates its cached decodes and
  // the next execution re-fetches through the permission-checked front door.
  // A flush when no slot has been filled since construction or the last
  // flush is free, so a Boot's host-fn registrations cost nothing here.
  void FlushPredecodeCache() noexcept;

  // --- Shared decode plans --------------------------------------------------
  // A binding attaches an immutable DecodePlan (see vm/decode_plan.hpp) to
  // one of this CPU's segments at its current write generation. While the
  // generation holds, kFast predecode misses inside the segment are served
  // from the plan instead of decoding; the moment the segment is written or
  // re-protected the binding goes stale and the CPU falls back to the
  // ordinary per-CPU decode path (SMC-correct by construction). The loader
  // binds plans for executable, non-writable segments at a kFast Boot.
  void BindDecodePlan(const mem::Segment* seg,
                      std::shared_ptr<const DecodePlan> plan);
  /// After a snapshot restore rewrote `seg`'s bytes: re-arms the binding at
  /// the new generation when the restored content (identified by its hash)
  /// is exactly what the plan was built from, and drops it otherwise.
  void RearmDecodePlan(const mem::Segment* seg,
                       std::uint64_t content_hash) noexcept;
  /// The plan currently bound for `seg` (stale or not); nullptr if none.
  [[nodiscard]] const DecodePlan* BoundPlan(const mem::Segment* seg) const noexcept;

  // --- Superblock tier ------------------------------------------------------
  // kFast only. Straight-line regions compiled into computed-goto threaded
  // code (see vm/superblock.hpp): the Run() loop dispatches whole blocks
  // when it can and falls back to Step() everywhere else. Blocks are keyed
  // to (segment, write generation) exactly like predecode slots, so SMC /
  // W^X flips / snapshot restores invalidate them; store-class ops re-check
  // the code segment's generation mid-block. Direct branches link straight
  // into compiled successors, and calls into host functions and syscalls
  // continue in-block.
  void FlushSuperblocks() noexcept;

  // --- Snapshot state (loader::Snapshot) ------------------------------------
  /// Architectural state a snapshot must capture to make a later
  /// RestoreState indistinguishable from a fresh boot: registers, pc,
  /// flags, the retired-instruction counter, the shadow stack and the event
  /// log. Host functions, breakpoints and configuration knobs survive the
  /// restore untouched.
  struct State {
    std::array<std::uint32_t, 16> regs{};
    std::uint32_t pc = 0;
    bool zf = false;
    std::uint64_t steps = 0;
    std::vector<std::uint32_t> shadow;
    std::vector<Event> events;
  };
  [[nodiscard]] State SaveState() const;
  /// Restores saved state and clears everything transient (stop record,
  /// trace, pending breakpoint skip) so execution can start clean.
  void RestoreState(const State& state);

  [[nodiscard]] bool stopped() const noexcept {
    return stop_.reason != StopReason::kRunning;
  }
  [[nodiscard]] const StopInfo& stop_info() const noexcept { return stop_; }
  /// Clears the stop state so execution can continue (debugger `continue`).
  void ClearStop() noexcept { stop_.reason = StopReason::kRunning; }

  /// For host functions and the syscall layer: requests a stop that Run()
  /// honours after the current instruction completes.
  void RequestStop(StopReason reason, std::string detail);
  void SetExitCode(std::uint32_t code) noexcept { stop_.exit_code = code; }

  // --- Breakpoints -------------------------------------------------------------
  // Compiled superblocks stop at breakpoint'd pcs, so any change to the set
  // drops them (rare, debugger-only operations).
  void AddBreakpoint(mem::GuestAddr addr) {
    breakpoints_.insert(addr);
    FlushSuperblocks();
  }
  void RemoveBreakpoint(mem::GuestAddr addr) {
    breakpoints_.erase(addr);
    FlushSuperblocks();
  }
  [[nodiscard]] bool HasBreakpoint(mem::GuestAddr addr) const noexcept {
    return breakpoints_.contains(addr);
  }

  // --- Shadow stack (CFI CaRE-flavoured return protection) -----------------
  /// When enabled, every call pushes its return address onto a hardware
  /// shadow stack and every return (ret / pop {…, pc}) must match the top
  /// entry — a mismatch aborts execution (§IV's hardware CFI model).
  void set_shadow_stack_enabled(bool enabled) noexcept {
    shadow_enabled_ = enabled;
  }
  [[nodiscard]] bool shadow_stack_enabled() const noexcept {
    return shadow_enabled_;
  }
  void ShadowPush(std::uint32_t return_addr) {
    if (shadow_enabled_) shadow_.push_back(return_addr);
  }
  void ShadowClear() noexcept { shadow_.clear(); }
  /// Validates a return target against the shadow stack; pops on match.
  /// Returns true when the return is allowed (or CFI is off).
  bool ShadowCheckReturn(std::uint32_t target) noexcept;

  // --- Edge coverage (AFL-style, for src/fuzz) ------------------------------
  /// Attaches a coverage sink: from now on every retired instruction and
  /// host-function transit records the (previous location ^ current
  /// location) edge with a saturating 8-bit counter, listing the cell in
  /// `sink.touched` when it first becomes non-zero. Cheap enough to leave
  /// on — one hash, one xor, one increment per step; zero cost when detached.
  void AttachCoverage(CoverageSink sink) noexcept {
    cov_ = sink;
    cov_prev_ = 0;
  }
  void DetachCoverage() noexcept { cov_ = CoverageSink{}; }
  [[nodiscard]] bool coverage_attached() const noexcept {
    return cov_.cells != nullptr;
  }
  /// Resets the edge chain so the next step starts a fresh edge (used at
  /// input boundaries so coverage is a function of the input alone).
  void ResetCoverageEdge() noexcept { cov_prev_ = 0; }

  // --- Events -------------------------------------------------------------------
  void PushEvent(EventKind kind, std::string text);
  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }
  void ClearEvents() noexcept { events_.clear(); }

  [[nodiscard]] std::uint64_t steps_executed() const noexcept { return steps_; }

  // --- Execution trace ------------------------------------------------------
  /// Keeps the last `limit` executed instructions (0 disables). Used by the
  /// Debugger and the examples to show hijacked control flow gadget by
  /// gadget. Costs a string per step while enabled.
  void set_trace_limit(std::size_t limit);
  struct TraceEntry {
    mem::GuestAddr pc = 0;
    std::string text;  // disassembly or host-function name
  };
  [[nodiscard]] const std::deque<TraceEntry>& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] std::string TraceString() const;

  /// One-line register dump ("eax=... ecx=..." / "r0=... r1=...").
  [[nodiscard]] std::string RegistersString() const;

 private:
  /// One direct-mapped predecode slot. kInstr slots are valid while the
  /// backing segment's generation matches `gen`; kHostFn slots are valid
  /// until RegisterHostFn flushes the cache (map nodes are pointer-stable).
  struct PredecodeEntry {
    enum class Kind : std::uint8_t { kEmpty, kInstr, kHostFn };
    mem::GuestAddr pc = 0;
    Kind kind = Kind::kEmpty;
    std::uint64_t gen = 0;
    const mem::Segment* seg = nullptr;
    isa::Instr instr{};
    const std::pair<std::string, HostFn>* host = nullptr;
  };
  static constexpr std::uint32_t kPredecodeSlots = 4096;  // power of two

  [[nodiscard]] PredecodeEntry& PredecodeSlot(mem::GuestAddr pc) noexcept {
    return predecode_[(pc >> predecode_shift_) & (kPredecodeSlots - 1)];
  }
  /// Predecode miss / kReference path: host-fn map lookup,
  /// permission-checked fetch, decode, execute — and (kFast) slot fill.
  void StepSlow();
  void DispatchHostFn(const std::pair<std::string, HostFn>& fn);

  /// One bound shared plan. Valid while seg->generation() == gen.
  struct PlanBinding {
    const mem::Segment* seg = nullptr;
    std::uint64_t gen = 0;
    std::shared_ptr<const DecodePlan> plan;
  };
  /// Shared-plan lookup for the current pc inside `seg`, nullptr on a stale
  /// binding or an offset the plan could not decode.
  [[nodiscard]] const isa::Instr* PlannedInstr(const mem::Segment* seg) const noexcept;

  /// Superblock tier internals (vm/superblock.cpp). TrySuperblocks chains
  /// block executions from the current pc while blocks are available and
  /// the budget allows, returning true when at least one block ran (the
  /// Run() loop then re-evaluates its stop conditions). SuperblockFor
  /// compiles-or-fetches the block at `entry`; ExecSuperblock is the
  /// computed-goto executor (called with block == nullptr it returns the
  /// handler label table for the builder).
  bool TrySuperblocks(std::uint64_t remaining);
  const Superblock* SuperblockFor(const mem::Segment* seg,
                                  mem::GuestAddr entry);
  const void* const* ExecSuperblock(const Superblock* block,
                                    const mem::Segment* seg,
                                    std::uint64_t entry_gen,
                                    std::uint64_t steps_cap);
  /// Block-link resolution for a direct-branch op whose target is `target`:
  /// returns the compiled successor in the same segment (compiling it on
  /// first use, caching the edge in the op's link slots), or nullptr when
  /// the target is outside the segment, a host-function trampoline, or not
  /// worth block dispatch. Caller has already verified the generation.
  const Superblock* LinkedSuccessor(const SbOp& op, const mem::Segment* seg,
                                    mem::GuestAddr target);

  void Fault(std::string detail);
  /// The edge update Step() and the superblock handlers share: the 16-bit
  /// edge hash is the cell index, listed on the cell's first hit.
  void RecordEdge(std::uint32_t cur) {
    const auto index = static_cast<std::uint16_t>(cur ^ cov_prev_);
    std::uint8_t& cell = cov_.cells[index];
    if (cell == 0) ListTouched(index);
    if (cell != 0xFF) ++cell;  // saturate instead of wrapping to 0
    cov_prev_ = cur >> 1;      // AFL's shift keeps A->B distinct from B->A
  }
  /// Out of line so RecordEdge stays small enough to inline into every
  /// superblock handler: a cell's first hit is the rare case.
  void ListTouched(std::uint16_t index);
  void ExecuteInstr(const isa::Instr& ins);
  void ExecVX86(const isa::Instr& ins, mem::GuestAddr pc_next);
  void ExecVARM(const isa::Instr& ins, mem::GuestAddr pc_next);

  isa::Arch arch_;
  mem::AddressSpace* space_;
  std::array<std::uint32_t, 16> regs_{};
  std::uint32_t pc_ = 0;
  bool zf_ = false;
  std::uint64_t steps_ = 0;
  StopInfo stop_;
  bool skip_breakpoint_once_ = false;
  std::map<mem::GuestAddr, std::pair<std::string, HostFn>> host_fns_;
  std::set<mem::GuestAddr> breakpoints_;
  std::vector<Event> events_;
  bool shadow_enabled_ = false;
  std::vector<std::uint32_t> shadow_;
  std::size_t trace_limit_ = 0;
  std::deque<TraceEntry> trace_;
  CoverageSink cov_;
  std::uint32_t cov_prev_ = 0;
  const ExecMode mode_;
  std::vector<PredecodeEntry> predecode_;
  // Set by the StepSlow slot fills, cleared by FlushPredecodeCache.
  bool predecode_filled_ = false;
  std::uint32_t predecode_shift_ = 0;  // 2 on VARM (4-byte aligned), 0 on VX86
  std::vector<PlanBinding> plan_bindings_;  // one or two entries (.text, libc)
  std::unique_ptr<SuperblockCache> sb_;  // lazily created on first Run

#ifndef CONNLAB_OBS_DISABLED
  /// Per-CPU staging for the obs counters: fuzz targets issue tens of tiny
  /// Run() calls per exec, so per-Run shard adds are measurable. Plain
  /// member increments accumulate here and flush to the registry every
  /// kObsFlushRuns runs and at destruction — totals are exact whenever the
  /// CPU's owning System is gone (every current scrape point).
  struct ObsBatch {
    static constexpr std::uint32_t kFlushRuns = 256;
    std::uint64_t steps = 0;
    std::uint32_t runs = 0;
    std::uint32_t stops[16] = {};  // indexed by StopReason
  };
  ObsBatch obs_batch_;
  void FlushObsBatch() noexcept;
#endif
};

}  // namespace connlab::vm
