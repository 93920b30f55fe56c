// Observable side effects of guest execution.
//
// A successful exploit in connlab is not a side effect on the host — it is a
// ShellSpawned event carrying provenance (what command, from which pc, at
// which step). The attack orchestrator classifies outcomes purely from these
// events plus the CPU's stop record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/mem/segment.hpp"

namespace connlab::vm {

enum class EventKind : std::uint8_t {
  kShellSpawned,  // exec of a shell ("/bin/sh", "sh", ...) — RCE achieved
  kProcessExec,   // exec of some other program
  kExit,          // guest called exit()
  kWrite,         // guest wrote to a descriptor
  kCanaryAbort,   // stack-protector check failed (__stack_chk_fail analogue)
  kCfiViolation,  // shadow-stack return check failed (CFI CaRE analogue)
  kHeapCorruption,  // heap-integrity check failed (chunk canary / unlink)
  kNote,            // free-form diagnostic from host-implemented functions
};

std::string EventKindName(EventKind kind);

struct Event {
  EventKind kind = EventKind::kNote;
  std::string text;          // command line, written bytes, note, ...
  mem::GuestAddr pc = 0;     // guest pc at the time of the event
  std::uint64_t step = 0;    // instruction count at the time of the event

  [[nodiscard]] std::string ToString() const;
};

/// True if `path` names a shell for classification purposes. The simulated
/// execlp performs PATH-style resolution, so both "/bin/sh" and "sh" count.
bool IsShellPath(std::string_view path) noexcept;

// --- Coverage features ------------------------------------------------------
// The fuzzing subsystem observes guest execution through two channels: the
// per-step edge coverage the CPU records (see Cpu::AttachCoverage) and the
// events raised during a run. Both are folded into one AFL-style bitmap, so
// locations and event kinds need stable, well-mixed 32-bit identifiers.

/// Mixes a guest pc into a coverage location id (a cheap 32-bit finaliser —
/// consecutive pcs must land far apart in the bitmap).
std::uint32_t CoverageLocation(std::uint32_t pc) noexcept;

/// A coverage feature id for an event kind, disjoint from location ids with
/// overwhelming probability (distinct fixed salt).
std::uint32_t EventFeature(EventKind kind) noexcept;

/// Cells in an edge-coverage bitmap: the CPU indexes it with a 16-bit edge
/// hash, so every index fits a std::uint16_t.
inline constexpr std::uint32_t kCoverageCells = 1u << 16;

/// Where the CPU records edge coverage (see Cpu::AttachCoverage):
/// `cells` is a kCoverageCells-entry bitmap of saturating 8-bit counters and
/// `touched` lists its non-zero cells. The CPU appends an edge's index to
/// `touched` on the cell's 0 -> 1 transition, so each non-zero cell is
/// listed exactly once. The bitmap's owner (fuzz::CoverageMap) keeps the
/// same invariant for its own writes.
struct CoverageSink {
  std::uint8_t* cells = nullptr;
  std::vector<std::uint16_t>* touched = nullptr;
};

}  // namespace connlab::vm
