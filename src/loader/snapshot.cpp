#include "src/loader/snapshot.hpp"

#include <atomic>

#include "src/obs/obs.hpp"
#include "src/vm/decode_plan.hpp"

namespace connlab::loader {

namespace {

std::atomic<bool> g_dirty_restore_default{true};

// Snapshot ids start at 1 so a freshly-mapped segment's baseline of 0 can
// never accidentally match a real snapshot.
std::atomic<std::uint64_t> g_next_snapshot_id{1};

std::uint64_t ImageHash(const Snapshot::SegmentImage& img) noexcept {
  return vm::DecodePlan::HashContent(
      util::ByteSpan(img.data.data(), img.data.size()));
}

}  // namespace

void SetDirtyRestoreDefault(bool enabled) noexcept {
  g_dirty_restore_default.store(enabled, std::memory_order_relaxed);
}

bool DirtyRestoreDefault() noexcept {
  return g_dirty_restore_default.load(std::memory_order_relaxed);
}

Snapshot TakeSnapshot(System& sys) {
  OBS_COUNT("loader.snapshots_taken");
  Snapshot snap;
  snap.id = g_next_snapshot_id.fetch_add(1, std::memory_order_relaxed);
  snap.segments.reserve(sys.space.segments().size());
  for (const auto& seg : sys.space.segments()) {
    snap.segments.push_back(Snapshot::SegmentImage{
        seg->name(), seg->base(), seg->data(), seg->perms(), std::nullopt});
    // Only a bound plan ever reads the hash (RestoreSnapshot's re-arm), so
    // the stack, heap and data images are not walked for it.
    if (sys.cpu->BoundPlan(seg.get()) != nullptr) {
      snap.segments.back().content_hash = ImageHash(snap.segments.back());
    }
    // From here on, "dirty" means "diverged from this snapshot".
    seg->ResetDirty(snap.id);
  }
  snap.cpu = sys.cpu->SaveState();
  snap.rng = sys.rng;
  return snap;
}

util::Status RestoreSnapshot(System& sys, const Snapshot& snap,
                             RestoreMode mode) {
  const auto& segments = sys.space.segments();
  if (segments.size() != snap.segments.size()) {
    return util::FailedPrecondition("snapshot segment roster mismatch");
  }
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const mem::Segment& seg = *segments[i];
    const Snapshot::SegmentImage& img = snap.segments[i];
    if (seg.name() != img.name || seg.base() != img.base ||
        seg.size() != img.data.size()) {
      return util::FailedPrecondition("snapshot does not match segment '" +
                                      seg.name() + "'");
    }
  }
  const bool dirty_only = mode == RestoreMode::kDirtyOnly ||
                          (mode == RestoreMode::kDefault &&
                           DirtyRestoreDefault());
  std::uint64_t pages_copied = 0;
  std::uint64_t dirty_restores = 0;
  std::uint64_t full_restores = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    mem::Segment& seg = *segments[i];
    const Snapshot::SegmentImage& img = snap.segments[i];
    if (dirty_only && seg.dirty_baseline() == snap.id) {
      // The dirty bitmap measures divergence from exactly this snapshot:
      // copy back only the touched pages. An untouched segment keeps its
      // write generation, so predecodes and shared-plan bindings stay warm.
      pages_copied += seg.RestoreDirtyPagesFrom(
          util::ByteSpan(img.data.data(), img.data.size()));
      ++dirty_restores;
    } else {
      // Either a full restore was requested or the bitmap belongs to some
      // other snapshot of this System — copy wholesale. mutable_data()
      // bumps the write generation, so stale predecodes of the pre-restore
      // bytes can never execute.
      seg.mutable_data() = img.data;
      // The bytes now equal the snapshot's, so future dirty-only restores
      // against this snapshot may trust the (cleared) bitmap.
      seg.ResetDirty(snap.id);
      ++full_restores;
    }
    if (seg.perms() != img.perms) {
      // Roll back W^X flips etc.; bump mirrors AddressSpace::Protect so any
      // decode cached under the interim permissions dies with the restore.
      seg.set_perms(img.perms);
      seg.BumpGeneration();
    }
    // Full copies (and permission rollbacks) moved the generation even
    // though the content provably matches the snapshot image again; re-arm
    // the shared decode plan rather than losing it to the staleness check.
    // A plan bound after TakeSnapshot meets an image that was not hashed
    // then: hash it now, so the re-arm outcome is the same either way.
    if (sys.cpu->BoundPlan(&seg) != nullptr) {
      const std::uint64_t hash =
          img.content_hash.has_value() ? *img.content_hash : ImageHash(img);
      sys.cpu->RearmDecodePlan(&seg, hash);
    }
  }
  sys.space.ClearFault();
  sys.cpu->RestoreState(snap.cpu);
  sys.rng = snap.rng;
  OBS_COUNT("loader.restores");
  // Per-segment counts: a single restore call can mix modes when some
  // segments' dirty baselines match the snapshot and others don't.
  OBS_COUNT_N("loader.restore_segments_dirty", dirty_restores);
  OBS_COUNT_N("loader.restore_segments_full", full_restores);
  OBS_COUNT_N("mem.dirty_pages_copied", pages_copied);
  return util::OkStatus();
}

}  // namespace connlab::loader
