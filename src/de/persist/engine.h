// File-backed durability engine for the Object DE (ROADMAP open item 1):
// an append-only checksum-framed journal plus periodic full-state
// snapshots, organized into generations so recovery cost is O(delta since
// the last snapshot) instead of O(history).
//
// Generation protocol:
//   * Generation g is the pair (snapshot-<g>.ksnp, journal-<g>.kjnl).
//     Generation 0 has no snapshot (the implicit empty image).
//   * A snapshot starts with a cut, begin_snapshot(): it takes the image,
//     creates journal-<g+1> and switches appends to it at once. The first
//     slice (snapshot_slice()) creates snapshot-<g+1> with a zeroed
//     placeholder header; each slice encodes a bounded part of the
//     payload, written out in 64 KiB batches, and the real header is
//     written last. snapshot() is the cut plus every slice.
//   * Snapshots are written in place (no tmp+rename): a torn or unfinished
//     snapshot is a first-class case, detected by checksum and skipped in
//     favor of the previous generation. So while snapshot-<g+1> is being
//     written, generation g+1 holds a journal and an incomplete snapshot,
//     and snapshot-<g> plus journals g and g+1 still recover everything.
//   * recover() picks the newest checksum-valid snapshot as the base, then
//     chain-replays the valid frame prefix of every journal from that
//     generation up (stopping at the first torn journal), truncates the
//     torn tail, and resumes appends there. A snapshot still being
//     written is abandoned.
//   * gc() reclaims every generation strictly below the newest valid
//     on-disk snapshot — by construction it can never reclaim a generation
//     a recovery could still need, and an incomplete snapshot never moves
//     that floor.
//
// Crash simulation: set_fault_hook() installs a deterministic fault point
// (see sim::CrashPointPlan). When the hook fires, the engine writes a
// deliberately torn prefix of the frame/snapshot (exercising the recovery
// code paths for real) and marks itself failed; the owning DE then crashes
// its kernel, and recover() heals the engine.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "de/persist/format.h"

namespace knactor::de::persist {

/// Internal fault points a simulated crash can hit.
enum class CrashPoint {
  kJournalAppend,  // torn frame at the journal tail
  kSnapshotSlice,  // torn payload slice of a snapshot being written
  kSnapshotWrite,  // torn header patch that would complete a snapshot
  kTruncate,       // partial old-generation reclamation in gc()
};
[[nodiscard]] const char* crash_point_name(CrashPoint point);

struct EngineOptions {
  std::string dir;
  /// Journal records between automatic snapshots (enforced by the owning
  /// ObjectDe via records_since_snapshot(); 0 = manual snapshots only).
  std::uint64_t snapshot_every = 0;
};

/// Per-generation on-disk state, as seen by `knctl recover --inspect` and
/// the recovery planner.
struct GenerationInfo {
  std::uint64_t generation = 0;
  bool has_snapshot = false;
  bool snapshot_valid = false;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_objects = 0;
  bool has_journal = false;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_valid_bytes = 0;
  std::uint64_t journal_frames = 0;
  std::uint64_t journal_records = 0;
  bool journal_torn = false;
};

struct EngineStats {
  std::uint64_t appends = 0;           // frames written
  std::uint64_t records_appended = 0;
  std::uint64_t snapshots = 0;  // completed
  std::uint64_t recoveries = 0;
  std::uint64_t frames_replayed = 0;   // last recovery
  std::uint64_t records_replayed = 0;  // last recovery
  std::uint64_t torn_frames_dropped = 0;    // journals truncated on recovery
  std::uint64_t snapshots_skipped = 0;      // invalid snapshots passed over
  std::uint64_t generations_reclaimed = 0;  // by gc()
};

class Engine {
 public:
  explicit Engine(EngineOptions options) : options_(std::move(options)) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Creates the directory if needed and positions the engine on the
  /// newest generation present (0 on an empty directory). Does not load
  /// state — call recover() for that.
  common::Status open();

  /// Appends one atomic commit batch: `records` are pre-encoded journal
  /// records (possibly several concatenated per view — `record_count` is
  /// the total), and the two counters are the kernel's sequence domains
  /// after the batch. The batch is one checksum frame, so recovery either
  /// replays all of it or none.
  common::Status append_batch(const std::vector<std::string_view>& records,
                              std::uint32_t record_count,
                              std::uint64_t next_revision,
                              std::uint64_t commit_seq);

  /// Objects per snapshot slice. A write in flight pays for every slice
  /// that runs before it completes, so slices are small and many.
  static constexpr std::size_t kSnapshotSliceObjects = 32;

  /// Writes `image` as the next generation's snapshot and rotates the
  /// journal: begin_snapshot() plus every slice. Old generations remain
  /// on disk until gc().
  common::Status snapshot(Image image);

  /// The cut: keeps `image` (shared payload handles) and rotates appends
  /// to the next generation's journal at once. A snapshot still pending
  /// is finished first.
  common::Status begin_snapshot(Image image);
  /// Encodes the pending snapshot's next slice of at most `max_objects`
  /// objects and writes the encoded bytes once 64 KiB have accumulated;
  /// the first slice creates the file with a placeholder header. The
  /// slice that ends the payload writes the rest and then the real
  /// header, completes the snapshot and releases its image. A no-op with
  /// nothing pending.
  common::Status snapshot_slice(
      std::size_t max_objects = kSnapshotSliceObjects);
  /// Runs every remaining slice of the pending snapshot.
  common::Status finish_snapshot();
  /// Drops the pending snapshot, as a crash would: its file stays behind
  /// incomplete (checksum-invalid) and its image is released.
  void abandon_snapshot();
  [[nodiscard]] bool snapshot_pending() const { return pending_ != nullptr; }

  /// Loads the newest valid snapshot, chain-replays the journal suffix,
  /// truncates any torn tail, and resumes appends at the recovered
  /// position. Also clears the failed() flag (the simulated process came
  /// back up).
  common::Result<Image> recover();

  /// Reclaims every generation strictly below the newest valid snapshot,
  /// the floor recover() loads as its base.
  /// Returns the number of generations reclaimed. Safe to register as a
  /// kernel GC hook.
  std::size_t gc();

  /// Reads every file of the engine's generation listing, for tooling
  /// (`knctl recover --inspect`); static so it needs no live engine.
  [[nodiscard]] static std::vector<GenerationInfo> inspect(
      const std::string& dir);
  /// The generation recover() would load as its snapshot base, given an
  /// inspect() listing; nullopt means "start from the empty image".
  [[nodiscard]] static std::optional<std::uint64_t> recovery_base(
      const std::vector<GenerationInfo>& generations);

  void set_fault_hook(std::function<bool(CrashPoint)> hook) {
    fault_hook_ = std::move(hook);
  }
  [[nodiscard]] bool fault_armed() const {
    return static_cast<bool>(fault_hook_);
  }
  /// True after a simulated crash fired; every append/snapshot fails with
  /// Unavailable until recover().
  [[nodiscard]] bool failed() const { return failed_; }

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t records_since_snapshot() const {
    return records_since_snapshot_;
  }
  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

  [[nodiscard]] std::string journal_path(std::uint64_t generation) const;
  [[nodiscard]] std::string snapshot_path(std::uint64_t generation) const;

 private:
  bool fault_fires(CrashPoint point) {
    return fault_hook_ && fault_hook_(point);
  }
  common::Status ensure_journal_open();
  common::Status write_journal_bytes(const std::string& bytes);

  /// A cut snapshot whose payload is still being written.
  struct PendingSnapshot {
    explicit PendingSnapshot(Image captured, std::uint64_t gen)
        : image(std::move(captured)), encoder(image), generation(gen) {}
    // `encoder` points at `image`, so the object never moves.
    PendingSnapshot(const PendingSnapshot&) = delete;
    PendingSnapshot& operator=(const PendingSnapshot&) = delete;
    Image image;
    SnapshotEncoder encoder;  // reads `image`; declared after it
    std::uint64_t generation;
    std::ofstream out;
    std::string unwritten;  // encoded bytes not yet written
  };

  EngineOptions options_;
  std::ofstream journal_out_;
  std::uint64_t generation_ = 0;
  std::uint64_t records_since_snapshot_ = 0;
  bool opened_ = false;
  bool failed_ = false;
  std::function<bool(CrashPoint)> fault_hook_;
  std::unique_ptr<PendingSnapshot> pending_;
  EngineStats stats_;
};

}  // namespace knactor::de::persist
