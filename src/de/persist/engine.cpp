#include "de/persist/engine.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <system_error>

namespace knactor::de::persist {

namespace fs = std::filesystem;

namespace {

// Encoded snapshot bytes are written once this many have accumulated (and
// at the end of the payload).
constexpr std::size_t kSnapshotWriteBytes = 64 * 1024;

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return bytes;
}

/// Parses "<prefix><number><suffix>"; nullopt for anything else.
std::optional<std::uint64_t> parse_generation(const std::string& name,
                                              std::string_view prefix,
                                              std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

std::string journal_file(const std::string& dir, std::uint64_t generation) {
  return dir + "/journal-" + std::to_string(generation) + ".kjnl";
}

std::string snapshot_file(const std::string& dir, std::uint64_t generation) {
  return dir + "/snapshot-" + std::to_string(generation) + ".ksnp";
}

/// Mutable replay image: stores/objects as maps while folding records. The
/// base image moves in and the result moves back out into the sorted Image
/// layout; only the map keys are copies.
using ReplayState = std::map<std::string, std::map<std::string, ObjectImage>>;

ReplayState to_replay_state(Image&& image) {
  ReplayState state;
  for (auto& store : image.stores) {
    auto& objects = state[store.name];
    for (auto& obj : store.objects) {
      objects.emplace_hint(objects.end(), obj.key, std::move(obj));
    }
  }
  return state;
}

Image to_image(ReplayState&& state, std::uint64_t next_revision,
               std::uint64_t commit_seq) {
  Image image;
  image.next_revision = next_revision;
  image.commit_seq = commit_seq;
  image.stores.reserve(state.size());
  for (auto& [name, objects] : state) {
    StoreImage& store = image.stores.emplace_back();
    store.name = name;
    store.objects.reserve(objects.size());
    for (auto& [key, obj] : objects) store.objects.push_back(std::move(obj));
  }
  return image;
}

/// The generations in `dir`, oldest first, from file names alone: which
/// artifacts exist, no contents read. Every reader of the directory works
/// from this listing: open() takes the newest generation from it,
/// recover() and gc() open only the files they need (snapshots
/// newest-first until one decodes, journals from the base up), so their
/// cost scales with the delta since the last snapshot, and inspect()
/// fills in the rest of each entry from every listed file. An unreadable
/// directory lists as empty and sets `ec`.
std::vector<GenerationInfo> list_generation_files(const std::string& dir,
                                                  std::error_code& ec) {
  std::map<std::uint64_t, GenerationInfo> by_gen;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (auto g = parse_generation(name, "journal-", ".kjnl")) {
      by_gen[*g].generation = *g;
      by_gen[*g].has_journal = true;
    } else if (auto s = parse_generation(name, "snapshot-", ".ksnp")) {
      by_gen[*s].generation = *s;
      by_gen[*s].has_snapshot = true;
    }
  }
  std::vector<GenerationInfo> out;
  out.reserve(by_gen.size());
  for (const auto& [g, info] : by_gen) out.push_back(info);
  return out;
}

/// The floor both recovery and reclamation rest on: the newest snapshot
/// that reads and decodes. Snapshots are tried newest-first and the walk
/// stops at the first that decodes, so old generations awaiting gc cost
/// nothing. With no decodable snapshot, `generation` is empty and `image`
/// is the empty image.
struct SnapshotFloor {
  std::optional<std::uint64_t> generation;
  Image image;
  std::uint64_t skipped = 0;  // newer snapshots that did not decode
};

SnapshotFloor snapshot_floor(const std::string& dir,
                             const std::vector<GenerationInfo>& gens) {
  SnapshotFloor floor;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    if (!it->has_snapshot) continue;
    const auto bytes = read_file(snapshot_file(dir, it->generation));
    auto image = bytes ? decode_snapshot(*bytes) : std::nullopt;
    if (!image) {
      floor.skipped += 1;
      continue;
    }
    floor.generation = it->generation;
    floor.image = std::move(*image);
    break;
  }
  return floor;
}

void apply_record(ReplayState& state, Record&& rec) {
  if (rec.op == Record::Op::kDelete) {
    auto it = state.find(rec.store);
    if (it != state.end()) {
      it->second.erase(rec.key);
      // A store that exists (even empty) is part of the image: the DE
      // creates stores explicitly, so keep the entry.
    }
    return;
  }
  ObjectImage& obj = state[rec.store][rec.key];
  obj.key = std::move(rec.key);
  obj.version = rec.version;
  obj.created_at = rec.created_at;
  obj.updated_at = rec.updated_at;
  obj.data = std::move(rec.data);
}

}  // namespace

const char* crash_point_name(CrashPoint point) {
  switch (point) {
    case CrashPoint::kJournalAppend: return "journal_append";
    case CrashPoint::kSnapshotSlice: return "snapshot_slice";
    case CrashPoint::kSnapshotWrite: return "snapshot_write";
    case CrashPoint::kTruncate: return "truncate";
  }
  return "unknown";
}

std::string Engine::journal_path(std::uint64_t generation) const {
  return journal_file(options_.dir, generation);
}

std::string Engine::snapshot_path(std::uint64_t generation) const {
  return snapshot_file(options_.dir, generation);
}

common::Status Engine::open() {
  if (options_.dir.empty()) {
    return common::Error::invalid_argument("persist: empty directory");
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return common::Error::unavailable("persist: cannot create " +
                                      options_.dir + ": " + ec.message());
  }
  const std::vector<GenerationInfo> gens =
      list_generation_files(options_.dir, ec);
  generation_ = gens.empty() ? 0 : gens.back().generation;
  if (ec) {
    return common::Error::unavailable("persist: cannot scan " + options_.dir +
                                      ": " + ec.message());
  }
  opened_ = true;
  return common::Status::success();
}

common::Status Engine::ensure_journal_open() {
  if (!opened_) {
    return common::Error::failed_precondition("persist: engine not opened");
  }
  if (journal_out_.is_open()) return common::Status::success();
  const std::string path = journal_path(generation_);
  std::error_code ec;
  const bool fresh = !fs::exists(path, ec) || fs::file_size(path, ec) == 0;
  journal_out_.open(path, std::ios::binary | std::ios::app);
  if (!journal_out_.is_open()) {
    return common::Error::unavailable("persist: cannot open " + path);
  }
  if (fresh) {
    return write_journal_bytes(build_journal_header(generation_));
  }
  return common::Status::success();
}

common::Status Engine::write_journal_bytes(const std::string& bytes) {
  journal_out_.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
  journal_out_.flush();
  if (!journal_out_.good()) {
    return common::Error::unavailable("persist: journal write failed");
  }
  return common::Status::success();
}

common::Status Engine::append_batch(
    const std::vector<std::string_view>& records, std::uint32_t record_count,
    std::uint64_t next_revision, std::uint64_t commit_seq) {
  if (failed_) {
    return common::Error::unavailable("persist: engine crashed");
  }
  KN_TRY(ensure_journal_open());
  const std::string frame =
      build_frame(records, record_count, next_revision, commit_seq);
  if (fault_fires(CrashPoint::kJournalAppend)) {
    // Simulated crash mid-append: a torn prefix of the frame reaches disk.
    (void)write_journal_bytes(frame.substr(0, frame.size() / 2));
    failed_ = true;
    return common::Error::unavailable("persist: crashed during append");
  }
  KN_TRY(write_journal_bytes(frame));
  stats_.appends += 1;
  stats_.records_appended += record_count;
  records_since_snapshot_ += record_count;
  return common::Status::success();
}

common::Status Engine::snapshot(Image image) {
  KN_TRY(begin_snapshot(std::move(image)));
  return finish_snapshot();
}

common::Status Engine::begin_snapshot(Image image) {
  if (failed_) {
    return common::Error::unavailable("persist: engine crashed");
  }
  if (!opened_) {
    return common::Error::failed_precondition("persist: engine not opened");
  }
  KN_TRY(finish_snapshot());
  // Rotate the journal at the cut: every commit after it lands in the new
  // generation, which the snapshot base g plus journals g and g+1 cover
  // until the snapshot completes. The snapshot file itself is created by
  // the first slice, so the cut does no more I/O than the rotation.
  pending_ =
      std::make_unique<PendingSnapshot>(std::move(image), generation_ + 1);
  if (journal_out_.is_open()) journal_out_.close();
  generation_ = pending_->generation;
  records_since_snapshot_ = 0;
  return ensure_journal_open();
}

common::Status Engine::snapshot_slice(std::size_t max_objects) {
  if (pending_ == nullptr) return common::Status::success();
  if (failed_) {
    return common::Error::unavailable("persist: engine crashed");
  }
  PendingSnapshot& p = *pending_;
  if (!p.out.is_open()) {
    // A zeroed header is checksum-invalid, so until the real header lands
    // last, recovery and gc() skip this file for the previous generation.
    const std::string path = snapshot_path(p.generation);
    p.out.open(path, std::ios::binary | std::ios::trunc);
    p.unwritten.assign(kSnapshotHeaderBytes, '\0');
  }
  const bool last = p.encoder.encode_slice(p.unwritten, max_objects);
  if (fault_fires(CrashPoint::kSnapshotSlice)) {
    // Simulated crash mid-slice: half the unwritten bytes reach disk, the
    // header is still the placeholder.
    p.out.write(p.unwritten.data(),
                static_cast<std::streamsize>(p.unwritten.size() / 2));
    p.out.flush();
    failed_ = true;
    return common::Error::unavailable("persist: crashed during snapshot");
  }
  // Slices are small, so their bytes go out in batches of at least
  // kSnapshotWriteBytes rather than one write per slice.
  if (last || p.unwritten.size() >= kSnapshotWriteBytes) {
    p.out.write(p.unwritten.data(),
                static_cast<std::streamsize>(p.unwritten.size()));
    p.out.flush();
    p.unwritten.clear();
    if (!p.out.good()) {
      return common::Error::unavailable("persist: snapshot write failed");
    }
  }
  if (!last) return common::Status::success();

  const std::string header = p.encoder.header(p.generation);
  const bool torn = fault_fires(CrashPoint::kSnapshotWrite);
  p.out.seekp(0);
  // Simulated crash mid-patch: half the header reaches disk, which leaves
  // a zero payload length and CRC behind it — still invalid.
  p.out.write(header.data(), static_cast<std::streamsize>(
                                 torn ? header.size() / 2 : header.size()));
  p.out.flush();
  if (torn) {
    failed_ = true;
    return common::Error::unavailable("persist: crashed during snapshot");
  }
  if (!p.out.good()) {
    return common::Error::unavailable("persist: snapshot write failed");
  }
  pending_.reset();  // releases the captured image
  stats_.snapshots += 1;
  return common::Status::success();
}

common::Status Engine::finish_snapshot() {
  while (pending_ != nullptr) {
    KN_TRY(snapshot_slice(std::numeric_limits<std::size_t>::max()));
  }
  return common::Status::success();
}

void Engine::abandon_snapshot() { pending_.reset(); }

common::Result<Image> Engine::recover() {
  if (!opened_) {
    KN_TRY(open());
  }
  abandon_snapshot();
  if (journal_out_.is_open()) journal_out_.close();
  stats_.recoveries += 1;
  stats_.frames_replayed = 0;
  stats_.records_replayed = 0;

  std::error_code ec;
  const std::vector<GenerationInfo> gens =
      list_generation_files(options_.dir, ec);

  // Base: the snapshot floor; otherwise the empty image at the oldest
  // generation still on disk (generation 0 on a fresh dir).
  SnapshotFloor floor = snapshot_floor(options_.dir, gens);
  stats_.snapshots_skipped += floor.skipped;
  const std::uint64_t base_gen = floor.generation.value_or(
      gens.empty() ? 0 : gens.front().generation);
  std::uint64_t next_revision = floor.image.next_revision;
  std::uint64_t commit_seq = floor.image.commit_seq;
  ReplayState state = to_replay_state(std::move(floor.image));

  // Chain-replay journals from the base generation up. Each journal
  // contributes its longest checksum-valid frame prefix; the chain stops at
  // the first torn or missing journal (anything after it predates the torn
  // write and can only exist if the torn journal was mid-rotation, which
  // the generation protocol makes impossible — so stopping is exact). A
  // generation whose snapshot was still being written at the crash keeps
  // its journal, so the chain runs through it: from base g, a crash
  // mid-snapshot replays journals g and g+1.
  std::uint64_t g = base_gen;
  std::size_t valid_bytes = 0;  // of journal g; 0 = start it over
  bool torn = false;
  for (;; ++g) {
    const auto bytes = read_file(journal_path(g));
    if (!bytes) {
      // No journal for this generation, only a snapshot. A cut creates
      // the journal before the first slice creates the snapshot, so only
      // a directory written in the older order (snapshot file first, then
      // the journal) can hold this after a crash between the two. Appends
      // resume here: ensure_journal_open() below creates the journal.
      break;
    }
    // Each frame folds into the image as soon as it is decoded, so the
    // replay holds one decoded frame at a time, never the whole journal.
    const JournalScan scan = scan_journal(*bytes, [&](Frame&& frame) {
      for (auto& rec : frame.records) apply_record(state, std::move(rec));
      next_revision = frame.next_revision;
      commit_seq = frame.commit_seq;
    });
    stats_.frames_replayed += scan.frames;
    stats_.records_replayed += scan.records;
    valid_bytes = scan.header_valid ? scan.valid_bytes : 0;
    torn = scan.torn || !scan.header_valid;
    if (torn) break;
    // A clean journal ends the chain unless the next generation exists.
    if (!fs::exists(journal_path(g + 1), ec) &&
        !fs::exists(snapshot_path(g + 1), ec)) {
      break;
    }
  }

  // Truncate the torn tail, or empty a journal whose header is corrupt so
  // ensure_journal_open() writes a fresh one: appends continue from the
  // exact durable prefix.
  const std::string path = journal_path(g);
  if (valid_bytes == 0) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return common::Error::unavailable("persist: cannot reset " + path);
    }
  } else if (torn) {
    fs::resize_file(path, valid_bytes, ec);
    if (ec) {
      return common::Error::unavailable("persist: cannot truncate " + path +
                                        ": " + ec.message());
    }
    stats_.torn_frames_dropped += 1;
  }

  generation_ = g;
  // Everything replayed postdates the snapshot base, so it all counts
  // toward the next auto-snapshot.
  records_since_snapshot_ = stats_.records_replayed;
  failed_ = false;
  KN_TRY(ensure_journal_open());
  return to_image(std::move(state), next_revision, commit_seq);
}

std::size_t Engine::gc() {
  if (!opened_ || failed_) return 0;
  std::error_code ec;
  const std::vector<GenerationInfo> gens =
      list_generation_files(options_.dir, ec);
  // Reclaim below the same floor recover() loads as its base, so gc can
  // never remove a generation a recovery would still read.
  const std::optional<std::uint64_t> base =
      snapshot_floor(options_.dir, gens).generation;
  if (!base) return 0;
  std::size_t reclaimed = 0;
  for (const auto& gen : gens) {
    if (gen.generation >= *base) continue;
    if (fault_fires(CrashPoint::kTruncate)) {
      // Simulated crash mid-reclamation: the snapshot went away but the
      // journal survived. Recovery must still work off generation *base.
      fs::remove(snapshot_path(gen.generation), ec);
      failed_ = true;
      return reclaimed;
    }
    const bool removed_snapshot = fs::remove(snapshot_path(gen.generation), ec);
    const bool removed_journal = fs::remove(journal_path(gen.generation), ec);
    if (removed_snapshot || removed_journal) {
      reclaimed += 1;
      stats_.generations_reclaimed += 1;
    }
  }
  return reclaimed;
}

std::vector<GenerationInfo> Engine::inspect(const std::string& dir) {
  std::error_code ec;
  std::vector<GenerationInfo> gens = list_generation_files(dir, ec);
  for (GenerationInfo& info : gens) {
    if (info.has_journal) {
      if (const auto bytes = read_file(journal_file(dir, info.generation))) {
        const JournalScan scan = scan_journal(*bytes);
        info.journal_bytes = bytes->size();
        info.journal_valid_bytes = scan.header_valid ? scan.valid_bytes : 0;
        info.journal_frames = scan.frames;
        info.journal_records = scan.records;
        info.journal_torn = scan.torn || !scan.header_valid;
      } else {
        info.journal_torn = true;
      }
    }
    if (info.has_snapshot) {
      if (const auto bytes = read_file(snapshot_file(dir, info.generation))) {
        info.snapshot_bytes = bytes->size();
        if (const auto image = decode_snapshot(*bytes)) {
          info.snapshot_valid = true;
          info.snapshot_objects = image->object_count();
        }
      }
    }
  }
  return gens;
}

std::optional<std::uint64_t> Engine::recovery_base(
    const std::vector<GenerationInfo>& generations) {
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    if (it->has_snapshot && it->snapshot_valid) return it->generation;
  }
  return std::nullopt;
}

}  // namespace knactor::de::persist
