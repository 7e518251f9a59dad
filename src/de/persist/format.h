// Binary on-disk formats for the durable persistence tier (de/persist):
// CRC32 framing, a compact binary codec for common::Value, journal record
// and frame encoding, and snapshot payload encode/decode. Everything here
// is pure byte-level code — file handling lives in engine.{h,cpp}.
//
// Format invariants (see docs/PERSISTENCE.md):
//   * Multi-byte integers are little-endian, fixed width (the encoder
//     appends them as host words, so a big-endian host fails to build).
//   * A journal is a 16-byte header (magic "KJNL", format version,
//     generation) followed by frames: [u32 payload_len][u32 crc32(payload)]
//     [payload]. A reader accepts the longest prefix of checksum-valid
//     frames and ignores everything from the first invalid byte on.
//   * A frame payload is one atomic commit batch: [u32 record_count]
//     [records...][u64 next_revision][u64 commit_seq] — the kernel's
//     sequence counters *after* the batch, so recovery can restore the
//     exact stamp domains of any durable prefix. A batch is all-or-nothing
//     by construction (one checksum covers it), so a torn tail can never
//     split a transaction or an epoch.
//   * A snapshot is [magic "KSNP"][u32 version][u64 generation]
//     [u64 payload_len][u32 crc32(payload)][payload]; the payload carries
//     the kernel counters and every store's objects sorted by store name
//     and key, so identical state serializes to identical bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"

namespace knactor::de::persist {

inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kJournalHeaderBytes = 16;  // magic+version+gen
inline constexpr std::size_t kFrameHeaderBytes = 8;     // len+crc

inline constexpr std::size_t kSnapshotHeaderBytes = 28;  // magic..crc

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum on every
/// journal frame and snapshot payload. Slicing-by-8: eight table lookups
/// per 8-byte word.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes);
/// Streaming form: extends `crc`, the CRC-32 of a prefix, over the next
/// `bytes`. crc32_update(crc32(a), b) == crc32(a + b); crc32(x) is
/// crc32_update(0, x).
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc,
                                         std::string_view bytes);

// --- little-endian scalar / value append ----------------------------------

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_i64(std::string& out, std::int64_t v);
void put_string(std::string& out, std::string_view s);
/// Tagged binary encoding of a Value. Object fields keep insertion order,
/// so an encode/decode round trip is byte-faithful.
void put_value(std::string& out, const common::Value& v);

/// Bounded byte-stream reader used by all decoders. Never reads past the
/// buffer and reports malformed input instead of asserting — torn tails
/// and flipped bits are *expected* inputs here, not programming errors.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  bool get_u8(std::uint8_t* out);
  bool get_u32(std::uint32_t* out);
  bool get_u64(std::uint64_t* out);
  bool get_i64(std::int64_t* out);
  bool get_string(std::string* out);
  bool get_value(common::Value* out, int depth = 0);
  bool skip(std::size_t n);

  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - offset_;
  }
  [[nodiscard]] bool done() const { return offset_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t offset_ = 0;
};

// --- journal records -------------------------------------------------------

/// One journal record: a committed put (full object image, exact version
/// and timestamps) or a delete. Replay applies records directly to store
/// state, so recovered objects are byte-identical to what was committed.
struct Record {
  enum class Op : std::uint8_t { kPut = 1, kDelete = 2 };
  Op op = Op::kPut;
  std::string store;
  std::string key;
  std::uint64_t version = 0;
  std::int64_t created_at = 0;
  std::int64_t updated_at = 0;
  common::SharedValue data;  // kPut only
};

/// Encoders append to `out` so the epoch pipeline's commit loop can
/// serialize straight into per-op scratch buffers; the payload Value is
/// read through its shared_ptr handle (no deep copy).
void encode_put(std::string& out, const std::string& store,
                const std::string& key, std::uint64_t version,
                std::int64_t created_at, std::int64_t updated_at,
                const common::Value& data);
void encode_delete(std::string& out, const std::string& store,
                   const std::string& key);
bool decode_record(Cursor& in, Record* out);

// --- journal frames --------------------------------------------------------

/// Builds one checksum-framed commit batch from pre-encoded records.
/// `record_count` is explicit because callers may pass several records
/// concatenated in one view (the transaction flush path).
[[nodiscard]] std::string build_frame(
    const std::vector<std::string_view>& records, std::uint32_t record_count,
    std::uint64_t next_revision, std::uint64_t commit_seq);

[[nodiscard]] std::string build_journal_header(std::uint64_t generation);
/// Parses a journal header; nullopt when the magic, version, or length is
/// wrong (the whole journal is then treated as empty).
[[nodiscard]] std::optional<std::uint64_t> read_journal_header(
    std::string_view bytes);

/// One parsed frame with its end offset in the journal byte stream.
struct Frame {
  std::vector<Record> records;
  std::uint64_t next_revision = 0;
  std::uint64_t commit_seq = 0;
  std::size_t end_offset = 0;
};

/// Result of scanning a whole journal buffer: the longest checksum-valid
/// frame prefix. `valid_bytes` is where that prefix ends; `torn` reports
/// whether anything (an incomplete or corrupt tail) followed it.
struct JournalScan {
  bool header_valid = false;
  std::uint64_t generation = 0;
  std::uint64_t frames = 0;   // in the valid prefix
  std::uint64_t records = 0;  // in those frames
  std::size_t valid_bytes = 0;
  bool torn = false;
};
/// Hands each frame of the valid prefix to `visit` (if set) as soon as it
/// is decoded, so a caller folds one frame at a time; it may move out.
JournalScan scan_journal(std::string_view bytes,
                         const std::function<void(Frame&&)>& visit = {});

// --- snapshots -------------------------------------------------------------

/// Snapshot image of one object (mirrors de::StateObject without the
/// dependency, so tools can link the format layer alone).
struct ObjectImage {
  std::string key;
  std::uint64_t version = 0;
  std::int64_t created_at = 0;
  std::int64_t updated_at = 0;
  common::SharedValue data;
};
struct StoreImage {
  std::string name;
  std::vector<ObjectImage> objects;  // sorted by key
};
/// Full store state at a commit-seq boundary, plus the kernel counters at
/// that boundary. This is both the snapshot payload and what recovery
/// hands back after folding in the journal suffix.
struct Image {
  std::uint64_t next_revision = 1;
  std::uint64_t commit_seq = 1;
  std::vector<StoreImage> stores;  // sorted by name

  [[nodiscard]] std::uint64_t object_count() const;
};

[[nodiscard]] std::string encode_snapshot(const Image& image,
                                          std::uint64_t generation);

/// Encodes a snapshot payload in bounded slices: each encode_slice call
/// appends the bytes of at most `max_objects` more objects (the counters
/// and each store's name and count ride along) and folds them into the
/// running payload length and CRC. Once done(), header() is the file's
/// header for that payload. encode_snapshot is this run in one slice
/// after a placeholder header; the engine's sliced snapshot writes each
/// slice to disk as it goes. The image must outlive the encoder.
class SnapshotEncoder {
 public:
  explicit SnapshotEncoder(const Image& image) : image_(&image) {}

  /// Returns true once the whole payload has been appended.
  bool encode_slice(std::string& out, std::size_t max_objects);
  [[nodiscard]] bool done() const {
    return started_ && store_ == image_->stores.size();
  }
  [[nodiscard]] std::uint64_t objects_encoded() const { return objects_; }
  [[nodiscard]] std::uint64_t payload_bytes() const { return bytes_; }
  /// The kSnapshotHeaderBytes header (magic, version, generation, payload
  /// length and CRC) of the payload encoded so far.
  [[nodiscard]] std::string header(std::uint64_t generation) const;

 private:
  const Image* image_;
  bool started_ = false;   // counters and store count written
  std::size_t store_ = 0;  // cursor: next store...
  std::size_t object_ = 0; // ...and next object within it
  std::uint64_t objects_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint32_t crc_ = 0;
};

/// Header-only probe (no payload checksum verification).
struct SnapshotInfo {
  bool header_valid = false;
  std::uint64_t generation = 0;
  std::uint64_t payload_len = 0;
  bool complete = false;  // payload_len bytes actually present
};
[[nodiscard]] SnapshotInfo probe_snapshot(std::string_view bytes);

/// Checksum-verified decode; nullopt on any corruption (torn tail, bit
/// flip, malformed payload). A nullopt snapshot is skipped in favor of the
/// previous generation.
[[nodiscard]] std::optional<Image> decode_snapshot(std::string_view bytes);

}  // namespace knactor::de::persist
