#include "de/persist/format.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

namespace knactor::de::persist {

using common::Value;

namespace {

constexpr std::array<char, 4> kJournalMagic = {'K', 'J', 'N', 'L'};
constexpr std::array<char, 4> kSnapshotMagic = {'K', 'S', 'N', 'P'};

// Nesting bound for the Value decoder. CRC validation means decode only
// ever sees bytes we wrote, but the checksum is 32 bits — a colliding
// corruption must degrade to a decode error, never to unbounded recursion.
constexpr int kMaxValueDepth = 128;

static_assert(std::endian::native == std::endian::little,
              "persist appends integers as host words and the CRC loads "
              "little-endian words; a big-endian host needs a byteswap");

// Slicing-by-8 tables: table[0] is the bytewise CRC table, and table[k][b]
// is the CRC of byte b followed by k zero bytes, so one 8-byte word costs
// eight independent lookups instead of eight dependent steps.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}
constexpr CrcTables kCrc = make_crc_tables();

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_u32(char* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }

// Value type tags. Bool splits into two tags so the payload is tag-only.
enum : std::uint8_t {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagArray = 6,
  kTagObject = 7,
};

}  // namespace

std::uint32_t crc32(std::string_view bytes) { return crc32_update(0, bytes); }

std::uint32_t crc32_update(std::uint32_t crc, std::string_view bytes) {
  std::uint32_t c = ~crc;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_u32(p) ^ c;
    const std::uint32_t hi = load_u32(p + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kCrc[0][(c ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_value(std::string& out, const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      out.push_back(static_cast<char>(kTagNull));
      break;
    case Value::Type::kBool:
      out.push_back(static_cast<char>(v.as_bool() ? kTagTrue : kTagFalse));
      break;
    case Value::Type::kInt:
      out.push_back(static_cast<char>(kTagInt));
      put_i64(out, v.as_int());
      break;
    case Value::Type::kDouble:
      out.push_back(static_cast<char>(kTagDouble));
      put_u64(out, std::bit_cast<std::uint64_t>(v.as_double()));
      break;
    case Value::Type::kString:
      out.push_back(static_cast<char>(kTagString));
      put_string(out, v.as_string());
      break;
    case Value::Type::kArray: {
      out.push_back(static_cast<char>(kTagArray));
      put_u32(out, static_cast<std::uint32_t>(v.as_array().size()));
      for (const Value& item : v.as_array()) put_value(out, item);
      break;
    }
    case Value::Type::kObject: {
      out.push_back(static_cast<char>(kTagObject));
      put_u32(out, static_cast<std::uint32_t>(v.as_object().size()));
      for (const auto& [key, field] : v.as_object()) {
        put_string(out, key);
        put_value(out, field);
      }
      break;
    }
  }
}

bool Cursor::get_u8(std::uint8_t* out) {
  if (remaining() < 1) return false;
  *out = static_cast<std::uint8_t>(static_cast<unsigned char>(bytes_[offset_]));
  ++offset_;
  return true;
}

bool Cursor::get_u32(std::uint32_t* out) {
  if (remaining() < 4) return false;
  *out = load_u32(bytes_.data() + offset_);
  offset_ += 4;
  return true;
}

bool Cursor::get_u64(std::uint64_t* out) {
  if (remaining() < 8) return false;
  std::memcpy(out, bytes_.data() + offset_, sizeof *out);
  offset_ += 8;
  return true;
}

bool Cursor::get_i64(std::int64_t* out) {
  std::uint64_t v = 0;
  if (!get_u64(&v)) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

bool Cursor::get_string(std::string* out) {
  std::uint32_t len = 0;
  if (!get_u32(&len)) return false;
  if (remaining() < len) return false;
  out->assign(bytes_.data() + offset_, len);
  offset_ += len;
  return true;
}

bool Cursor::get_value(Value* out, int depth) {
  if (depth > kMaxValueDepth) return false;
  if (remaining() < 1) return false;
  const auto tag = static_cast<unsigned char>(bytes_[offset_++]);
  switch (tag) {
    case kTagNull:
      *out = Value(nullptr);
      return true;
    case kTagFalse:
      *out = Value(false);
      return true;
    case kTagTrue:
      *out = Value(true);
      return true;
    case kTagInt: {
      std::int64_t v = 0;
      if (!get_i64(&v)) return false;
      *out = Value(v);
      return true;
    }
    case kTagDouble: {
      std::uint64_t bits = 0;
      if (!get_u64(&bits)) return false;
      *out = Value(std::bit_cast<double>(bits));
      return true;
    }
    case kTagString: {
      std::string s;
      if (!get_string(&s)) return false;
      *out = Value(std::move(s));
      return true;
    }
    case kTagArray: {
      std::uint32_t count = 0;
      if (!get_u32(&count)) return false;
      if (count > remaining()) return false;  // every item is >= 1 byte
      Value::Array items;
      items.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        Value item;
        if (!get_value(&item, depth + 1)) return false;
        items.push_back(std::move(item));
      }
      *out = Value(std::move(items));
      return true;
    }
    case kTagObject: {
      std::uint32_t count = 0;
      if (!get_u32(&count)) return false;
      if (count > remaining()) return false;  // every entry is >= 5 bytes
      Value obj = Value::object();
      for (std::uint32_t i = 0; i < count; ++i) {
        std::string key;
        Value field;
        if (!get_string(&key)) return false;
        if (!get_value(&field, depth + 1)) return false;
        obj.set(std::move(key), std::move(field));
      }
      *out = std::move(obj);
      return true;
    }
    default:
      return false;
  }
}

bool Cursor::skip(std::size_t n) {
  if (remaining() < n) return false;
  offset_ += n;
  return true;
}

void encode_put(std::string& out, const std::string& store,
                const std::string& key, std::uint64_t version,
                std::int64_t created_at, std::int64_t updated_at,
                const Value& data) {
  out.push_back(static_cast<char>(Record::Op::kPut));
  put_string(out, store);
  put_string(out, key);
  put_u64(out, version);
  put_i64(out, created_at);
  put_i64(out, updated_at);
  put_value(out, data);
}

void encode_delete(std::string& out, const std::string& store,
                   const std::string& key) {
  out.push_back(static_cast<char>(Record::Op::kDelete));
  put_string(out, store);
  put_string(out, key);
}

bool decode_record(Cursor& in, Record* out) {
  std::uint8_t op = 0;
  if (!in.get_u8(&op)) return false;
  if (op != static_cast<std::uint8_t>(Record::Op::kPut) &&
      op != static_cast<std::uint8_t>(Record::Op::kDelete)) {
    return false;
  }
  out->op = static_cast<Record::Op>(op);
  if (!in.get_string(&out->store)) return false;
  if (!in.get_string(&out->key)) return false;
  if (out->op == Record::Op::kDelete) {
    out->version = 0;
    out->created_at = 0;
    out->updated_at = 0;
    out->data = nullptr;
    return true;
  }
  if (!in.get_u64(&out->version)) return false;
  if (!in.get_i64(&out->created_at)) return false;
  if (!in.get_i64(&out->updated_at)) return false;
  Value data;
  if (!in.get_value(&data)) return false;
  out->data = std::make_shared<const Value>(std::move(data));
  return true;
}

std::string build_frame(const std::vector<std::string_view>& records,
                        std::uint32_t record_count,
                        std::uint64_t next_revision,
                        std::uint64_t commit_seq) {
  // Header first with len/crc placeholders, patched once the payload is in.
  std::size_t bytes = kFrameHeaderBytes + 4 + 16;
  for (std::string_view rec : records) bytes += rec.size();
  std::string frame;
  frame.reserve(bytes);
  frame.resize(kFrameHeaderBytes);
  put_u32(frame, record_count);
  for (std::string_view rec : records) frame.append(rec);
  put_u64(frame, next_revision);
  put_u64(frame, commit_seq);
  const std::string_view payload =
      std::string_view(frame).substr(kFrameHeaderBytes);
  store_u32(frame.data(), static_cast<std::uint32_t>(payload.size()));
  store_u32(frame.data() + 4, crc32(payload));
  return frame;
}

std::string build_journal_header(std::uint64_t generation) {
  std::string header;
  header.reserve(kJournalHeaderBytes);
  header.append(kJournalMagic.data(), kJournalMagic.size());
  put_u32(header, kFormatVersion);
  put_u64(header, generation);
  return header;
}

std::optional<std::uint64_t> read_journal_header(std::string_view bytes) {
  if (bytes.size() < kJournalHeaderBytes) return std::nullopt;
  if (bytes.compare(0, 4, kJournalMagic.data(), 4) != 0) return std::nullopt;
  Cursor in(bytes.substr(4));
  std::uint32_t version = 0;
  std::uint64_t generation = 0;
  if (!in.get_u32(&version) || version != kFormatVersion) return std::nullopt;
  if (!in.get_u64(&generation)) return std::nullopt;
  return generation;
}

JournalScan scan_journal(std::string_view bytes,
                         const std::function<void(Frame&&)>& visit) {
  JournalScan scan;
  auto generation = read_journal_header(bytes);
  if (!generation.has_value()) {
    scan.torn = !bytes.empty();
    return scan;
  }
  scan.header_valid = true;
  scan.generation = *generation;
  std::size_t offset = kJournalHeaderBytes;
  while (offset < bytes.size()) {
    Cursor header(bytes.substr(offset));
    std::uint32_t payload_len = 0;
    std::uint32_t payload_crc = 0;
    if (!header.get_u32(&payload_len) || !header.get_u32(&payload_crc)) break;
    if (bytes.size() - offset - kFrameHeaderBytes < payload_len) break;
    std::string_view payload =
        bytes.substr(offset + kFrameHeaderBytes, payload_len);
    if (crc32(payload) != payload_crc) break;
    Frame frame;
    Cursor in(payload);
    std::uint32_t count = 0;
    bool ok = in.get_u32(&count) && count <= payload.size();
    if (ok) {
      frame.records.reserve(count);
      for (std::uint32_t i = 0; i < count && ok; ++i) {
        Record rec;
        ok = decode_record(in, &rec);
        if (ok) frame.records.push_back(std::move(rec));
      }
    }
    ok = ok && in.get_u64(&frame.next_revision) &&
         in.get_u64(&frame.commit_seq) && in.done();
    if (!ok) break;  // checksum collided with a malformed payload
    offset += kFrameHeaderBytes + payload_len;
    frame.end_offset = offset;
    scan.frames += 1;
    scan.records += frame.records.size();
    if (visit) visit(std::move(frame));
  }
  scan.valid_bytes = offset;
  scan.torn = scan.valid_bytes < bytes.size();
  return scan;
}

std::uint64_t Image::object_count() const {
  std::uint64_t n = 0;
  for (const StoreImage& store : stores) n += store.objects.size();
  return n;
}

bool SnapshotEncoder::encode_slice(std::string& out,
                                   std::size_t max_objects) {
  const std::size_t start = out.size();
  if (!started_) {
    put_u64(out, image_->next_revision);
    put_u64(out, image_->commit_seq);
    put_u32(out, static_cast<std::uint32_t>(image_->stores.size()));
    started_ = true;
  }
  std::size_t budget = max_objects;
  for (; store_ < image_->stores.size(); ++store_, object_ = 0) {
    const StoreImage& store = image_->stores[store_];
    if (object_ == 0) {
      // A store's name and count go out with its first object (an empty
      // store's right away), so a slice boundary never splits them.
      if (budget == 0 && !store.objects.empty()) break;
      put_string(out, store.name);
      put_u32(out, static_cast<std::uint32_t>(store.objects.size()));
    }
    const std::size_t end =
        object_ + std::min(budget, store.objects.size() - object_);
    budget -= end - object_;
    objects_ += end - object_;
    for (; object_ < end; ++object_) {
      const ObjectImage& obj = store.objects[object_];
      put_string(out, obj.key);
      put_u64(out, obj.version);
      put_i64(out, obj.created_at);
      put_i64(out, obj.updated_at);
      // A null handle encodes as the null tag; dereferencing the handle
      // (never a temporary Value) keeps the payload uncopied.
      if (obj.data) {
        put_value(out, *obj.data);
      } else {
        out.push_back(static_cast<char>(kTagNull));
      }
    }
    if (object_ < store.objects.size()) break;  // budget spent mid-store
  }
  const std::string_view added = std::string_view(out).substr(start);
  bytes_ += added.size();
  crc_ = crc32_update(crc_, added);
  return done();
}

std::string SnapshotEncoder::header(std::uint64_t generation) const {
  std::string out;
  out.reserve(kSnapshotHeaderBytes);
  out.append(kSnapshotMagic.data(), kSnapshotMagic.size());
  put_u32(out, kFormatVersion);
  put_u64(out, generation);
  put_u64(out, bytes_);
  put_u32(out, crc_);
  return out;
}

std::string encode_snapshot(const Image& image, std::uint64_t generation) {
  // Header placeholder first, patched in place once the payload is in.
  std::string out(kSnapshotHeaderBytes, '\0');
  SnapshotEncoder encoder(image);
  // The first object's size sizes the buffer for the rest (+1/8 slack).
  encoder.encode_slice(out, 1);
  const std::uint64_t encoded = encoder.objects_encoded();
  if (encoded > 0) {
    const std::uint64_t per_object = encoder.payload_bytes() / encoded;
    const std::uint64_t rest = image.object_count() - encoded;
    out.reserve(out.size() + rest * per_object + rest * per_object / 8 + 64);
  }
  encoder.encode_slice(out, std::numeric_limits<std::size_t>::max());
  out.replace(0, kSnapshotHeaderBytes, encoder.header(generation));
  return out;
}

SnapshotInfo probe_snapshot(std::string_view bytes) {
  SnapshotInfo info;
  if (bytes.size() < kSnapshotHeaderBytes) return info;
  if (bytes.compare(0, 4, kSnapshotMagic.data(), 4) != 0) return info;
  Cursor in(bytes.substr(4));
  std::uint32_t version = 0;
  std::uint32_t crc = 0;
  if (!in.get_u32(&version) || version != kFormatVersion) return info;
  if (!in.get_u64(&info.generation)) return info;
  if (!in.get_u64(&info.payload_len)) return info;
  if (!in.get_u32(&crc)) return info;
  info.header_valid = true;
  info.complete = bytes.size() - kSnapshotHeaderBytes >= info.payload_len;
  return info;
}

std::optional<Image> decode_snapshot(std::string_view bytes) {
  SnapshotInfo info = probe_snapshot(bytes);
  if (!info.header_valid || !info.complete) return std::nullopt;
  std::string_view payload =
      bytes.substr(kSnapshotHeaderBytes, info.payload_len);
  Cursor crc_check(bytes.substr(24));
  std::uint32_t expected_crc = 0;
  if (!crc_check.get_u32(&expected_crc)) return std::nullopt;
  if (crc32(payload) != expected_crc) return std::nullopt;

  Image image;
  Cursor in(payload);
  std::uint32_t store_count = 0;
  if (!in.get_u64(&image.next_revision)) return std::nullopt;
  if (!in.get_u64(&image.commit_seq)) return std::nullopt;
  if (!in.get_u32(&store_count) || store_count > payload.size()) {
    return std::nullopt;
  }
  image.stores.reserve(store_count);
  for (std::uint32_t s = 0; s < store_count; ++s) {
    StoreImage store;
    std::uint32_t object_count = 0;
    if (!in.get_string(&store.name)) return std::nullopt;
    if (!in.get_u32(&object_count) || object_count > in.remaining()) {
      return std::nullopt;
    }
    store.objects.reserve(object_count);
    for (std::uint32_t i = 0; i < object_count; ++i) {
      ObjectImage obj;
      Value data;
      if (!in.get_string(&obj.key)) return std::nullopt;
      if (!in.get_u64(&obj.version)) return std::nullopt;
      if (!in.get_i64(&obj.created_at)) return std::nullopt;
      if (!in.get_i64(&obj.updated_at)) return std::nullopt;
      if (!in.get_value(&data)) return std::nullopt;
      obj.data = std::make_shared<const Value>(std::move(data));
      store.objects.push_back(std::move(obj));
    }
    image.stores.push_back(std::move(store));
  }
  if (!in.done()) return std::nullopt;
  return image;
}

}  // namespace knactor::de::persist
