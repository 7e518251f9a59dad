// Format-layer tests for the durable persistence tier (`ctest -L
// durable`): the CRC-32, the Value codec, journal records and frames, the
// journal scan and the snapshot codec. The byte fixture pins the exact
// on-disk bytes of every encoder over an image that covers every Value
// tag, so an encoder rewrite must reproduce them bit for bit. The CRC
// differential checks the word-at-a-time CRC (unaligned loads included)
// against a bytewise reference, and the sliced snapshot encoder must
// concatenate to the one-shot bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/value.h"
#include "de/persist/format.h"
#include "sim/random.h"

namespace knactor::de::persist {
namespace {

using common::Value;

// --- format layer ----------------------------------------------------------

TEST(PersistFormat, Crc32KnownVector) {
  // The IEEE CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(PersistFormat, ValueCodecRoundTripIsByteFaithful) {
  Value v = Value::object({
      {"null", Value(nullptr)},
      {"t", Value(true)},
      {"f", Value(false)},
      {"int", Value(static_cast<std::int64_t>(-42))},
      {"dbl", Value(3.25)},
      {"str", Value("hello")},
  });
  Value arr = Value::array();
  arr.as_array().push_back(Value(1));
  arr.as_array().push_back(Value("two"));
  arr.as_array().push_back(Value::object({{"nested", Value(3)}}));
  v.set("arr", std::move(arr));

  std::string bytes;
  put_value(bytes, v);
  Cursor in(bytes);
  Value decoded;
  ASSERT_TRUE(in.get_value(&decoded));
  EXPECT_TRUE(in.done());

  std::string again;
  put_value(again, decoded);
  EXPECT_EQ(bytes, again);  // byte-faithful: field order survives
}

TEST(PersistFormat, RecordRoundTrip) {
  std::string bytes;
  encode_put(bytes, "orders", "o-1", 17, 100, 200,
             Value::object({{"qty", Value(3)}}));
  encode_delete(bytes, "orders", "o-2");

  Cursor in(bytes);
  Record put;
  ASSERT_TRUE(decode_record(in, &put));
  EXPECT_EQ(put.op, Record::Op::kPut);
  EXPECT_EQ(put.store, "orders");
  EXPECT_EQ(put.key, "o-1");
  EXPECT_EQ(put.version, 17u);
  EXPECT_EQ(put.created_at, 100);
  EXPECT_EQ(put.updated_at, 200);
  ASSERT_NE(put.data, nullptr);
  EXPECT_EQ(put.data->as_object().find("qty")->as_int(), 3);

  Record del;
  ASSERT_TRUE(decode_record(in, &del));
  EXPECT_EQ(del.op, Record::Op::kDelete);
  EXPECT_EQ(del.key, "o-2");
  EXPECT_EQ(del.data, nullptr);
  EXPECT_TRUE(in.done());
}

TEST(PersistFormat, JournalScanWalksFrames) {
  std::string rec1;
  encode_put(rec1, "s", "a", 1, 0, 0, Value(1));
  std::string rec2;
  encode_delete(rec2, "s", "a");

  std::string journal = build_journal_header(3);
  journal += build_frame({rec1}, 1, 2, 2);
  journal += build_frame({rec2}, 1, 2, 3);

  std::vector<Frame> frames;
  JournalScan scan = scan_journal(
      journal, [&](Frame&& frame) { frames.push_back(std::move(frame)); });
  EXPECT_TRUE(scan.header_valid);
  EXPECT_EQ(scan.generation, 3u);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, journal.size());
  EXPECT_EQ(frames[0].records.size(), 1u);
  EXPECT_EQ(frames[1].records[0].op, Record::Op::kDelete);
  EXPECT_EQ(frames[1].next_revision, 2u);
  EXPECT_EQ(frames[1].commit_seq, 3u);
}

TEST(PersistFormat, TornTailStopsAtLastValidFrame) {
  std::string rec;
  encode_put(rec, "s", "a", 1, 0, 0, Value(1));
  std::string journal = build_journal_header(0);
  journal += build_frame({rec}, 1, 2, 2);
  const std::size_t valid = journal.size();
  std::string torn_frame = build_frame({rec}, 1, 3, 3);
  journal += torn_frame.substr(0, torn_frame.size() / 2);

  std::vector<Frame> frames;
  JournalScan scan = scan_journal(
      journal, [&](Frame&& frame) { frames.push_back(std::move(frame)); });
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, valid);
}

TEST(PersistFormat, BitFlipInvalidatesExactlyTheHitFrame) {
  std::string rec;
  encode_put(rec, "s", "a", 1, 0, 0, Value(1));
  std::string journal = build_journal_header(0);
  journal += build_frame({rec}, 1, 2, 2);
  const std::size_t first_end = journal.size();
  journal += build_frame({rec}, 1, 3, 3);
  journal[first_end + kFrameHeaderBytes + 2] ^= 0x40;  // payload of frame 2

  std::vector<Frame> frames;
  JournalScan scan = scan_journal(
      journal, [&](Frame&& frame) { frames.push_back(std::move(frame)); });
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, first_end);
}

TEST(PersistFormat, SnapshotRoundTrip) {
  Image image;
  image.next_revision = 42;
  image.commit_seq = 17;
  StoreImage store;
  store.name = "orders";
  ObjectImage obj;
  obj.key = "o-1";
  obj.version = 7;
  obj.created_at = 5;
  obj.updated_at = 9;
  obj.data = std::make_shared<const Value>(Value::object({{"x", Value(1)}}));
  store.objects.push_back(obj);
  image.stores.push_back(store);

  const std::string bytes = encode_snapshot(image, 4);
  SnapshotInfo info = probe_snapshot(bytes);
  EXPECT_TRUE(info.header_valid);
  EXPECT_TRUE(info.complete);
  EXPECT_EQ(info.generation, 4u);

  auto decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->next_revision, 42u);
  EXPECT_EQ(decoded->commit_seq, 17u);
  ASSERT_EQ(decoded->stores.size(), 1u);
  ASSERT_EQ(decoded->stores[0].objects.size(), 1u);
  EXPECT_EQ(decoded->stores[0].objects[0].version, 7u);
  // Identical state must serialize to identical bytes.
  EXPECT_EQ(encode_snapshot(*decoded, 4), bytes);
}

TEST(PersistFormat, CorruptSnapshotRejected) {
  Image image;
  std::string bytes = encode_snapshot(image, 1);
  EXPECT_TRUE(decode_snapshot(bytes).has_value());
  // Torn tail.
  EXPECT_FALSE(decode_snapshot(
                   std::string_view(bytes).substr(0, bytes.size() - 1))
                   .has_value());
  // Bit flip in the payload.
  std::string flipped = bytes;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  EXPECT_FALSE(decode_snapshot(flipped).has_value());
}


// --- byte fixture ----------------------------------------------------------

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0x0F]);
  }
  return out;
}

// One Value per tag and shape: null, both bools, a negative int, doubles
// (-0.0 among them), an empty string, a string with a NUL, an empty array,
// nested arrays, and nested (and empty) objects.
Value every_tag() {
  Value nested = Value::array();
  nested.as_array().push_back(Value::array({Value(1), Value::array({2})}));
  nested.as_array().push_back(Value::array());
  Value inner = Value::object();
  inner.set("empty", Value::object());
  inner.set("deep", Value::object({{"leaf", Value(-7)}}));
  Value v = Value::object();
  v.set("null", Value(nullptr));
  v.set("f", Value(false));
  v.set("t", Value(true));
  v.set("neg", Value(static_cast<std::int64_t>(-9007199254740993LL)));
  v.set("zero", Value(-0.0));
  v.set("dbl", Value(1.5e300));
  v.set("empty_str", Value(""));
  v.set("nul_str", Value(std::string("a\0b", 3)));
  v.set("empty_arr", Value::array());
  v.set("nested", std::move(nested));
  v.set("obj", std::move(inner));
  return v;
}

ObjectImage object_image(std::string key, std::uint64_t version,
                         std::int64_t created_at, std::int64_t updated_at,
                         common::SharedValue data) {
  ObjectImage obj;
  obj.key = std::move(key);
  obj.version = version;
  obj.created_at = created_at;
  obj.updated_at = updated_at;
  obj.data = std::move(data);
  return obj;
}

// Stores sorted by name, objects by key: an object with every tag, a null
// handle, a bare scalar, and an empty store.
Image fixture_image() {
  Image image;
  image.next_revision = 41;
  image.commit_seq = 23;
  StoreImage alpha;
  alpha.name = "alpha";
  alpha.objects.push_back(object_image(
      "a", 5, -3, 1700000000000000,
      std::make_shared<const Value>(every_tag())));
  alpha.objects.push_back(object_image("b", 6, 0, 0, nullptr));
  alpha.objects.push_back(object_image(
      "c", 40, 12, 34, std::make_shared<const Value>(Value("scalar"))));
  StoreImage empty;
  empty.name = "empty";
  image.stores.push_back(std::move(alpha));
  image.stores.push_back(std::move(empty));
  return image;
}

// Expected bytes, captured from the byte-at-a-time encoder that wrote the
// format before the bulk encoder replaced it.
constexpr std::string_view kPutHex =
    "0105000000616c70686101000000610500000000000000fdffffffffffffff00"
    "401e18240a0600070b000000040000006e756c6c000100000066010100000074"
    "02030000006e656703ffffffffffffdfff040000007a65726f04000000000000"
    "00800300000064626c04355800662deb417e09000000656d7074795f73747205"
    "00000000070000006e756c5f737472050300000061006209000000656d707479"
    "5f6172720600000000060000006e657374656406020000000602000000030100"
    "00000000000006010000000302000000000000000600000000030000006f626a"
    "070200000005000000656d707479070000000004000000646565700701000000"
    "040000006c65616603f9ffffffffffffff";
constexpr std::string_view kDeleteHex =
    "0205000000616c706861040000006b006579";
constexpr std::string_view kJournalHeaderHex =
    "4b4a4e4c010000000807060504030201";
constexpr std::string_view kFrameHex =
    "370100000ee6f28c020000000105000000616c70686101000000610500000000"
    "000000fdffffffffffffff00401e18240a0600070b000000040000006e756c6c"
    "00010000006601010000007402030000006e656703ffffffffffffdfff040000"
    "007a65726f0400000000000000800300000064626c04355800662deb417e0900"
    "0000656d7074795f7374720500000000070000006e756c5f7374720503000000"
    "61006209000000656d7074795f6172720600000000060000006e657374656406"
    "0200000006020000000301000000000000000601000000030200000000000000"
    "0600000000030000006f626a070200000005000000656d707479070000000004"
    "000000646565700701000000040000006c65616603f9ffffffffffffff020500"
    "0000616c706861040000006b00657929000000000000001700000000000000";
constexpr std::string_view kSnapshotHex =
    "4b534e500100000007000000000000007b01000000000000affad82529000000"
    "0000000017000000000000000200000005000000616c70686103000000010000"
    "00610500000000000000fdffffffffffffff00401e18240a0600070b00000004"
    "0000006e756c6c00010000006601010000007402030000006e656703ffffffff"
    "ffffdfff040000007a65726f0400000000000000800300000064626c04355800"
    "662deb417e09000000656d7074795f7374720500000000070000006e756c5f73"
    "7472050300000061006209000000656d7074795f617272060000000006000000"
    "6e65737465640602000000060200000003010000000000000006010000000302"
    "000000000000000600000000030000006f626a070200000005000000656d7074"
    "79070000000004000000646565700701000000040000006c65616603f9ffffff"
    "ffffffff01000000620600000000000000000000000000000000000000000000"
    "0000010000006328000000000000000c00000000000000220000000000000005"
    "060000007363616c617205000000656d70747900000000";

std::string fixture_put() {
  std::string out;
  encode_put(out, "alpha", "a", 5, -3, 1700000000000000, every_tag());
  return out;
}

std::string fixture_delete() {
  std::string out;
  encode_delete(out, "alpha", std::string("k\0ey", 4));
  return out;
}

TEST(PersistFormatFixture, EncodersWriteThePinnedBytes) {
  EXPECT_EQ(to_hex(fixture_put()), kPutHex);
  EXPECT_EQ(to_hex(fixture_delete()), kDeleteHex);
  EXPECT_EQ(to_hex(build_journal_header(0x0102030405060708ULL)),
            kJournalHeaderHex);
  const std::string put = fixture_put();
  const std::string del = fixture_delete();
  EXPECT_EQ(to_hex(build_frame({put, del}, 2, 41, 23)), kFrameHex);
  EXPECT_EQ(to_hex(encode_snapshot(fixture_image(), 7)), kSnapshotHex);
}

TEST(PersistFormatFixture, PinnedBytesDecodeBackToTheImage) {
  const std::string put = fixture_put();
  const std::string del = fixture_delete();
  std::string journal = build_journal_header(0x0102030405060708ULL);
  journal += build_frame({put, del}, 2, 41, 23);
  std::vector<Frame> frames;
  const JournalScan scan = scan_journal(
      journal, [&](Frame&& frame) { frames.push_back(std::move(frame)); });
  ASSERT_TRUE(scan.header_valid);
  EXPECT_EQ(scan.generation, 0x0102030405060708ULL);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(frames.size(), 1u);
  const Frame& frame = frames[0];
  EXPECT_EQ(frame.next_revision, 41u);
  EXPECT_EQ(frame.commit_seq, 23u);
  ASSERT_EQ(frame.records.size(), 2u);
  const Record& rec = frame.records[0];
  EXPECT_EQ(rec.op, Record::Op::kPut);
  EXPECT_EQ(rec.store, "alpha");
  EXPECT_EQ(rec.key, "a");
  EXPECT_EQ(rec.version, 5u);
  EXPECT_EQ(rec.created_at, -3);
  EXPECT_EQ(rec.updated_at, 1700000000000000);
  ASSERT_NE(rec.data, nullptr);
  EXPECT_EQ(*rec.data, every_tag());
  EXPECT_EQ(frame.records[1].op, Record::Op::kDelete);
  EXPECT_EQ(frame.records[1].key, std::string("k\0ey", 4));

  const Image want = fixture_image();
  const auto got = decode_snapshot(encode_snapshot(want, 7));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->next_revision, want.next_revision);
  EXPECT_EQ(got->commit_seq, want.commit_seq);
  ASSERT_EQ(got->stores.size(), want.stores.size());
  for (std::size_t s = 0; s < want.stores.size(); ++s) {
    const StoreImage& a = got->stores[s];
    const StoreImage& b = want.stores[s];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.objects.size(), b.objects.size());
    for (std::size_t i = 0; i < b.objects.size(); ++i) {
      EXPECT_EQ(a.objects[i].key, b.objects[i].key);
      EXPECT_EQ(a.objects[i].version, b.objects[i].version);
      EXPECT_EQ(a.objects[i].created_at, b.objects[i].created_at);
      EXPECT_EQ(a.objects[i].updated_at, b.objects[i].updated_at);
      ASSERT_NE(a.objects[i].data, nullptr);
      // A null handle encodes as a null Value.
      const Value expected =
          b.objects[i].data ? *b.objects[i].data : Value(nullptr);
      EXPECT_EQ(*a.objects[i].data, expected);
    }
  }
  // -0.0 keeps its sign bit through the codec.
  const Value* zero =
      got->stores[0].objects[0].data->as_object().find("zero");
  ASSERT_NE(zero, nullptr);
  EXPECT_TRUE(std::signbit(zero->as_double()));
}


// --- CRC differential ------------------------------------------------------

// Bytewise reference: one bit per step, no tables, so it shares nothing
// with the word-at-a-time implementation under test.
std::uint32_t reference_crc32(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (unsigned char byte : bytes) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.next_below(256));
  return out;
}

TEST(PersistCrc, EveryLengthAtEveryOffsetMatchesTheBytewiseReference) {
  const std::string buffer = random_bytes(256 + 8, 11);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::string_view view =
          std::string_view(buffer).substr(offset, len);
      ASSERT_EQ(crc32(view), reference_crc32(view))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(PersistCrc, OneMegabyteMatchesTheBytewiseReference) {
  const std::string buffer = random_bytes(1 << 20, 12);
  EXPECT_EQ(crc32(buffer), reference_crc32(buffer));
  // A single flipped bit changes the checksum.
  std::string flipped = buffer;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_NE(crc32(flipped), crc32(buffer));
}

TEST(PersistCrc, StreamingOverAnySplitEqualsOneShot) {
  const std::string small = random_bytes(300, 13);
  const std::uint32_t whole = crc32(small);
  for (std::size_t cut = 0; cut <= small.size(); ++cut) {
    const std::string_view view(small);
    ASSERT_EQ(crc32_update(crc32(view.substr(0, cut)), view.substr(cut)),
              whole)
        << "split at " << cut;
  }
  // Random multi-way splits of a larger buffer, chunks of any alignment.
  const std::string big = random_bytes(1 << 16, 14);
  const std::uint32_t big_whole = crc32(big);
  sim::Rng rng(15);
  for (int trial = 0; trial < 64; ++trial) {
    std::uint32_t crc = 0;
    std::size_t at = 0;
    while (at < big.size()) {
      const std::size_t len = std::min<std::size_t>(
          big.size() - at, rng.next_below(trial % 2 == 0 ? 17 : 4099));
      crc = crc32_update(crc, std::string_view(big).substr(at, len));
      at += len;
    }
    ASSERT_EQ(crc, big_whole) << "trial " << trial;
  }
}

// --- sliced snapshot encoder -------------------------------------------------

TEST(PersistSnapshotEncoder, SlicesConcatenateToTheOneShotBytes) {
  Image image = fixture_image();
  // A second multi-object store and a trailing empty one, so slice
  // boundaries land inside stores, on store edges and on empty stores.
  StoreImage many;
  many.name = "many";
  for (int i = 0; i < 10; ++i) {
    many.objects.push_back(object_image(
        "k" + std::to_string(i), static_cast<std::uint64_t>(i) + 1, i, i,
        std::make_shared<const Value>(Value::object({{"i", Value(i)}}))));
  }
  image.stores.push_back(std::move(many));
  StoreImage tail;
  tail.name = "zz";
  image.stores.push_back(std::move(tail));

  const std::string want = encode_snapshot(image, 9);
  for (std::size_t per_slice = 1; per_slice <= 14; ++per_slice) {
    SnapshotEncoder encoder(image);
    std::string payload;
    std::size_t slices = 0;
    while (!encoder.encode_slice(payload, per_slice)) ++slices;
    ++slices;
    EXPECT_EQ(slices, (image.object_count() + per_slice - 1) / per_slice)
        << per_slice << " objects per slice";
    EXPECT_EQ(encoder.objects_encoded(), image.object_count());
    EXPECT_EQ(encoder.header(9) + payload, want)
        << per_slice << " objects per slice";
  }
}

}  // namespace
}  // namespace knactor::de::persist
