// Differential equivalence suite for operator consolidation: the fused
// plan (de/plan.h) and the unfused plan (one stage per operator, no scan
// hints: the naive side of the ablation) must both reproduce the results
// of the reference one-pass-per-operator executor over
//   (a) 120 seeded random logs x random pipelines,
//   (b) 40 seeded logs x 4 pipelines executed through LogPool::query
//       (which adds head/tail scan push-down and early-stop), and
//   (c) every Sync pipeline declared in specs/, with records shaped by
//       the schemas' field types (sync_analysis schema flow).
// The reference executor ran each operator as its own pass over deep
// copies. It was deleted once the unfused plan replaced it; what it
// returned on every case here is kept as an FNV-1a-64 digest of "ok" or
// "error" plus one JSON line per output record (kInMemoryGolden,
// kPoolGolden, kSpecGolden), captured before the deletion. A digest that
// moves means a plan's results changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/sync_analysis.h"
#include "common/cow.h"
#include "common/json.h"
#include "de/log.h"
#include "de/plan.h"
#include "de/query.h"
#include "de/schema.h"
#include "sim/clock.h"

namespace knactor::de {
namespace {

using common::CowValue;
using common::Result;
using common::Value;

// ---------------------------------------------------------------------------
// Random log + pipeline generation. Expressions are drawn from a total
// pool (they evaluate without error on every generated record), because
// head push-down may legitimately skip records whose evaluation would
// error — equivalence is only promised for total pipelines.
// ---------------------------------------------------------------------------

Value random_record(std::mt19937& rng) {
  std::uniform_int_distribution<int> coin(0, 9);
  if (coin(rng) == 0) {
    // Non-object records exercise the skip semantics of rename/project/...
    return coin(rng) < 5 ? Value(static_cast<std::int64_t>(coin(rng)))
                         : Value("scalar");
  }
  Value v = Value::object();
  std::uniform_int_distribution<std::int64_t> num(0, 20);
  if (coin(rng) < 8) v.set("a", Value(num(rng)));
  if (coin(rng) < 8) v.set("b", Value(num(rng)));
  if (coin(rng) < 7) {
    static const char* kStrings[] = {"x", "y", "z", "w"};
    v.set("s", Value(kStrings[coin(rng) % 4]));
  }
  if (coin(rng) < 5) v.set("flag", Value(coin(rng) % 2 == 0));
  if (coin(rng) < 4) v.set("c", Value(static_cast<double>(num(rng)) / 3.0));
  return v;
}

LogOp random_op(std::mt19937& rng) {
  std::uniform_int_distribution<int> pick(0, 8);
  std::uniform_int_distribution<std::size_t> n(0, 10);
  switch (pick(rng)) {
    case 0: {
      static const char* kFilters[] = {"a != null", "b == 1", "flag == true",
                                       "s == \"x\"", "a != b"};
      return LogOp::filter(kFilters[n(rng) % 5]).value();
    }
    case 1:
      return n(rng) % 2 == 0 ? LogOp::rename({{"a", "x"}})
                             : LogOp::rename({{"b", "y"}, {"s", "t"}});
    case 2:
      return n(rng) % 2 == 0 ? LogOp::project({"a", "b", "s"})
                             : LogOp::project({"x", "b", "flag"});
    case 3:
      return n(rng) % 2 == 0 ? LogOp::drop({"c"}) : LogOp::drop({"a", "flag"});
    case 4:
      return LogOp::sort(n(rng) % 2 == 0 ? "b" : "s", n(rng) % 2 == 0);
    case 5:
      return LogOp::head(n(rng));
    case 6:
      return LogOp::tail(n(rng));
    case 7:
      return LogOp::aggregate({"s"}, {{"cnt", {"count", ""}},
                                      {"mx", {"max", "b"}}});
    default: {
      static const char* kMaps[] = {"b", "1 + 1", "s"};
      return LogOp::map("m", kMaps[n(rng) % 3]).value();
    }
  }
}

LogQuery random_pipeline(std::mt19937& rng) {
  std::uniform_int_distribution<int> len(0, 6);
  LogQuery q;
  int ops = len(rng);
  for (int i = 0; i < ops; ++i) q.push_back(random_op(rng));
  return q;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The oracle's observation of one result: ok/error, then the output.
std::uint64_t digest(const Result<std::vector<CowValue>>& r) {
  std::string obs = r.ok() ? "ok" : "error";
  if (r.ok()) {
    for (const auto& rec : r.value()) {
      obs += '\n';
      obs += common::to_json(*rec);
    }
  }
  return fnv1a64(obs);
}

std::vector<CowValue> handles(const std::vector<Value>& records) {
  return {records.begin(), records.end()};
}

/// Runs `q` unfused and fused over `records`; both must digest to `want`.
void expect_golden(const LogQuery& q, const std::vector<Value>& records,
                   std::uint64_t want, const std::string& what) {
  auto unfused = run_plan(plan_query(q, /*fuse=*/false), handles(records));
  auto fused = run_plan(plan_query(q), handles(records));
  EXPECT_EQ(digest(unfused), want)
      << what << ": unfused plan digests to " << hex(digest(unfused));
  EXPECT_EQ(digest(fused), want)
      << what << ": fused plan digests to " << hex(digest(fused));
}

// Captured from the reference executor, indexed by seed.
constexpr std::uint64_t kInMemoryGolden[120] = {
    0x8ece3f2f0adb3e77, 0x6467b208f4644ece, 0x9bce5400c6789a9d,
    0x98109975b0d7f6aa, 0x9bce5400c6789a9d, 0xd364fdef3c71b090,
    0x20bc81aa614236bc, 0x9bce5400c6789a9d, 0x3378c149652affaa,
    0x0ca57e37b7a6515c, 0x346a1ef7e3853e8c, 0x0227ea36619ef5a9,
    0x837d3bc5dc987de6, 0x7226f2082a20ff39, 0x19c9f655f7c70498,
    0xb24eeb3a822a51a3, 0x6557c658ebdc771c, 0x6f3f15e5ed68e7d7,
    0x9bce5400c6789a9d, 0xe57596522f06218a, 0x9bce5400c6789a9d,
    0x9bce5400c6789a9d, 0xf9ab3c9cc0816b8a, 0x9c56d1388e6e16d6,
    0x7b6cf323a8429ce7, 0x9bce5400c6789a9d, 0x6a622e2570d5a8ad,
    0x9bce5400c6789a9d, 0xa5930c1702489b05, 0x05e457b0ea27917b,
    0x0ae2e56bac0bf323, 0x4f1bdeea458313e7, 0xc3b58169971513be,
    0x06aef91055ccf892, 0xc25a5b04dcab3c92, 0xace0825941d6359b,
    0x69fc60d021c3d5cf, 0x9bce5400c6789a9d, 0x3274055f65d5ec6d,
    0x9bce5400c6789a9d, 0x6462151dbb1251b1, 0x3cbe13cc66e34997,
    0x78a7fd353c3e8768, 0x9bce5400c6789a9d, 0x9bce5400c6789a9d,
    0x07f439992a74e1a5, 0xf148af1bad0178db, 0x196f0bbd0b7b9284,
    0xae0278f2fb936cf3, 0x639cd7a15e5d6d1d, 0x61e4946b863ec37f,
    0x19b7b0cfa5c6b7a1, 0x16f8fe386dcb31c1, 0xe8256304934bb149,
    0xb69c902ba1d06042, 0x82ffdacce9f64ee0, 0x04bdcaea6ca2db33,
    0x4899f4b3eb6a043b, 0x80716fbff405e815, 0x9bce5400c6789a9d,
    0x96c7b89f07670702, 0x9bce5400c6789a9d, 0x04b1f2f307122660,
    0x9bce5400c6789a9d, 0x53f74f6f78896170, 0x9bce5400c6789a9d,
    0x9bce5400c6789a9d, 0x66acc0afa0d9f234, 0x19720bbd0b7dc85b,
    0xc4ac490e0ba1fbb9, 0x9a4376c95149456a, 0x481130d289dd803d,
    0xf7ec8faa615bc851, 0xf166100a6ca72290, 0x9bce5400c6789a9d,
    0xacfb55caa1815b6d, 0xf2955657693ec5b9, 0x8bb43c759f68df75,
    0x9bce5400c6789a9d, 0xedf0d107df75de77, 0x8ebe133429a5b4b7,
    0xef8acc6c8ec67b42, 0xaac6bd4b82230eca, 0x3a94259265f14c3b,
    0xa7bb339d1e73d693, 0x18d4f8050c0a64f0, 0x2e910e4b789a3006,
    0x9bce5400c6789a9d, 0x0ad7e3536769c9b7, 0xff03f15543890224,
    0x5bb01b02a2e8b53f, 0x2dcf761682546e14, 0x977387488d3f25db,
    0x9bce5400c6789a9d, 0x99f90f786d67b325, 0x6830381337b541cf,
    0xac796f6af45899c2, 0x9bce5400c6789a9d, 0x8bc97316b19e4e79,
    0x93b5f836426a159a, 0xfdb70fd4219a4a2f, 0xe24f72e705096db4,
    0xae03c70102a22ebe, 0xd49e5b227579621f, 0x23fa96ec10033fb7,
    0x1e9a4750966a6dbd, 0x92c8cddea67e1b99, 0x53be9343442de257,
    0xda7f63733e208d5b, 0x9bce5400c6789a9d, 0xe2d31e8304a920cf,
    0x7a4ab0d80075777a, 0x42ea2024625d7d6d, 0x9bce5400c6789a9d,
    0x48adf4845d2334af, 0x9bce5400c6789a9d, 0x67406a47f7a3b60e,
    0xdf4bc058d7f5c91e, 0x9bce5400c6789a9d, 0xefebfc9013a7392c,
};

TEST(ConsolidationEquivalence, RandomLogsInMemory) {
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed * 2654435761u + 17));
    std::uniform_int_distribution<std::size_t> count(0, 60);
    std::vector<Value> records;
    std::size_t n = count(rng);
    for (std::size_t i = 0; i < n; ++i) records.push_back(random_record(rng));
    LogQuery q = random_pipeline(rng);
    expect_golden(q, records, kInMemoryGolden[seed],
                  "in-memory seed " + std::to_string(seed));
  }
}

// Captured from the reference executor over the full log, indexed by
// seed * 4 + trial.
constexpr std::uint64_t kPoolGolden[160] = {
    0xd1c63122620dcaa2, 0xe7810fe4cf2960a8, 0xb0399f001fe42de7,
    0x5c5e4b9c7f84045c, 0x2c7e8de49a48caed, 0x9bce5400c6789a9d,
    0x2c924fd8869b3095, 0x42634188965db2ab, 0x029431c47c122a1e,
    0x65d8b00066c8ef0e, 0x53c35bda767f264d, 0x0f517c08b9c91097,
    0x7abebb90e73faeeb, 0x91446a39da0196cd, 0x9bce5400c6789a9d,
    0x9bce5400c6789a9d, 0x9bce5400c6789a9d, 0x8dce93b4def5aa0f,
    0x9bce5400c6789a9d, 0xad48792137488e9d, 0x9bce5400c6789a9d,
    0x3d103a6e070d5d40, 0x2f17d9b6f88836dd, 0x9bce5400c6789a9d,
    0x9bce5400c6789a9d, 0x9bce5400c6789a9d, 0x2f070ca9802b2c04,
    0x18e8c751be54f7da, 0xb768f955d57f6286, 0xea94b7c2b0175e90,
    0x359311ee08b8b201, 0xbc47524c282c1f08, 0x77c645e6ae463186,
    0x6df258d72deefbb4, 0xefe58d4b7a2ba775, 0x9bce5400c6789a9d,
    0x47d0aae89fc84d9a, 0x63d5028ffb72c181, 0x65b96c43afc79d13,
    0x63d5028ffb72c181, 0x9bce5400c6789a9d, 0x9bce5400c6789a9d,
    0x9e538b13cce1da45, 0x301d6a574dd6b6b4, 0xac1b64b567b601ee,
    0xd595ed2f2032af41, 0x1a369239294c55c8, 0xefe58d4b7a2ba775,
    0x6de6ec0def92c412, 0x9bce5400c6789a9d, 0x5bed0b7864f41094,
    0x9bce5400c6789a9d, 0x56497d3cd4b2a706, 0x0a0678e0a7de16c7,
    0x2d10d5b3beff7154, 0x0a0678e0a7de16c7, 0xb1ed626188c1e742,
    0xd529635fbc8daa31, 0xf1ed343b2dff3c32, 0x9bce5400c6789a9d,
    0x7abebb90e73faeeb, 0x9bce5400c6789a9d, 0x547eeee28bfc61a5,
    0x94856c72c8b1e2cc, 0x7f8477145ad18258, 0xccc817db4839382d,
    0x9bce5400c6789a9d, 0xa8db6a1d8e2d3500, 0xfeb72235fac545b8,
    0x9bce5400c6789a9d, 0xb73daf5980cb1853, 0x0a9973a1fbbf9b85,
    0x5ea7c4b2cf8f3e19, 0x42be0846740edfd6, 0x2b8f83b4e1d627d4,
    0x8c3bde686e44becc, 0xf13db6d228d8734f, 0x2c6bb7bc767b11fc,
    0xe812469d2d180d0c, 0xaf01171fc97957a7, 0x69ab0c4be2950a2d,
    0x9bce5400c6789a9d, 0x40b90cd7df831803, 0xd177eb09b2a80595,
    0xe8afa8ab5a3d427c, 0x9bce5400c6789a9d, 0xe8afa8ab5a3d427c,
    0x81d9bbe31de419ac, 0x9bce5400c6789a9d, 0x6bb5c21ec46d09e6,
    0x755c7e1fc6ee1098, 0x4e4a7ed046775659, 0xea0b8ac99b9d9d92,
    0x63d53a66d3c30ebd, 0x784161ce09540d77, 0xc4d5b04c7ce32475,
    0xfa3b0c86f0e1b82f, 0xefe58d4b7a2ba775, 0x58ea9beb46b2450c,
    0x133afa93859ee8c5, 0x9bce5400c6789a9d, 0x149ed3f70ce6ddce,
    0xfadb0612de360110, 0x4d85699b84732ce9, 0x7abebb90e73faeeb,
    0x448224fcf5bd9ce1, 0xa30b1f4535e540c5, 0x639cd7a15e5d6d1d,
    0x58cc8fc49ee37b6f, 0xe419af79e9ad9783, 0x9bce5400c6789a9d,
    0x9bce5400c6789a9d, 0xcd1f0cc0b0f6db6d, 0x394991d89f8ef642,
    0x283c2315d8876055, 0xa38e0a180d1f7f52, 0x7abebb90e73faeeb,
    0xa6a3ae43098b1574, 0x6dc9dac302e97cf7, 0xefe58d4b7a2ba775,
    0x7a1cb114cd1a0721, 0x9bce5400c6789a9d, 0x9bce5400c6789a9d,
    0xeff87feefac7cdf4, 0xcb63631c2e273fb4, 0x8324bf5a7ddac50b,
    0xf982316ee05069c3, 0x318d08a40aaf760d, 0x9bce5400c6789a9d,
    0x846a7d8c5b608bae, 0x59a35186a39d9797, 0x846a7d8c5b608bae,
    0x60b6fc9fd4a307a8, 0xadf2d7430d4d1d1f, 0xdfad277e9bfb5834,
    0xa82522f2bb23825b, 0x9bce5400c6789a9d, 0x9e87942b9d00d70b,
    0x6a8234da0c35801f, 0x54095e2930ba5902, 0xb7a94e21422c5bc8,
    0x8868031f682bf2fa, 0x82248f312f42387b, 0xcd3f5bd4175d869b,
    0x650419f9a5333896, 0xd260b6975b431322, 0x9f2af6d6aa5b2a44,
    0x16e3c402597da554, 0x94d0f553a4fafcba, 0x9bce5400c6789a9d,
    0xeb1fc49118b385a1, 0xc150bbc3cb153172, 0x476961fb52a600ad,
    0x19d785f8573c4bf4, 0x294060974ca140fd, 0xc6e44973a4f3f58c,
    0x6be4854ede0663bd, 0x93e332408a54f0fb, 0x8c8761d4153af37d,
    0x50102dc882eb4f65,
};

TEST(ConsolidationEquivalence, RandomLogsThroughPoolQuery) {
  // The pool's query path adds scan push-down (head/tail bounds the scan,
  // early-stop ends it once enough records survive the fused head stage) —
  // results must still match the reference executor over the full log, and
  // no query may write through to a stored record's shared buffer.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed * 40503u + 5));
    sim::VirtualClock clock;
    LogDe de(clock, LogDeProfile::instant());
    LogPool& pool = de.create_pool("p");
    std::uniform_int_distribution<std::size_t> count(0, 60);
    std::vector<Value> records;
    std::size_t n = count(rng);
    for (std::size_t i = 0; i < n; ++i) records.push_back(random_record(rng));
    ASSERT_TRUE(pool.append_batch_sync("svc", records).ok());
    std::vector<std::string> stored;
    for (const auto& rec : pool.records_after(0)) {
      stored.push_back(common::to_json(*rec.data));
    }
    for (int trial = 0; trial < 4; ++trial) {
      LogQuery q = random_pipeline(rng);
      const std::string what = "pool seed " + std::to_string(seed) +
                               " trial " + std::to_string(trial);
      const std::uint64_t want = kPoolGolden[seed * 4 + trial];
      auto via_pool = pool.query_sync("svc", q);
      EXPECT_EQ(digest(via_pool), want)
          << what << ": pool query digests to " << hex(digest(via_pool));
      expect_golden(q, records, want, what);
      const auto after = pool.records_after(0);
      ASSERT_EQ(after.size(), stored.size()) << what;
      for (std::size_t i = 0; i < after.size(); ++i) {
        ASSERT_EQ(common::to_json(*after[i].data), stored[i])
            << what << ": stored record " << i << " changed";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Spec-driven: every pipeline declared in specs/, over records shaped by
// the registered schemas (schema_field_types / analyze_pipeline from
// analysis/sync_analysis supply the shapes the static checker reasons
// about — the differential suite confirms the plans agree on them).
// ---------------------------------------------------------------------------

Value value_for_type(const analysis::Type& t, std::mt19937& rng) {
  std::uniform_int_distribution<std::int64_t> num(0, 50);
  switch (t.kind) {
    case analysis::TypeKind::kBool:
      return Value(num(rng) % 2 == 0);
    case analysis::TypeKind::kInt:
      return Value(num(rng));
    case analysis::TypeKind::kNumber:
      return num(rng) % 2 == 0
                 ? Value(num(rng))
                 : Value(static_cast<double>(num(rng)) / 4.0);
    case analysis::TypeKind::kString: {
      static const char* kRooms[] = {"kitchen", "hall", "garage", "attic"};
      return Value(kRooms[num(rng) % 4]);
    }
    case analysis::TypeKind::kList:
      return Value::array({Value(num(rng))});
    case analysis::TypeKind::kObject: {
      Value o = Value::object();
      o.set("k", Value(num(rng)));
      return o;
    }
    default:
      return Value(num(rng));
  }
}

// Captured from the reference executor: per spec pipeline, indexed by
// seed. A pipeline added to specs/ needs its row here.
struct SpecGolden {
  const char* pipeline;
  std::uint64_t digests[20];
};
constexpr SpecGolden kSpecGolden[] = {
    {"rename motion=triggered | cut motion, room",
     {
         0xc409b004b3bb813e, 0x4cccfd9f515186f9, 0x34885fd6b8d4dd2e,
         0x895a6a745e503853, 0x3f2e974703486d9f, 0xb7f4ea803271d8ad,
         0xa3f3cc67a8a6bc00, 0x8ffbe5ca4e20d950, 0x214ddc60f4e123f3,
         0xb60ba9df5d59ab2e, 0xab96c849ac8c2065, 0x8169e501f16cc4ec,
         0xa31d63b65577cc89, 0xed4b1503a570a10a, 0x2218d91cfad4fc02,
         0x907272053be51322, 0x6b68ed961ee56fda, 0x5cfbe6e3eadc3016,
         0xdc98034b20e4091e, 0x0bbeb35f137cb9f1,
     }},
    {"where temp > 90 | put severity := \"critical\" if temp > 110 else "
     "\"warning\" | cut device, ts, temp, severity",
     {
         0x9bce5400c6789a9d, 0x9bce5400c6789a9d, 0x9bce5400c6789a9d,
         0x9bce5400c6789a9d, 0x9bce5400c6789a9d, 0x9bce5400c6789a9d,
         0x9bce5400c6789a9d, 0x9bce5400c6789a9d, 0x9bce5400c6789a9d,
         0x9bce5400c6789a9d, 0x9bce5400c6789a9d, 0x9bce5400c6789a9d,
         0x9bce5400c6789a9d, 0x9bce5400c6789a9d, 0x9bce5400c6789a9d,
         0x9bce5400c6789a9d, 0x9bce5400c6789a9d, 0x9bce5400c6789a9d,
         0x9bce5400c6789a9d, 0x9bce5400c6789a9d,
     }},
    {"window wstart := ts every 60 | summarize n=count(ts), "
     "avg_speed=avg(speed), max_temp=max(temp) by device, wstart",
     {
         0xb21f62c0eb59a898, 0xa73f827e24d648be, 0x5757a4d24472de95,
         0x77a5f45eea0eeef6, 0x14a738dc8c421ccd, 0x768e767bc01302fe,
         0x76205f4fc1f02ac7, 0x06a6c2c7c97f0022, 0x6aff0e24a01b1c25,
         0xa1891f79e6226e80, 0xea2d9dbbf602b899, 0x7c721577cc3abd12,
         0xd837915b9930a3b1, 0x69ad5caf52e606a5, 0x60e24f04354ca6c8,
         0x0db2efb6b422501e, 0x360938484e875318, 0xeb18e18c87a48d82,
         0x175e887c05174c4d, 0x9ce55d15ebd8d449,
     }},
};

const SpecGolden* spec_golden(const std::string& pipeline) {
  for (const auto& row : kSpecGolden) {
    if (pipeline == row.pipeline) return &row;
  }
  return nullptr;
}

TEST(ConsolidationEquivalence, EverySpecPipeline) {
  namespace fs = std::filesystem;
  const fs::path specs_dir{KNACTOR_SPECS_DIR};
  ASSERT_TRUE(fs::exists(specs_dir)) << specs_dir;

  // Gather schema field types (the record shape pool) and pipelines.
  std::map<std::string, analysis::Type> shape;
  std::vector<std::pair<std::string, std::string>> pipelines;  // (file, text)
  std::size_t spec_files = 0;
  for (const auto& entry : fs::directory_iterator(specs_dir)) {
    if (entry.path().extension() != ".yaml") continue;
    ++spec_files;
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    if (text.find("schema:") != std::string::npos) {
      auto schema = parse_schema(text);
      if (schema.ok()) {
        for (auto& [field, type] :
             analysis::schema_field_types(schema.value())) {
          shape.emplace(field, type);
        }
      }
    }
    // Extract `pipeline: <text>` lines (Sync route declarations).
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      auto pos = line.find("pipeline:");
      if (pos == std::string::npos) continue;
      if (line.find('#') != std::string::npos &&
          line.find('#') < pos) {
        continue;  // commented-out example
      }
      std::string pipeline = line.substr(pos + 9);
      pipeline.erase(0, pipeline.find_first_not_of(" \t"));
      if (!pipeline.empty()) {
        pipelines.emplace_back(entry.path().filename().string(), pipeline);
      }
    }
  }
  ASSERT_GT(spec_files, 0u);
  ASSERT_FALSE(pipelines.empty()) << "no Sync pipelines found in specs/";
  ASSERT_FALSE(shape.empty());

  for (const auto& [file, text] : pipelines) {
    auto parsed = parse_query(text);
    ASSERT_TRUE(parsed.ok()) << file << ": " << parsed.error().to_string();
    const LogQuery& q = parsed.value();
    const SpecGolden* golden = spec_golden(text);
    ASSERT_NE(golden, nullptr) << file << ": no golden row for '" << text
                               << "'";

    // The static schema flow for this pipeline: fused output fields must
    // stay within what the checker derives.
    std::vector<analysis::Diagnostic> diags;
    auto outgoing = analysis::analyze_pipeline(text, shape, {file, 0, 0},
                                               "equivalence", diags);

    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      std::mt19937 rng(static_cast<unsigned>(seed * 7919u + 3));
      std::uniform_int_distribution<int> coin(0, 9);
      std::vector<Value> records;
      for (int i = 0; i < 50; ++i) {
        Value rec = Value::object();
        for (const auto& [field, type] : shape) {
          if (coin(rng) < 8) rec.set(field, value_for_type(type, rng));
        }
        records.push_back(std::move(rec));
      }
      expect_golden(q, records, golden->digests[seed],
                    file + " seed " + std::to_string(seed));

      auto fused = run_plan(plan_query(q), handles(records));
      ASSERT_TRUE(fused.ok());
      if (!outgoing.empty()) {
        for (const auto& out_rec : fused.value()) {
          if (!out_rec->is_object()) continue;
          for (const auto& [field, value] : out_rec->as_object()) {
            EXPECT_TRUE(outgoing.count(field) > 0)
                << file << ": output field '" << field
                << "' outside the schema flow";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace knactor::de
