// Torn-tail fuzz suite (`ctest -L durable`): random truncations and bit
// flips of the newest journal tail and snapshot files. The property is
// that recovery (a) never crashes and never fails, and (b) lands *exactly*
// on the last checksum-valid prefix: recovering the mutated directory
// yields a bit-identical image to recovering a clean equivalent — the
// newest journal cut precisely at its last valid frame boundary, or the
// invalidated snapshot removed outright. Runs under the `sanitize` preset
// too, so every decode path is exercised ASan/UBSan-clean on hostile
// bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/value.h"
#include "de/object.h"
#include "de/persist/engine.h"
#include "de/persist/format.h"
#include "sim/random.h"

namespace knactor::de::persist {
namespace {

namespace fs = std::filesystem;
using common::Value;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Builds the pristine template directory once: a persisted ObjectDe with a
// tight snapshot cadence, fed a mix of puts, deletes, a transaction, and
// an epoch so the journals carry every frame shape.
class PersistTornTail : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process template dir: ctest runs each case of this suite as its
    // own process in parallel, and a shared path races remove_all against
    // the sibling's directory scan.
    template_dir_ = new std::string(
        ::testing::TempDir() + "kn_torn_template_" +
        std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(*template_dir_);
    sim::VirtualClock clock;
    ObjectDeProfile profile = ObjectDeProfile::instant();
    profile.durable = true;
    ObjectDe de(clock, profile);
    Engine engine(EngineOptions{*template_dir_, /*snapshot_every=*/5});
    ASSERT_TRUE(de.enable_persistence(&engine).ok());
    ObjectStore& alpha = de.create_store("alpha");
    ObjectStore& beta = de.create_store("beta");
    for (int i = 0; i < 14; ++i) {
      ObjectStore& store = (i % 3 == 0) ? beta : alpha;
      ASSERT_TRUE(store
                      .put_sync("suite", "k" + std::to_string(i % 6),
                                Value::object({{"v", i}}))
                      .ok());
    }
    ASSERT_TRUE(alpha.remove_sync("suite", "k1").ok());
    std::vector<ObjectDe::TxnOp> txn;
    for (int j = 0; j < 3; ++j) {
      ObjectDe::TxnOp t;
      t.store = "alpha";
      t.key = "t" + std::to_string(j);
      t.data = Value::object({{"v", 100 + j}});
      t.merge = false;
      txn.push_back(std::move(t));
    }
    ASSERT_TRUE(de.transact_sync("suite", std::move(txn)).ok());
    std::vector<EpochWrite> writes;
    for (int j = 0; j < 4; ++j) {
      EpochWrite w;
      w.key = "e" + std::to_string(j);
      w.data = Value::object({{"v", 200 + j}});
      writes.push_back(std::move(w));
    }
    for (const auto& r : beta.put_epoch_sync("suite", std::move(writes))) {
      ASSERT_TRUE(r.ok());
    }
    // Trailing puts below the snapshot cadence, so the newest journal ends
    // with real frames to corrupt rather than a bare header.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(alpha
                      .put_sync("suite", "z" + std::to_string(i),
                                Value::object({{"v", 300 + i}}))
                      .ok());
    }
    // The template must have history to corrupt: at least one snapshot
    // generation and a non-empty newest journal.
    ASSERT_GT(engine.generation(), 0u);
    ASSERT_GT(fs::file_size(engine.journal_path(engine.generation())),
              kJournalHeaderBytes);
  }

  static void TearDownTestSuite() {
    delete template_dir_;
    template_dir_ = nullptr;
  }

  static std::string copy_template(const std::string& name) {
    std::string dir = ::testing::TempDir() + "kn_torn_" +
                      std::to_string(static_cast<long>(::getpid())) + "_" +
                      name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const auto& entry : fs::directory_iterator(*template_dir_)) {
      fs::copy_file(entry.path(), fs::path(dir) / entry.path().filename());
    }
    return dir;
  }

  static std::string* template_dir_;
};

std::string* PersistTornTail::template_dir_ = nullptr;

struct Mutation {
  bool hit_journal = false;  // newest journal vs newest snapshot
  fs::path path;
  std::string mutated_bytes;
};

Mutation mutate(sim::Rng& rng, const std::string& dir,
                std::uint64_t newest_gen) {
  Mutation m;
  const fs::path journal =
      fs::path(dir) / ("journal-" + std::to_string(newest_gen) + ".kjnl");
  const fs::path snapshot =
      fs::path(dir) / ("snapshot-" + std::to_string(newest_gen) + ".ksnp");
  m.hit_journal = !fs::exists(snapshot) || rng.next_below(10) < 6;
  m.path = m.hit_journal ? journal : snapshot;
  std::string bytes = slurp(m.path);
  if (rng.next_below(2) == 0) {
    bytes.resize(rng.next_below(static_cast<std::uint32_t>(bytes.size()) + 1));
  } else {
    const int flips = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < flips && !bytes.empty(); ++i) {
      const auto at =
          rng.next_below(static_cast<std::uint32_t>(bytes.size()));
      bytes[at] = static_cast<char>(
          bytes[at] ^ static_cast<char>(1 << rng.next_below(8)));
    }
  }
  spit(m.path, bytes);
  m.mutated_bytes = std::move(bytes);
  return m;
}

TEST_F(PersistTornTail, RecoveryLandsOnTheLastValidPrefix) {
  const int kSeeds = 150;
  int journal_hits = 0;
  int snapshot_hits = 0;
  int frames_dropped_total = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    sim::Rng rng(seed);
    const std::string mutated_dir =
        copy_template("m" + std::to_string(seed));
    const std::string clean_dir = copy_template("c" + std::to_string(seed));

    auto gens = Engine::inspect(mutated_dir);
    ASSERT_FALSE(gens.empty());
    const std::uint64_t newest = gens.back().generation;
    const Mutation m = mutate(rng, mutated_dir, newest);

    // Construct the clean equivalent by hand from the format layer's view
    // of the mutated bytes.
    std::uint64_t expected_newest_frames = 0;
    if (m.hit_journal) {
      ++journal_hits;
      std::vector<Frame> frames;
      JournalScan scan = scan_journal(m.mutated_bytes, [&](Frame&& frame) {
        frames.push_back(std::move(frame));
      });
      const fs::path clean_journal =
          fs::path(clean_dir) / m.path.filename();
      if (!scan.header_valid) {
        fs::remove(clean_journal);
      } else {
        std::string clean_bytes = slurp(clean_journal);
        clean_bytes.resize(scan.valid_bytes);
        spit(clean_journal, clean_bytes);
        expected_newest_frames = frames.size();
      }
    } else {
      ++snapshot_hits;
      if (decode_snapshot(m.mutated_bytes).has_value()) {
        // The mutation happened to keep the snapshot valid (e.g. a
        // full-length truncation): the clean equivalent is the unmodified
        // copy — nothing to do.
      } else {
        fs::remove(fs::path(clean_dir) / m.path.filename());
      }
    }

    Engine mutated(EngineOptions{mutated_dir, 0});
    auto from_mutated = mutated.recover();
    ASSERT_TRUE(from_mutated.ok())
        << "seed " << seed << ": recovery failed on mutated "
        << m.path.filename();
    Engine clean(EngineOptions{clean_dir, 0});
    auto from_clean = clean.recover();
    ASSERT_TRUE(from_clean.ok()) << "seed " << seed;

    // Bit-identical images and identical replay work: the mutation cost
    // exactly the invalid suffix, nothing more, nothing less.
    EXPECT_EQ(encode_snapshot(from_mutated.value(), 0),
              encode_snapshot(from_clean.value(), 0))
        << "seed " << seed << " (hit "
        << (m.hit_journal ? "journal" : "snapshot") << ")";
    EXPECT_EQ(mutated.stats().frames_replayed,
              clean.stats().frames_replayed)
        << "seed " << seed;
    frames_dropped_total +=
        static_cast<int>(mutated.stats().torn_frames_dropped);

    // Cross-check against the format layer directly: with the base
    // snapshot intact, the newest journal contributes exactly its valid
    // frame prefix to the replay.
    if (m.hit_journal && gens.back().snapshot_valid) {
      EXPECT_EQ(mutated.stats().frames_replayed, expected_newest_frames)
          << "seed " << seed;
    }

    // Recovery healed the directory: the newest journal now scans clean,
    // so a second recovery replays the same frames and the engine accepts
    // new appends.
    JournalScan healed = scan_journal(
        slurp(mutated.journal_path(mutated.generation())));
    EXPECT_TRUE(healed.header_valid) << "seed " << seed;
    EXPECT_FALSE(healed.torn) << "seed " << seed;

    // gc on the healed hostile directory reclaims exactly the generations
    // below the base recovery loads, keeps every one at or above it, and
    // leaves a directory that recovers to the same image.
    const std::vector<GenerationInfo> before = Engine::inspect(mutated_dir);
    const std::optional<std::uint64_t> base = Engine::recovery_base(before);
    using Artifacts = std::tuple<std::uint64_t, bool, bool>;
    std::vector<Artifacts> kept;
    std::size_t below = 0;
    for (const GenerationInfo& gen : before) {
      if (base && gen.generation < *base) {
        ++below;
      } else {
        kept.emplace_back(gen.generation, gen.has_snapshot, gen.has_journal);
      }
    }
    EXPECT_EQ(mutated.gc(), below) << "seed " << seed;
    std::vector<Artifacts> after;
    for (const GenerationInfo& gen : Engine::inspect(mutated_dir)) {
      after.emplace_back(gen.generation, gen.has_snapshot, gen.has_journal);
    }
    EXPECT_EQ(after, kept) << "seed " << seed;
    auto again = mutated.recover();
    ASSERT_TRUE(again.ok()) << "seed " << seed;
    EXPECT_EQ(encode_snapshot(again.value(), 0),
              encode_snapshot(from_mutated.value(), 0))
        << "seed " << seed;

    std::string rec;
    encode_put(rec, "alpha", "post", 9999, 0, 0, Value(1));
    EXPECT_TRUE(mutated.append_batch({rec}, 1, 10000, 10000).ok())
        << "seed " << seed;

    fs::remove_all(mutated_dir);
    fs::remove_all(clean_dir);
  }
  // The corpus must have fuzzed both artifact kinds.
  EXPECT_GT(journal_hits, 0);
  EXPECT_GT(snapshot_hits, 0);
  EXPECT_GT(frames_dropped_total, 0);
}

TEST_F(PersistTornTail, EveryTruncationPointOfTheNewestJournalRecovers) {
  // Exhaustive sweep, not just sampled: cut the newest journal at *every*
  // byte offset. Recovery must succeed at each cut and replay a
  // monotonically non-decreasing frame count that steps up exactly at
  // frame boundaries.
  const std::string probe_dir = copy_template("sweep_probe");
  auto gens = Engine::inspect(probe_dir);
  const std::uint64_t newest = gens.back().generation;
  const fs::path name = "journal-" + std::to_string(newest) + ".kjnl";
  const std::string pristine = slurp(fs::path(probe_dir) / name);
  fs::remove_all(probe_dir);
  std::vector<Frame> pristine_frames;
  scan_journal(pristine, [&](Frame&& frame) {
    pristine_frames.push_back(std::move(frame));
  });
  ASSERT_GE(pristine_frames.size(), 2u);

  std::uint64_t prev_frames = 0;
  for (std::size_t cut = 0; cut <= pristine.size(); ++cut) {
    const std::string dir = copy_template("sweep");
    spit(fs::path(dir) / name, pristine.substr(0, cut));
    Engine engine(EngineOptions{dir, 0});
    auto recovered = engine.recover();
    ASSERT_TRUE(recovered.ok()) << "cut at byte " << cut;
    std::uint64_t expected = 0;
    for (const Frame& frame : pristine_frames) {
      if (frame.end_offset <= cut) ++expected;
    }
    EXPECT_EQ(engine.stats().frames_replayed, expected)
        << "cut at byte " << cut;
    EXPECT_GE(engine.stats().frames_replayed, prev_frames);
    prev_frames = engine.stats().frames_replayed;
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace knactor::de::persist
