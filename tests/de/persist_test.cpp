// Unit tests for the durable persistence tier: the generation-based
// Engine (append/snapshot/recover/gc/inspect), and the ObjectDe
// integration (journal-before-notify, counter restoration,
// transaction/epoch frames, auto-snapshot cadence, GC safety). The format
// layer's tests are in persist_format_test.cpp; this suite, they, the
// crash-seed differential and the torn-tail fuzz suites all carry the
// `durable` label.
#include "de/persist/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "de/object.h"
#include "de/persist/format.h"
#include "de/retention.h"

namespace knactor::de::persist {
namespace {

using common::Value;

std::string test_dir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "kn_persist_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- engine ----------------------------------------------------------------

TEST(PersistEngine, AppendThenRecoverReplaysJournal) {
  const std::string dir = test_dir("append_recover");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());

  std::string rec1;
  encode_put(rec1, "s", "a", 1, 0, 0, Value(10));
  std::string rec2;
  encode_put(rec2, "s", "b", 2, 0, 0, Value(20));
  ASSERT_TRUE(engine.append_batch({rec1}, 1, 2, 2).ok());
  ASSERT_TRUE(engine.append_batch({rec2}, 1, 3, 3).ok());

  Engine reader({dir, 0});
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  const Image& image = recovered.value();
  EXPECT_EQ(image.next_revision, 3u);
  EXPECT_EQ(image.commit_seq, 3u);
  ASSERT_EQ(image.stores.size(), 1u);
  ASSERT_EQ(image.stores[0].objects.size(), 2u);
  EXPECT_EQ(image.stores[0].objects[0].key, "a");
  EXPECT_EQ(image.stores[0].objects[1].key, "b");
  EXPECT_EQ(reader.stats().frames_replayed, 2u);
}

TEST(PersistEngine, SnapshotRotatesGenerationAndBoundsReplay) {
  const std::string dir = test_dir("rotate");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.generation(), 0u);

  std::string rec;
  encode_put(rec, "s", "a", 1, 0, 0, Value(1));
  ASSERT_TRUE(engine.append_batch({rec}, 1, 2, 2).ok());

  Image image;
  image.next_revision = 2;
  image.commit_seq = 2;
  StoreImage store;
  store.name = "s";
  ObjectImage obj;
  obj.key = "a";
  obj.version = 1;
  obj.data = std::make_shared<const Value>(Value(1));
  store.objects.push_back(obj);
  image.stores.push_back(store);
  ASSERT_TRUE(engine.snapshot(image).ok());
  EXPECT_EQ(engine.generation(), 1u);
  EXPECT_EQ(engine.records_since_snapshot(), 0u);

  std::string rec2;
  encode_put(rec2, "s", "b", 2, 0, 0, Value(2));
  ASSERT_TRUE(engine.append_batch({rec2}, 1, 3, 3).ok());

  // Recovery loads the snapshot and replays only the generation-1 delta.
  Engine reader({dir, 0});
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().object_count(), 2u);
  EXPECT_EQ(recovered.value().next_revision, 3u);
  EXPECT_EQ(reader.stats().frames_replayed, 1u);  // delta only
}

TEST(PersistEngine, TornSnapshotFallsBackToPreviousGeneration) {
  const std::string dir = test_dir("torn_snapshot");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  std::string rec;
  encode_put(rec, "s", "a", 1, 0, 0, Value(1));
  ASSERT_TRUE(engine.append_batch({rec}, 1, 2, 2).ok());

  Image image;
  image.next_revision = 2;
  image.commit_seq = 2;
  ASSERT_TRUE(engine.snapshot(image).ok());
  std::string rec2;
  encode_put(rec2, "s", "b", 2, 0, 0, Value(2));
  ASSERT_TRUE(engine.append_batch({rec2}, 1, 3, 3).ok());

  // Corrupt the newest snapshot: recovery must fall back to generation 0's
  // chain (empty image + journal-0 + journal-1) and still see everything.
  const std::string snap = engine.snapshot_path(1);
  std::string bytes = slurp(snap);
  spit(snap, bytes.substr(0, bytes.size() / 2));

  Engine reader({dir, 0});
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().object_count(), 2u);
  EXPECT_EQ(recovered.value().next_revision, 3u);
  EXPECT_EQ(reader.stats().snapshots_skipped, 1u);
  EXPECT_EQ(reader.stats().frames_replayed, 2u);  // full chain
}

TEST(PersistEngine, GcReclaimsOnlyGenerationsBelowNewestValidSnapshot) {
  const std::string dir = test_dir("gc");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  std::string rec;
  encode_put(rec, "s", "a", 1, 0, 0, Value(1));
  ASSERT_TRUE(engine.append_batch({rec}, 1, 2, 2).ok());
  Image image;
  ASSERT_TRUE(engine.snapshot(image).ok());
  ASSERT_TRUE(engine.append_batch({rec}, 1, 3, 3).ok());
  ASSERT_TRUE(engine.snapshot(image).ok());

  // Generations 0 and 1 are below snapshot-2: both reclaimable.
  EXPECT_EQ(engine.gc(), 2u);
  EXPECT_FALSE(std::filesystem::exists(engine.journal_path(0)));
  EXPECT_FALSE(std::filesystem::exists(engine.snapshot_path(1)));
  EXPECT_TRUE(std::filesystem::exists(engine.snapshot_path(2)));
  EXPECT_TRUE(std::filesystem::exists(engine.journal_path(2)));
  EXPECT_EQ(engine.gc(), 0u);  // idempotent
}

TEST(PersistEngine, GcNeverReclaimsTheRecoveryBaseOfATornSnapshot) {
  // Regression for the snapshot-write/truncation race: if the newest
  // snapshot is torn (crash between snapshot write and old-generation
  // reclamation), the previous generation is still the recovery base and
  // GC must keep it.
  const std::string dir = test_dir("gc_torn");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  std::string rec;
  encode_put(rec, "s", "a", 1, 0, 0, Value(1));
  ASSERT_TRUE(engine.append_batch({rec}, 1, 2, 2).ok());
  Image image;
  ASSERT_TRUE(engine.snapshot(image).ok());

  // Tear snapshot-1 after the fact (as a crash mid-write would have).
  const std::string snap = engine.snapshot_path(1);
  std::string bytes = slurp(snap);
  spit(snap, bytes.substr(0, bytes.size() / 2));

  Engine reader({dir, 0});
  ASSERT_TRUE(reader.open().ok());
  EXPECT_EQ(reader.gc(), 0u);  // nothing valid above generation 0
  EXPECT_TRUE(std::filesystem::exists(reader.journal_path(0)));
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().object_count(), 1u);
}

TEST(PersistEngine, InspectListsGenerations) {
  const std::string dir = test_dir("inspect");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  std::string rec;
  encode_put(rec, "s", "a", 1, 0, 0, Value(1));
  ASSERT_TRUE(engine.append_batch({rec}, 1, 2, 2).ok());
  Image image;
  image.next_revision = 2;
  image.commit_seq = 2;
  ASSERT_TRUE(engine.snapshot(image).ok());

  auto gens = Engine::inspect(dir);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0].generation, 0u);
  EXPECT_TRUE(gens[0].has_journal);
  EXPECT_FALSE(gens[0].has_snapshot);
  EXPECT_EQ(gens[0].journal_frames, 1u);
  EXPECT_EQ(gens[0].journal_records, 1u);
  EXPECT_FALSE(gens[0].journal_torn);
  EXPECT_EQ(gens[1].generation, 1u);
  EXPECT_TRUE(gens[1].snapshot_valid);
  EXPECT_TRUE(gens[1].has_journal);
  ASSERT_TRUE(Engine::recovery_base(gens).has_value());
  EXPECT_EQ(*Engine::recovery_base(gens), 1u);
}

TEST(PersistEngine, SimulatedCrashTearsTheFrameAndFailsTheEngine) {
  const std::string dir = test_dir("crash_append");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  std::string rec;
  encode_put(rec, "s", "a", 1, 0, 0, Value(1));
  ASSERT_TRUE(engine.append_batch({rec}, 1, 2, 2).ok());

  engine.set_fault_hook(
      [](CrashPoint p) { return p == CrashPoint::kJournalAppend; });
  EXPECT_FALSE(engine.append_batch({rec}, 1, 3, 3).ok());
  EXPECT_TRUE(engine.failed());
  // Everything fails until recovery.
  EXPECT_FALSE(engine.append_batch({rec}, 1, 3, 3).ok());

  engine.set_fault_hook(nullptr);
  auto recovered = engine.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(engine.failed());
  // Only the first (intact) frame survived; the torn tail was truncated.
  EXPECT_EQ(engine.stats().frames_replayed, 1u);
  EXPECT_EQ(recovered.value().next_revision, 2u);
  // Appends continue cleanly after the truncation.
  ASSERT_TRUE(engine.append_batch({rec}, 1, 3, 3).ok());
  Engine reader({dir, 0});
  auto again = reader.recover();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(reader.stats().frames_replayed, 2u);
}

// --- sliced snapshots ------------------------------------------------------

// The durable history a crash must recover exactly: every acked put's
// object image plus the kernel counters after it.
struct SliceOracle {
  std::map<std::string, ObjectImage> objects;
  std::uint64_t next_revision = 1;
  std::uint64_t commit_seq = 0;
  std::uint64_t frames = 0;
};

void oracle_put(Engine& engine, SliceOracle& oracle, const std::string& key,
                int value) {
  ObjectImage obj;
  obj.key = key;
  obj.version = oracle.next_revision;
  obj.created_at = static_cast<std::int64_t>(obj.version) * 10;
  obj.updated_at = obj.created_at + 1;
  obj.data = std::make_shared<const Value>(
      Value::object({{"v", Value(value)}, {"key", Value(key)}}));
  std::string rec;
  encode_put(rec, "s", key, obj.version, obj.created_at, obj.updated_at,
             *obj.data);
  ASSERT_TRUE(engine
                  .append_batch({rec}, 1, oracle.next_revision + 1,
                                oracle.commit_seq + 1)
                  .ok());
  ++oracle.next_revision;
  ++oracle.commit_seq;
  ++oracle.frames;
  oracle.objects[key] = std::move(obj);
}

Image oracle_image(const SliceOracle& oracle) {
  Image image;
  image.next_revision = oracle.next_revision;
  image.commit_seq = oracle.commit_seq;
  StoreImage store;
  store.name = "s";
  for (const auto& [key, obj] : oracle.objects) store.objects.push_back(obj);
  image.stores.push_back(std::move(store));
  return image;
}

void expect_recovers_oracle(const Image& got, const SliceOracle& oracle,
                            const std::string& label) {
  EXPECT_EQ(got.next_revision, oracle.next_revision) << label;
  EXPECT_EQ(got.commit_seq, oracle.commit_seq) << label;
  ASSERT_EQ(got.stores.size(), 1u) << label;
  const auto& objects = got.stores[0].objects;
  ASSERT_EQ(objects.size(), oracle.objects.size()) << label;
  auto want = oracle.objects.begin();
  for (const ObjectImage& obj : objects) {
    EXPECT_EQ(obj.key, want->first) << label;
    EXPECT_EQ(obj.version, want->second.version) << label << " " << obj.key;
    EXPECT_EQ(obj.created_at, want->second.created_at) << label;
    EXPECT_EQ(obj.updated_at, want->second.updated_at) << label;
    ASSERT_NE(obj.data, nullptr) << label;
    EXPECT_EQ(*obj.data, *want->second.data) << label << " " << obj.key;
    ++want;
  }
}

constexpr int kSliceObjects = 64;
constexpr std::size_t kPerSlice = 8;
constexpr int kSlices = kSliceObjects / static_cast<int>(kPerSlice);

// Cuts a snapshot of a 64-object store, then writes it 8 objects per slice
// with one post-cut commit after the cut and after every slice. The fault
// hook crashes slice `crash_at` (kSnapshotSlice), the header patch
// (`crash_at == kSlices`, kSnapshotWrite), or nothing (`crash_at` past
// that); `crash_at == -1` crashes right after the cut, before any slice.
// A fresh engine then recovers the directory, as a restarted process
// would.
void run_slice_crash(int crash_at) {
  const std::string label = "crash_at=" + std::to_string(crash_at);
  const std::string dir = test_dir("slice_crash_" + std::to_string(crash_at + 1));
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  SliceOracle oracle;
  for (int i = 0; i < kSliceObjects; ++i) {
    oracle_put(engine, oracle, "k" + std::to_string(100 + i), i);
  }
  const std::uint64_t pre_cut_frames = oracle.frames;
  int slice_checks = 0;
  engine.set_fault_hook([&](CrashPoint point) {
    if (point == CrashPoint::kSnapshotSlice) return slice_checks++ == crash_at;
    return point == CrashPoint::kSnapshotWrite && crash_at == kSlices;
  });
  ASSERT_TRUE(engine.begin_snapshot(oracle_image(oracle)).ok()) << label;
  EXPECT_EQ(engine.generation(), 1u);  // the journal rotated at the cut
  EXPECT_TRUE(engine.snapshot_pending());
  oracle_put(engine, oracle, "k100", 1000);  // post-cut: lands in journal-1
  if (crash_at >= 0) {
    for (int slice = 0; engine.snapshot_pending(); ++slice) {
      if (!engine.snapshot_slice(kPerSlice).ok()) break;
      oracle_put(engine, oracle, "late-" + std::to_string(slice), slice);
      oracle_put(engine, oracle, "k" + std::to_string(100 + slice), -slice);
    }
  }
  const bool completed = crash_at > kSlices;
  EXPECT_EQ(engine.failed(), crash_at >= 0 && !completed) << label;
  EXPECT_EQ(engine.snapshot_pending(), !completed) << label;
  EXPECT_EQ(engine.stats().snapshots, completed ? 1u : 0u) << label;
  if (crash_at >= 0) {
    EXPECT_EQ(slice_checks, std::min(crash_at + 1, kSlices)) << label;
  }

  Engine reader({dir, 0});
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok()) << label;
  expect_recovers_oracle(recovered.value(), oracle, label);
  if (completed) {
    // The new snapshot is the base: only post-cut frames replay.
    EXPECT_EQ(reader.stats().snapshots_skipped, 0u) << label;
    EXPECT_EQ(reader.stats().frames_replayed, oracle.frames - pre_cut_frames);
  } else {
    // The incomplete snapshot is skipped (right after the cut there is no
    // snapshot file yet): journals 0 and 1 replay in full.
    EXPECT_EQ(std::filesystem::exists(engine.snapshot_path(1)), crash_at >= 0)
        << label;
    EXPECT_EQ(reader.stats().snapshots_skipped, crash_at >= 0 ? 1u : 0u)
        << label;
    EXPECT_EQ(reader.stats().frames_replayed, oracle.frames) << label;
  }
  EXPECT_EQ(reader.generation(), 1u) << label;
}

TEST(PersistSlicedSnapshot, CrashRightAfterTheCutRecoversTheOracle) {
  run_slice_crash(-1);
}

TEST(PersistSlicedSnapshot, CrashAtEverySliceRecoversTheOracle) {
  for (int slice = 0; slice < kSlices; ++slice) run_slice_crash(slice);
}

TEST(PersistSlicedSnapshot, CrashDuringTheHeaderPatchRecoversTheOracle) {
  run_slice_crash(kSlices);
}

TEST(PersistSlicedSnapshot, CompletedSlicesBoundReplayToThePostCutDelta) {
  run_slice_crash(kSlices + 1);
}

TEST(PersistSlicedSnapshot, SlicedBytesEqualTheOneShotSnapshot) {
  const std::string dir = test_dir("slice_bytes");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  SliceOracle oracle;
  for (int i = 0; i < kSliceObjects; ++i) {
    oracle_put(engine, oracle, "k" + std::to_string(i), i);
  }
  const Image image = oracle_image(oracle);
  ASSERT_TRUE(engine.begin_snapshot(image).ok());
  int slices = 0;
  while (engine.snapshot_pending()) {
    ASSERT_TRUE(engine.snapshot_slice(kPerSlice).ok());
    ++slices;
  }
  EXPECT_EQ(slices, kSlices);
  EXPECT_EQ(slurp(engine.snapshot_path(1)), encode_snapshot(image, 1));
}

TEST(PersistSlicedSnapshot, GcFloorStaysPutWhileASnapshotIsPending) {
  const std::string dir = test_dir("slice_gc");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  SliceOracle oracle;
  oracle_put(engine, oracle, "a", 1);
  ASSERT_TRUE(engine.snapshot(oracle_image(oracle)).ok());  // generation 1
  for (int i = 0; i < 20; ++i) {
    oracle_put(engine, oracle, "k" + std::to_string(i), i);
  }
  ASSERT_TRUE(engine.begin_snapshot(oracle_image(oracle)).ok());
  ASSERT_TRUE(engine.snapshot_slice(kPerSlice).ok());
  ASSERT_TRUE(engine.snapshot_pending());
  // snapshot-1 is still the newest valid one: only generation 0 goes.
  EXPECT_EQ(engine.gc(), 1u);
  EXPECT_TRUE(std::filesystem::exists(engine.snapshot_path(1)));
  EXPECT_TRUE(std::filesystem::exists(engine.journal_path(1)));
  ASSERT_TRUE(engine.finish_snapshot().ok());
  EXPECT_EQ(engine.gc(), 1u);  // now generation 1 goes too
  EXPECT_FALSE(std::filesystem::exists(engine.journal_path(1)));

  Engine reader({dir, 0});
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  expect_recovers_oracle(recovered.value(), oracle, "after gc");
}

TEST(PersistSlicedSnapshot, ACutWhileOneIsPendingFinishesItFirst) {
  const std::string dir = test_dir("slice_recut");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  SliceOracle oracle;
  for (int i = 0; i < 20; ++i) {
    oracle_put(engine, oracle, "k" + std::to_string(i), i);
  }
  const Image first = oracle_image(oracle);
  ASSERT_TRUE(engine.begin_snapshot(first).ok());
  ASSERT_TRUE(engine.snapshot_slice(kPerSlice).ok());
  oracle_put(engine, oracle, "k0", 99);
  ASSERT_TRUE(engine.begin_snapshot(oracle_image(oracle)).ok());
  EXPECT_EQ(engine.stats().snapshots, 1u);
  EXPECT_EQ(engine.generation(), 2u);
  EXPECT_EQ(slurp(engine.snapshot_path(1)), encode_snapshot(first, 1));
  ASSERT_TRUE(engine.finish_snapshot().ok());
  EXPECT_EQ(engine.stats().snapshots, 2u);
  Engine reader({dir, 0});
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(reader.stats().frames_replayed, 0u);
  expect_recovers_oracle(recovered.value(), oracle, "recut");
}

TEST(PersistSlicedSnapshot, RecoverAbandonsThePendingSnapshot) {
  const std::string dir = test_dir("slice_abandon");
  Engine engine({dir, 0});
  ASSERT_TRUE(engine.open().ok());
  SliceOracle oracle;
  for (int i = 0; i < 20; ++i) {
    oracle_put(engine, oracle, "k" + std::to_string(i), i);
  }
  ASSERT_TRUE(engine.begin_snapshot(oracle_image(oracle)).ok());
  ASSERT_TRUE(engine.snapshot_slice(kPerSlice).ok());
  oracle_put(engine, oracle, "k0", 99);
  auto recovered = engine.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(engine.snapshot_pending());
  EXPECT_EQ(engine.stats().snapshots, 0u);
  expect_recovers_oracle(recovered.value(), oracle, "abandoned");
  // Appends continue in generation 1; the next cut starts generation 2.
  EXPECT_EQ(engine.generation(), 1u);
  oracle_put(engine, oracle, "k1", 98);
  ASSERT_TRUE(engine.snapshot(oracle_image(oracle)).ok());
  EXPECT_EQ(engine.generation(), 2u);
  Engine reader({dir, 0});
  auto again = reader.recover();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(reader.stats().frames_replayed, 0u);
  expect_recovers_oracle(again.value(), oracle, "after the next snapshot");
}

// --- ObjectDe integration --------------------------------------------------

ObjectDeProfile durable_instant() {
  ObjectDeProfile p = ObjectDeProfile::instant();
  p.durable = true;
  return p;
}

TEST(PersistObjectDe, RestartRecoversStateVersionsAndCounters) {
  const std::string dir = test_dir("de_restart");
  sim::VirtualClock clock;
  ObjectDe de(clock, durable_instant());
  Engine engine({dir, 0});
  ASSERT_TRUE(de.enable_persistence(&engine).ok());

  ObjectStore& store = de.create_store("s");
  auto v1 = store.put_sync("me", "a", Value::object({{"x", Value(1)}}));
  auto v2 = store.put_sync("me", "b", Value::object({{"x", Value(2)}}));
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(store.remove_sync("me", "a").ok());

  de.crash();
  de.recover();

  ObjectStore* recovered = de.store("s");
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->peek("a"), nullptr);
  const StateObject* b = recovered->peek("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->version, v2.value());  // exact version, not re-assigned
  EXPECT_EQ(b->data->as_object().find("x")->as_int(), 2);

  // Counters resume where the durable history left off: the next write
  // gets the version a fault-free run would have assigned.
  auto v3 = recovered->put_sync("me", "c", Value(3));
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3.value(), v2.value() + 1);
}

TEST(PersistObjectDe, AutoSnapshotHonorsCadence) {
  const std::string dir = test_dir("de_cadence");
  sim::VirtualClock clock;
  ObjectDe de(clock, durable_instant());
  Engine engine({dir, 3});
  ASSERT_TRUE(de.enable_persistence(&engine).ok());

  ObjectStore& store = de.create_store("s");
  ASSERT_TRUE(store.put_sync("me", "a", Value(1)).ok());
  ASSERT_TRUE(store.put_sync("me", "b", Value(2)).ok());
  EXPECT_EQ(engine.generation(), 0u);
  ASSERT_TRUE(store.put_sync("me", "c", Value(3)).ok());  // 3rd record
  EXPECT_EQ(engine.generation(), 1u);
  EXPECT_EQ(engine.records_since_snapshot(), 0u);
  EXPECT_EQ(engine.stats().snapshots, 1u);

  // Snapshot-bounded recovery: a fresh engine replays zero frames.
  Engine reader({dir, 0});
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(reader.stats().frames_replayed, 0u);
  EXPECT_EQ(recovered.value().object_count(), 3u);
}

TEST(PersistObjectDe, TransactionJournalsAsOneAtomicFrame) {
  const std::string dir = test_dir("de_txn");
  sim::VirtualClock clock;
  ObjectDe de(clock, durable_instant());
  Engine engine({dir, 0});
  ASSERT_TRUE(de.enable_persistence(&engine).ok());
  de.create_store("s");

  std::vector<ObjectDe::TxnOp> ops;
  ops.push_back({"s", "a", Value(1), false, std::nullopt});
  ops.push_back({"s", "b", Value(2), false, std::nullopt});
  ops.push_back({"s", "c", Value(3), false, std::nullopt});
  ASSERT_TRUE(de.transact_sync("me", std::move(ops)).ok());

  auto gens = Engine::inspect(dir);
  ASSERT_EQ(gens.size(), 1u);
  EXPECT_EQ(gens[0].journal_frames, 1u);   // one frame...
  EXPECT_EQ(gens[0].journal_records, 3u);  // ...carrying all three writes
}

TEST(PersistObjectDe, EpochJournalsAsOneAtomicFrame) {
  const std::string dir = test_dir("de_epoch");
  sim::VirtualClock clock;
  ObjectDe de(clock, durable_instant());
  Engine engine({dir, 0});
  ASSERT_TRUE(de.enable_persistence(&engine).ok());
  ObjectStore& store = de.create_store("s");

  std::vector<EpochWrite> writes;
  for (int i = 0; i < 5; ++i) {
    EpochWrite w;
    w.key = "k" + std::to_string(i);
    w.data = Value(i);
    writes.push_back(std::move(w));
  }
  auto results = store.put_epoch_sync("me", std::move(writes));
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  auto gens = Engine::inspect(dir);
  ASSERT_EQ(gens.size(), 1u);
  EXPECT_EQ(gens[0].journal_frames, 1u);
  EXPECT_EQ(gens[0].journal_records, 5u);

  // The frame's counter footer carries the epoch's full reservation.
  de.crash();
  de.recover();
  auto next = de.store("s")->put_sync("me", "z", Value(9));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 6u);  // 5 epoch revisions + 1
}

TEST(PersistObjectDe, KernelGcDrivesGenerationReclamation) {
  // RetentionManager registers with the kernel; the persistence engine's
  // generation GC rides the same run_gc() hook chain.
  const std::string dir = test_dir("de_gc");
  sim::VirtualClock clock;
  ObjectDe de(clock, durable_instant());
  RetentionManager retention(de);
  retention.register_with_kernel("gc");
  Engine engine({dir, 0});
  ASSERT_TRUE(de.enable_persistence(&engine).ok());

  ObjectStore& store = de.create_store("s");
  ASSERT_TRUE(store.put_sync("me", "a", Value(1)).ok());
  ASSERT_TRUE(de.snapshot_now().ok());
  ASSERT_TRUE(store.put_sync("me", "b", Value(2)).ok());
  ASSERT_TRUE(de.snapshot_now().ok());

  ASSERT_TRUE(std::filesystem::exists(engine.journal_path(0)));
  EXPECT_GE(de.kernel().run_gc(), 2u);  // generations 0 and 1
  EXPECT_FALSE(std::filesystem::exists(engine.journal_path(0)));
  EXPECT_TRUE(std::filesystem::exists(engine.snapshot_path(2)));

  // Post-GC recovery still sees everything.
  de.crash();
  de.recover();
  EXPECT_NE(de.store("s")->peek("a"), nullptr);
  EXPECT_NE(de.store("s")->peek("b"), nullptr);
}

TEST(PersistObjectDe, TornAppendFailsTheOpAndRetryMatchesOracle) {
  const std::string dir = test_dir("de_torn_append");
  sim::VirtualClock clock;
  ObjectDe de(clock, durable_instant());
  Engine engine({dir, 0});
  ASSERT_TRUE(de.enable_persistence(&engine).ok());
  ObjectStore& store = de.create_store("s");
  ASSERT_TRUE(store.put_sync("me", "a", Value(1)).ok());

  // Crash exactly one append.
  int fires = 0;
  engine.set_fault_hook([&fires](CrashPoint p) {
    return p == CrashPoint::kJournalAppend && fires++ == 0;
  });
  auto failed = store.put_sync("me", "b", Value(2));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, common::Error::Code::kUnavailable);
  EXPECT_FALSE(de.available());

  de.recover();
  EXPECT_EQ(de.store("s")->peek("b"), nullptr);  // op was not durable
  auto retried = de.store("s")->put_sync("me", "b", Value(2));
  ASSERT_TRUE(retried.ok());

  // Oracle: the same two puts with no crash.
  const std::string oracle_dir = test_dir("de_torn_append_oracle");
  sim::VirtualClock oracle_clock;
  ObjectDe oracle(oracle_clock, durable_instant());
  Engine oracle_engine({oracle_dir, 0});
  ASSERT_TRUE(oracle.enable_persistence(&oracle_engine).ok());
  ObjectStore& oracle_store = oracle.create_store("s");
  ASSERT_TRUE(oracle_store.put_sync("me", "a", Value(1)).ok());
  auto oracle_b = oracle_store.put_sync("me", "b", Value(2));
  ASSERT_TRUE(oracle_b.ok());
  EXPECT_EQ(retried.value(), oracle_b.value());
}


TEST(PersistObjectDe, AutoSnapshotSlicesBetweenCommitsAndFinishesWhenIdle) {
  const std::string dir = test_dir("de_sliced");
  sim::VirtualClock clock;
  ObjectDeProfile profile = durable_instant();
  profile.write_rt = sim::LatencyModel::constant_ms(1.0);
  ObjectDe de(clock, profile);
  Engine engine({dir, 400});
  ASSERT_TRUE(de.enable_persistence(&engine).ok());
  ObjectStore& store = de.create_store("s");
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store.put_sync("me", "k" + std::to_string(i), Value(i)).ok());
  }
  EXPECT_EQ(engine.stats().snapshots, 0u);

  // 200 writes in flight at once: the 100th crosses the cadence and cuts a
  // 400-object snapshot, whose slices then ride the following commits.
  std::vector<bool> pending_after;
  std::vector<std::uint64_t> generation_after;
  for (int i = 300; i < 500; ++i) {
    store.put("me", "k" + std::to_string(i), Value(i),
              [&](common::Result<std::uint64_t> r) {
                ASSERT_TRUE(r.ok());
                pending_after.push_back(engine.snapshot_pending());
                generation_after.push_back(engine.generation());
              });
  }
  clock.run_all();
  ASSERT_EQ(pending_after.size(), 200u);
  EXPECT_EQ(generation_after[98], 0u);
  EXPECT_EQ(generation_after[99], 1u);  // rotated at the cut
  const std::size_t slices =
      (400 + Engine::kSnapshotSliceObjects - 1) / Engine::kSnapshotSliceObjects;
  for (std::size_t i = 99; i < 99 + slices - 1; ++i) {
    EXPECT_TRUE(pending_after[i]) << "commit " << i;
  }
  EXPECT_FALSE(pending_after[99 + slices - 1]);
  EXPECT_EQ(engine.stats().snapshots, 1u);

  // The snapshot holds the cut's 400 objects; the journal the rest.
  Engine reader({dir, 0});
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(reader.stats().snapshots_skipped, 0u);
  EXPECT_EQ(reader.stats().frames_replayed, 100u);
  EXPECT_EQ(recovered.value().object_count(), 500u);

  // A cut with no other write in flight finishes at once.
  ASSERT_TRUE(store.put_sync("me", "extra", Value(1)).ok());
  ASSERT_TRUE(de.snapshot_now().ok());
  EXPECT_FALSE(engine.snapshot_pending());
  EXPECT_EQ(engine.stats().snapshots, 2u);
}

TEST(PersistObjectDe, CrashMidSnapshotAbandonsItAndRecoversEverything) {
  const std::string dir = test_dir("de_slice_crash");
  sim::VirtualClock clock;
  ObjectDeProfile profile = durable_instant();
  profile.write_rt = sim::LatencyModel::constant_ms(1.0);
  ObjectDe de(clock, profile);
  Engine engine({dir, 300});
  ASSERT_TRUE(de.enable_persistence(&engine).ok());
  ObjectStore& store = de.create_store("s");
  for (int i = 0; i < 290; ++i) {
    ASSERT_TRUE(store.put_sync("me", "k" + std::to_string(i), Value(i)).ok());
  }
  // Crash the second slice of the snapshot cut at the 300th record.
  int slices = 0;
  engine.set_fault_hook([&slices](CrashPoint point) {
    return point == CrashPoint::kSnapshotSlice && slices++ == 1;
  });
  int acked = 0;
  int rejected = 0;
  for (int i = 290; i < 330; ++i) {
    store.put("me", "k" + std::to_string(i), Value(i),
              [&](common::Result<std::uint64_t> r) {
                ++(r.ok() ? acked : rejected);
              });
  }
  clock.run_all();
  // The 300th record (k299) cuts and runs slice 0; the next commit (k300)
  // runs slice 1, which crashes after that commit was acked. Every write
  // after it is rejected.
  EXPECT_EQ(acked, 11);
  EXPECT_EQ(rejected, 29);
  EXPECT_FALSE(de.available());
  EXPECT_EQ(engine.stats().snapshots, 0u);

  engine.set_fault_hook(nullptr);
  de.recover();
  ASSERT_TRUE(de.available());
  EXPECT_EQ(engine.stats().snapshots_skipped, 1u);  // the torn snapshot
  EXPECT_EQ(engine.stats().frames_replayed, 301u);  // journals 0 and 1
  EXPECT_EQ(de.store("s")->size(), 301u);
  const StateObject* last = de.store("s")->peek("k300");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->version, 301u);
}

}  // namespace
}  // namespace knactor::de::persist
