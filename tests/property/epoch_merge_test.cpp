// Epoch-merge differential suite (`ctest -L shard`): the epoch commit
// pipeline (ObjectStore::put_epoch) must be *observably identical* to the
// 1-shard oracle for every shard count — byte-equal
// store state, per-op results, watch-event order, batched-watch
// composition, audit trail, lineage records, DE stats, and (for the full
// retail composition) metrics and trace shape.
//
// Three layers of evidence:
//   * Epoch differential — randomized epoch workloads (100 seeds, with
//     conflicts, denials-by-version, deletes-of-missing, and within-epoch
//     overwrite chains) across shards {1,2,8}.
//   * Batching equivalence — put/patch/remove run as single-op epochs, and
//     on failure-free batches n single-op epochs commit exactly what one
//     n-op epoch does: same versions, same commit seqs, same watch order,
//     same audit, same lineage. The stamp rule (an epoch consumes stamps
//     only through its last committed op) is pinned case by case, and a
//     fixed per-op script pins the delivery log of the per-op path that
//     single-op epochs replaced.
//   * Runtime differential — the retail composition, whose integrator
//     patches commit as single-op epochs, comparing state, metrics, and
//     traces across configs.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/retail_knactor.h"
#include "core/runtime.h"
#include "de/object.h"
#include "de/persist/engine.h"

#include "../integration/chaos_harness.h"

namespace knactor {
namespace {

using common::Value;

// The shard counts under test; index 0 is the 1-shard oracle.
const std::size_t kShards[] = {1, 2, 8};

std::string config_name(std::size_t shards) {
  return std::to_string(shards) + "s";
}

char event_char(de::WatchEventType t) {
  switch (t) {
    case de::WatchEventType::kAdded: return 'A';
    case de::WatchEventType::kModified: return 'M';
    case de::WatchEventType::kDeleted: return 'D';
  }
  return '?';
}

std::string stats_digest(const de::ObjectDeStats& s) {
  std::ostringstream out;
  out << "r=" << s.reads << " w=" << s.writes << " d=" << s.deletes
      << " we=" << s.watch_events << " wb=" << s.watch_batches
      << " wc=" << s.watch_events_coalesced << " pd=" << s.permission_denials
      << " vc=" << s.version_conflicts << " ur=" << s.unavailable_rejections;
  return out.str();
}

std::string audit_digest(const de::ObjectDe& de) {
  std::string out;
  for (const auto& e : de.audit_log()) {
    out += std::to_string(e.time) + ":" + e.principal + ":" +
           std::to_string(static_cast<int>(e.verb)) + ":" + e.store + "/" +
           e.key + (e.allowed ? "+" : "-") + " ";
  }
  return out;
}

std::string lineage_digest(de::ObjectDe& de) {
  std::string out;
  for (const auto& rec : de.kernel().provenance().records()) {
    out += rec.op + "@" + rec.stage + ":" + rec.output.store + "/" +
           rec.output.key + ":" + std::to_string(rec.output.version) + "<";
    for (const auto& in : rec.inputs) {
      out += in.store + "/" + in.key + ":" + std::to_string(in.version) + ",";
    }
    out += ">t" + std::to_string(rec.trace_id) + " ";
  }
  return out;
}

// Everything an epoch run exposes to an observer.
struct Observation {
  std::string state;     // canonical store fingerprint
  std::string results;   // per-op Result values/errors, submission order
  std::string watch_log; // per-event deliveries with version + commit seq
  std::string batch_log; // batched deliveries (boundaries + order)
  std::string audit;     // full audit trail
  std::string lineage;   // provenance ring contents
  std::string stats;     // ObjectDeStats digest
};

// One randomized epoch workload. All randomness comes from `seed`; the
// shard count must not change anything observable.
Observation run_epoch_workload(std::uint32_t seed, std::size_t shards) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::apiserver());  // durable
  de.set_shards(shards);
  de.enable_audit(4096);
  de.kernel().enable_provenance(4096);

  de::ObjectStore& orders = de.create_store("orders");
  de::ObjectStore& inventory = de.create_store("inventory");

  Observation obs;
  EXPECT_TRUE(orders
                  .subscribe("observer", {},
                             [&](const de::WatchEvent& e) {
                               obs.watch_log += event_char(e.type);
                               obs.watch_log +=
                                   e.object.key + ":" +
                                   std::to_string(e.object.version) + "#" +
                                   std::to_string(e.ctx.commit_seq) + " ";
                             })
                  .ok());
  de::SubscriptionSpec windowed;
  windowed.qos.window = 5 * sim::kMillisecond;
  EXPECT_TRUE(orders
                  .subscribe_batch(
                      "observer", windowed,
                      [&](const de::WatchBatch& b) {
                        obs.batch_log += "[c" + std::to_string(b.commits) + "|";
                        for (const auto& e : b.events) {
                          obs.batch_log += event_char(e.type);
                          obs.batch_log += e.object.key + ":" +
                                           std::to_string(e.object.version) +
                                           " ";
                        }
                        obs.batch_log += "] ";
                      })
                  .ok());

  std::mt19937 rng(seed);
  auto key = [&](const char* prefix) {
    return std::string(prefix) + "-" + std::to_string(rng() % 8);
  };

  const int epochs = 6;
  for (int e = 0; e < epochs; ++e) {
    std::vector<de::EpochWrite> writes;
    const int ops = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < ops; ++i) {
      de::EpochWrite w;
      w.key = key(rng() % 3 == 0 ? "inv" : "ord");
      switch (rng() % 5) {
        case 0:  // upsert
          w.data = Value::object({{"e", e}, {"op", i},
                                  {"qty", static_cast<int>(rng() % 50)}});
          break;
        case 1:  // patch
          w.data = Value::object({{"patched", i}});
          w.merge = true;
          break;
        case 2:  // delete (missing keys fail NotFound — a stamp hole)
          w.remove = true;
          break;
        case 3:  // guarded write; mismatches conflict (another stamp hole)
          w.data = Value::object({{"guarded", i}});
          w.expected_version = rng() % 4 == 0 ? 1 : 0;
          break;
        default:  // within-epoch overwrite chain on a pinned key
          w.key = "ord-0";
          w.data = Value::object({{"chain", i}});
          w.merge = rng() % 2 == 0;
          break;
      }
      writes.push_back(std::move(w));
    }
    de::ObjectStore& store = rng() % 4 == 0 ? inventory : orders;
    store.put_epoch("writer", std::move(writes),
                    [&obs](std::vector<common::Result<std::uint64_t>> rs) {
                      for (const auto& r : rs) {
                        obs.results += r.ok()
                                           ? std::to_string(r.value())
                                           : std::string(r.error().code_name());
                        obs.results += " ";
                      }
                      obs.results += "| ";
                    });
    // Interleave execution with submission so flushes overlap epochs.
    if (rng() % 2 == 0) {
      for (int s = 0; s < 4 && clock.step(); ++s) {
      }
    }
  }
  while (clock.step()) {
  }

  obs.state = chaos::fingerprint_stores({&orders, &inventory});
  obs.audit = audit_digest(de);
  obs.lineage = lineage_digest(de);
  obs.stats = stats_digest(de.stats());
  return obs;
}

TEST(EpochMerge, MatchesSerialOracleAcross100Seeds) {
  for (std::uint32_t seed = 1; seed <= 100; ++seed) {
    Observation oracle = run_epoch_workload(seed, kShards[0]);
    // The workload must actually exercise the surfaces under test.
    ASSERT_FALSE(oracle.state.empty());
    ASSERT_FALSE(oracle.results.empty()) << "seed " << seed;
    ASSERT_FALSE(oracle.batch_log.empty()) << "seed " << seed;
    for (std::size_t c = 1; c < std::size(kShards); ++c) {
      Observation got = run_epoch_workload(seed, kShards[c]);
      const std::string where =
          "seed " + std::to_string(seed) + " config " + config_name(kShards[c]);
      EXPECT_EQ(got.state, oracle.state) << where;
      EXPECT_EQ(got.results, oracle.results) << where;
      EXPECT_EQ(got.watch_log, oracle.watch_log) << where;
      EXPECT_EQ(got.batch_log, oracle.batch_log) << where;
      EXPECT_EQ(got.audit, oracle.audit) << where;
      EXPECT_EQ(got.lineage, oracle.lineage) << where;
      EXPECT_EQ(got.stats, oracle.stats) << where;
      if (got.state != oracle.state) return;  // one dump is enough
    }
  }
}

// Re-running the same config twice must be bit-stable.
TEST(EpochMerge, RepeatedRunsAreBitStable) {
  for (std::size_t shards : kShards) {
    Observation a = run_epoch_workload(42, shards);
    Observation b = run_epoch_workload(42, shards);
    EXPECT_EQ(a.state, b.state) << config_name(shards);
    EXPECT_EQ(a.watch_log, b.watch_log) << config_name(shards);
    EXPECT_EQ(a.batch_log, b.batch_log) << config_name(shards);
    EXPECT_EQ(a.audit, b.audit) << config_name(shards);
    EXPECT_EQ(a.stats, b.stats) << config_name(shards);
  }
}

// ---------------------------------------------------------------------------
// Batching equivalence: on failure-free batches, n single-op epochs
// (put/patch/remove) and one n-op epoch (put_epoch) commit the same thing —
// versions, commit seqs, watch order, audit, and lineage all byte-equal.
// (Failures are where the two may differ: a failed op between committed
// ops of one epoch leaves a stamp hole, see the stamp-rule cases below.)
// ---------------------------------------------------------------------------

struct LegacyObservation {
  std::string state;
  std::string watch_log;
  std::string batch_log;
  std::string audit;
  std::string lineage;
};

LegacyObservation run_mixed(std::uint32_t seed, bool use_epoch) {
  sim::VirtualClock clock;
  // Instant profile: zero latency makes single-op submission order ==
  // execution order, so the two runs are comparable event-for-event.
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de.enable_audit(4096);
  de.kernel().enable_provenance(4096);
  de::ObjectStore& store = de.create_store("items");

  LegacyObservation obs;
  EXPECT_TRUE(store
                  .subscribe("observer", {},
                             [&](const de::WatchEvent& e) {
                               obs.watch_log += event_char(e.type);
                               obs.watch_log +=
                                   e.object.key + ":" +
                                   std::to_string(e.object.version) + "#" +
                                   std::to_string(e.ctx.commit_seq) + " ";
                             })
                  .ok());
  de::SubscriptionSpec windowed;
  windowed.qos.window = 5 * sim::kMillisecond;
  EXPECT_TRUE(store
                  .subscribe_batch(
                      "observer", windowed,
                      [&](const de::WatchBatch& b) {
                        obs.batch_log += "[c" + std::to_string(b.commits) + "|";
                        for (const auto& e : b.events) {
                          obs.batch_log += event_char(e.type);
                          obs.batch_log += e.object.key + ":" +
                                           std::to_string(e.object.version) +
                                           " ";
                        }
                        obs.batch_log += "] ";
                      })
                  .ok());

  std::mt19937 rng(seed);
  const int rounds = 5;
  for (int round = 0; round < rounds; ++round) {
    // Build a failure-free batch: puts and patches on a small key space,
    // plus deletes of keys known to exist.
    std::vector<de::EpochWrite> writes;
    const int ops = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < ops; ++i) {
      de::EpochWrite w;
      w.key = "k-" + std::to_string(rng() % 6);
      if (rng() % 3 == 0 && store.peek(w.key) != nullptr) {
        // Delete an existing key — but only if no earlier op in this batch
        // already deleted it (the second delete would fail NotFound).
        bool deleted_earlier = false;
        for (const auto& prior : writes) {
          if (prior.key == w.key && prior.remove) deleted_earlier = true;
        }
        if (!deleted_earlier) {
          w.remove = true;
          writes.push_back(std::move(w));
          continue;
        }
      }
      bool recreated = false;
      for (const auto& prior : writes) {
        if (prior.key == w.key) recreated = true;
      }
      w.merge = !recreated && rng() % 2 == 0;
      w.data = Value::object({{"round", round}, {"op", i}});
      writes.push_back(std::move(w));
    }
    if (use_epoch) {
      auto results = store.put_epoch_sync("writer", std::move(writes));
      for (const auto& r : results) {
        EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
      }
    } else {
      for (auto& w : writes) {
        if (w.remove) {
          EXPECT_TRUE(store.remove_sync("writer", w.key).ok());
        } else if (w.merge) {
          EXPECT_TRUE(store.patch_sync("writer", w.key, std::move(w.data)).ok());
        } else {
          EXPECT_TRUE(store.put_sync("writer", w.key, std::move(w.data)).ok());
        }
      }
    }
    while (clock.step()) {
    }
  }

  obs.state = chaos::fingerprint_stores({&store});
  obs.audit = audit_digest(de);
  obs.lineage = lineage_digest(de);
  return obs;
}

TEST(EpochMerge, FailureFreeEpochsMatchPerOpPath) {
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    LegacyObservation legacy = run_mixed(seed, /*use_epoch=*/false);
    LegacyObservation epoch = run_mixed(seed, /*use_epoch=*/true);
    const std::string where = "seed " + std::to_string(seed);
    EXPECT_EQ(epoch.state, legacy.state) << where;
    EXPECT_EQ(epoch.watch_log, legacy.watch_log) << where;
    EXPECT_EQ(epoch.batch_log, legacy.batch_log) << where;
    EXPECT_EQ(epoch.audit, legacy.audit) << where;
    EXPECT_EQ(epoch.lineage, legacy.lineage) << where;
  }
}


// ---------------------------------------------------------------------------
// Stamp rule: an epoch consumes versions and commit seqs only through its
// last committed op.
// ---------------------------------------------------------------------------

de::EpochWrite upsert(const std::string& key, int v) {
  de::EpochWrite w;
  w.key = key;
  w.data = Value::object({{"v", v}});
  return w;
}

de::EpochWrite conflicting(const std::string& key) {
  de::EpochWrite w = upsert(key, -1);
  w.expected_version = 99;
  return w;
}

de::EpochWrite remove_missing() {
  de::EpochWrite w;
  w.key = "missing";
  w.remove = true;
  return w;
}

TEST(EpochStamps, TrailingFailuresReleaseTheirStamps) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  const std::uint64_t rev0 = de.kernel().peek_next_revision();
  const std::uint64_t seq0 = de.kernel().commit_seq();
  std::vector<de::EpochWrite> writes;
  writes.push_back(upsert("a", 1));
  writes.push_back(upsert("b", 2));
  writes.push_back(conflicting("c"));
  writes.push_back(remove_missing());
  auto results = store.put_epoch_sync("w", std::move(writes));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].value(), rev0);
  EXPECT_EQ(results[1].value(), rev0 + 1);
  EXPECT_FALSE(results[2].ok());
  EXPECT_FALSE(results[3].ok());
  // Only the two committed ops consumed stamps.
  EXPECT_EQ(de.kernel().peek_next_revision(), rev0 + 2);
  EXPECT_EQ(de.kernel().commit_seq(), seq0 + 2);
  EXPECT_EQ(store.put_sync("w", "d", Value::object({})).value(), rev0 + 2);
}

TEST(EpochStamps, InteriorFailuresLeaveHoles) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  std::vector<std::uint64_t> seqs;
  ASSERT_TRUE(store
                  .subscribe("w", {},
                             [&](const de::WatchEvent& e) {
                               seqs.push_back(e.ctx.commit_seq);
                             })
                  .ok());
  const std::uint64_t rev0 = de.kernel().peek_next_revision();
  const std::uint64_t seq0 = de.kernel().commit_seq();
  std::vector<de::EpochWrite> writes;
  writes.push_back(upsert("a", 1));
  writes.push_back(conflicting("b"));
  writes.push_back(remove_missing());
  writes.push_back(upsert("c", 3));
  auto results = store.put_epoch_sync("w", std::move(writes));
  clock.run_all();
  // The failed put keeps its revision and both failures keep their seqs.
  EXPECT_EQ(results[0].value(), rev0);
  EXPECT_EQ(results[3].value(), rev0 + 2);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{seq0 + 1, seq0 + 4}));
  EXPECT_EQ(de.kernel().peek_next_revision(), rev0 + 3);
  EXPECT_EQ(de.kernel().commit_seq(), seq0 + 4);
}

TEST(EpochStamps, AllFailedEpochAppendsNoJournalFrame) {
  const std::string dir = ::testing::TempDir() + "kn_epoch_stamps";
  std::filesystem::remove_all(dir);
  sim::VirtualClock clock;
  de::ObjectDeProfile profile = de::ObjectDeProfile::instant();
  profile.durable = true;
  de::ObjectDe de(clock, profile);
  de::persist::Engine engine({dir, 0});
  ASSERT_TRUE(de.enable_persistence(&engine).ok());
  de::ObjectStore& store = de.create_store("s");
  ASSERT_TRUE(store.put_sync("w", "a", Value::object({})).ok());
  const std::uint64_t frames = engine.stats().appends;
  const std::uint64_t rev = de.kernel().peek_next_revision();
  const std::uint64_t seq = de.kernel().commit_seq();

  std::vector<de::EpochWrite> writes;
  writes.push_back(conflicting("a"));
  writes.push_back(remove_missing());
  for (const auto& r : store.put_epoch_sync("w", std::move(writes))) {
    EXPECT_FALSE(r.ok());
  }
  EXPECT_FALSE(store.remove_sync("w", "missing").ok());
  EXPECT_EQ(engine.stats().appends, frames);
  EXPECT_EQ(de.kernel().peek_next_revision(), rev);
  EXPECT_EQ(de.kernel().commit_seq(), seq);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Delivery pin: a fixed per-op script on the redis profile (sampled
// latencies, so every RNG draw shows up in the virtual timeline) with a
// per-event, a batched and a filtered subscriber plus one write trigger.
// The expected log was captured from the per-op commit path that
// single-op epochs replaced; any drift in delivery order, stamps, or RNG
// draw order changes it.
// ---------------------------------------------------------------------------

std::string run_delivery_pin(std::size_t shards) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::redis());
  de.set_shards(shards);
  de::ObjectStore& store = de.create_store("orders");

  de::Rbac& rbac = de.rbac();
  de::Role all;
  all.name = "all";
  de::PolicyRule any;
  any.store = "*";
  any.verbs = {de::Verb::kGet,    de::Verb::kList,   de::Verb::kWatch,
               de::Verb::kCreate, de::Verb::kUpdate, de::Verb::kDelete,
               de::Verb::kInvokeUdf};
  all.rules.push_back(any);
  de::Role reader;
  reader.name = "reader";
  de::PolicyRule read;
  read.store = "orders";
  read.verbs = {de::Verb::kGet};
  reader.rules.push_back(read);
  de::Role clerk;
  clerk.name = "clerk";
  de::PolicyRule update;
  update.store = "orders";
  update.verbs = {de::Verb::kUpdate};
  update.fields.denied = {"secret"};
  clerk.rules.push_back(update);
  EXPECT_TRUE(rbac.add_role(all).ok());
  EXPECT_TRUE(rbac.add_role(reader).ok());
  EXPECT_TRUE(rbac.add_role(clerk).ok());
  EXPECT_TRUE(rbac.bind("writer", "all").ok());
  EXPECT_TRUE(rbac.bind("intruder", "reader").ok());
  EXPECT_TRUE(rbac.bind("clerk", "clerk").ok());
  rbac.set_enabled(true);

  std::string log;
  auto line = [&](const char* who, const de::WatchEvent& e) {
    log += std::string(who) + " t=" + std::to_string(clock.now()) + " " +
           event_char(e.type) + " " + e.object.key + " v" +
           std::to_string(e.object.version) + " s" +
           std::to_string(e.ctx.commit_seq) + "\n";
  };
  de::SubscriptionSpec every;
  EXPECT_TRUE(store
                  .subscribe("writer", every,
                             [&](const de::WatchEvent& e) { line("E", e); })
                  .ok());
  de::SubscriptionSpec batched;
  batched.qos.window = 3 * sim::kMillisecond;
  EXPECT_TRUE(store
                  .subscribe_batch("writer", batched,
                                   [&](const de::WatchBatch& b) {
                                     log += "B c" + std::to_string(b.commits) +
                                            "\n";
                                     for (const auto& e : b.events) {
                                       line(" b", e);
                                     }
                                   })
                  .ok());
  de::SubscriptionSpec filtered;
  filtered.prefix = "o/";
  filtered.filter = "qty > 25";
  EXPECT_TRUE(store
                  .subscribe("writer", filtered,
                             [&](const de::WatchEvent& e) { line("F", e); })
                  .ok());
  // Write trigger: every commit under o/ mirrors into t/ from a UDF (an
  // engine-level write, which itself notifies the subscribers above).
  EXPECT_TRUE(de.register_udf(
                    "writer", "mirror",
                    [](de::UdfContext& ctx,
                       const Value& args) -> common::Result<Value> {
                      const std::string key = args.get("key")->as_string();
                      auto r = ctx.patch(
                          "orders", "t/" + key.substr(2),
                          Value::object({{"event", *args.get("event")}}));
                      if (!r.ok()) return r.error();
                      return Value(static_cast<std::int64_t>(r.value()));
                    })
                  .ok());
  EXPECT_TRUE(de.add_trigger("orders", "o/", "mirror").ok());

  std::mt19937 rng(20241017);
  auto record = [&log](int i) {
    return [&log, i](common::Result<std::uint64_t> r) {
      log += "r" + std::to_string(i) + "=" +
             (r.ok() ? std::to_string(r.value())
                     : std::string(r.error().code_name())) +
             "\n";
    };
  };
  for (int i = 0; i < 200; ++i) {
    const std::string key = "o/" + std::to_string(rng() % 10);
    const auto qty = static_cast<std::int64_t>(rng() % 50);
    switch (rng() % 7) {
      case 0:
      case 1:
        store.put("writer", key, Value::object({{"qty", qty}, {"n", i}}),
                  record(i));
        break;
      case 2:
        store.patch("writer", key, Value::object({{"qty", qty}}), record(i));
        break;
      case 3: {  // versioned: half of them guess a stale version
        const de::StateObject* cur = store.peek(key);
        std::uint64_t expected = cur == nullptr ? 0 : cur->version;
        if (rng() % 2 == 0) expected += 7;
        store.put_versioned("writer", key, Value::object({{"qty", qty}}),
                            expected, record(i));
        break;
      }
      case 4:  // missing keys fail NotFound
        store.remove("writer", rng() % 2 == 0 ? key : "o/missing",
                     [&log, i](common::Status s) {
                       log += "r" + std::to_string(i) + "=" +
                              (s.ok() ? std::string("ok")
                                      : std::string(s.error().code_name())) +
                              "\n";
                     });
        break;
      case 5:  // no update grant
        store.put("intruder", key, Value::object({{"qty", qty}}), record(i));
        break;
      default:  // update grant, but the field rule denies `secret`
        store.patch("clerk", key, Value::object({{"secret", qty}}),
                    record(i));
        break;
    }
    for (std::uint32_t s = rng() % 6; s > 0 && clock.step(); --s) {
    }
  }
  while (clock.step()) {
  }
  return log;
}

// Captured from the per-op commit path; regenerate only for an intended
// change to delivery semantics.
const char* const kDeliveryPin = R"pin(r0=FailedPrecondition
r1=1
E t=5568 A o/6 v1 s2
F t=5618 A o/6 v1 s2
E t=5682 A t/6 v2 s3
r2=3
E t=8612 A o/1 v3 s4
B c4
 b t=8636 A o/6 v1 s2
 b t=8636 A t/6 v2 s3
 b t=8636 A o/1 v3 s4
 b t=8636 A t/1 v4 s5
E t=8744 A t/1 v4 s5
r3=5
E t=11515 A o/9 v5 s6
E t=11585 A t/9 v6 s7
r4=7
r5=9
E t=14054 A o/4 v7 s8
E t=14139 A o/8 v9 s10
E t=14151 A t/4 v8 s9
E t=14251 A t/8 v10 s11
r6=ok
B c8
 b t=14436 A o/9 v5 s6
 b t=14436 A t/9 v6 s7
 b t=14436 A o/4 v7 s8
 b t=14436 A t/4 v8 s9
 b t=14436 D o/8 v9 s12
 b t=14436 A t/8 v11 s13
E t=14551 D o/8 v9 s12
E t=14632 M t/8 v11 s13
r7=NotFound
r8=12
r9=14
E t=17228 M o/6 v12 s14
E t=17254 M t/6 v13 s15
E t=17394 M o/1 v14 s16
E t=17479 M t/1 v15 s17
r10=FailedPrecondition
r11=NotFound
r12=16
E t=20102 A o/7 v16 s18
B c6
 b t=20137 M o/6 v12 s14
 b t=20137 M t/6 v13 s15
 b t=20137 M o/1 v14 s16
 b t=20137 M t/1 v15 s17
 b t=20137 A o/7 v16 s18
 b t=20137 A t/7 v17 s19
F t=20161 A o/7 v16 s18
r13=NotFound
E t=20251 A t/7 v17 s19
r14=PermissionDenied
r15=18
E t=23321 M o/6 v18 s20
E t=23390 M t/6 v19 s21
r16=20
E t=25857 A o/3 v20 s22
E t=25896 A t/3 v21 s23
r17=PermissionDenied
r18=22
E t=26313 A o/2 v22 s24
B c6
 b t=26344 M o/6 v18 s20
 b t=26344 M t/6 v19 s21
 b t=26344 A o/3 v20 s22
 b t=26344 A t/3 v21 s23
 b t=26344 A o/2 v22 s24
 b t=26344 A t/2 v23 s25
E t=26431 A t/2 v23 s25
r20=24
r19=NotFound
E t=28894 M o/1 v24 s26
r21=ok
E t=29121 M t/1 v25 s27
r22=27
E t=29284 D o/6 v18 s28
E t=29374 M t/6 v26 s29
E t=29393 M o/4 v27 s30
E t=29448 M t/4 v28 s31
r23=29
r25=31
E t=31693 A o/6 v29 s32
F t=31783 A o/6 v29 s32
E t=31806 M t/6 v30 s33
B c10
 b t=31867 M o/1 v24 s26
 b t=31867 M t/1 v25 s27
 b t=31867 M o/4 v27 s30
 b t=31867 M t/4 v28 s31
 b t=31867 M o/6 v29 s32
 b t=31867 M t/6 v30 s33
 b t=31867 A o/8 v31 s34
 b t=31867 M t/8 v32 s35
E t=31915 A o/8 v31 s34
r24=PermissionDenied
r26=33
E t=32108 M t/8 v32 s35
r27=35
E t=32257 M o/3 v33 s36
F t=32266 M o/3 v33 s36
E t=32393 M t/3 v34 s37
E t=32446 M o/7 v35 s38
E t=32480 M t/7 v36 s39
r28=37
r30=39
E t=34511 M o/2 v37 s40
F t=34591 M o/2 v37 s40
E t=34623 M t/2 v38 s41
r29=PermissionDenied
r32=FailedPrecondition
E t=34763 M o/6 v39 s42
F t=34776 M o/6 v39 s42
r31=41
E t=34881 M t/6 v40 s43
F t=35017 M o/3 v41 s44
E t=35052 M o/3 v41 s44
r33=FailedPrecondition
r34=PermissionDenied
E t=35124 M t/3 v42 s45
B c10
 b t=35266 M o/7 v35 s38
 b t=35266 M t/7 v36 s39
 b t=35266 M o/2 v37 s40
 b t=35266 M t/2 v38 s41
 b t=35266 M o/6 v39 s42
 b t=35266 M t/6 v40 s43
 b t=35266 M o/3 v41 s44
 b t=35266 M t/3 v42 s45
r35=PermissionDenied
r36=PermissionDenied
r38=PermissionDenied
r37=43
F t=37829 M o/2 v43 s46
E t=37833 M o/2 v43 s46
E t=37885 M t/2 v44 s47
r39=45
r40=47
E t=38175 M o/1 v45 s48
E t=38240 M t/1 v46 s49
F t=38281 M o/6 v47 s50
E t=38318 M o/6 v47 s50
E t=38422 M t/6 v48 s51
r41=ok
E t=40442 D o/8 v31 s52
r42=50
r43=PermissionDenied
E t=40603 M t/8 v49 s53
r44=52
r45=FailedPrecondition
F t=40767 M o/9 v50 s54
E t=40798 M o/9 v50 s54
E t=40829 M t/9 v51 s55
B c12
 b t=40838 M o/2 v43 s46
 b t=40838 M t/2 v44 s47
 b t=40838 M o/1 v45 s48
 b t=40838 M t/1 v46 s49
 b t=40838 M o/6 v47 s50
 b t=40838 M t/6 v48 s51
 b t=40838 D o/8 v31 s52
 b t=40838 M t/8 v49 s53
 b t=40838 M o/9 v50 s54
 b t=40838 M t/9 v51 s55
 b t=40838 A o/0 v52 s56
 b t=40838 A t/0 v53 s57
E t=40862 A o/0 v52 s56
r49=54
E t=40970 A t/0 v53 s57
r47=FailedPrecondition
r48=PermissionDenied
r46=PermissionDenied
E t=41094 M o/2 v54 s58
E t=41210 M t/2 v55 s59
r51=56
r52=58
r50=59
F t=43232 M o/2 v56 s60
E t=43245 M o/2 v56 s60
E t=43274 M o/6 v58 s62
E t=43286 M o/2 v59 s63
r53=62
E t=43384 M t/2 v57 s61
F t=43384 M o/6 v58 s62
r54=PermissionDenied
E t=43389 M t/6 v60 s64
r55=64
E t=43537 M t/2 v61 s65
E t=43537 M o/4 v62 s66
F t=43537 M o/4 v62 s66
r56=66
E t=43693 M t/4 v63 s67
F t=43722 M o/1 v64 s68
E t=43742 M o/1 v64 s68
E t=43763 M t/1 v65 s69
r57=68
E t=43907 A o/8 v66 s70
r60=PermissionDenied
r59=70
E t=43999 M t/8 v67 s71
r58=72
F t=44091 M o/3 v68 s72
E t=44091 M o/3 v68 s72
B c20
 b t=44141 M o/6 v58 s62
 b t=44141 M o/2 v59 s63
 b t=44141 M t/6 v60 s64
 b t=44141 M t/2 v61 s65
 b t=44141 M o/4 v62 s66
 b t=44141 M t/4 v63 s67
 b t=44141 A o/8 v66 s70
 b t=44141 M t/8 v67 s71
 b t=44141 M o/3 v68 s72
 b t=44141 M t/3 v69 s73
 b t=44141 M o/9 v70 s74
 b t=44141 M t/9 v71 s75
 b t=44141 M o/1 v72 s76
 b t=44141 M t/1 v73 s77
E t=44146 M t/3 v69 s73
F t=44150 M o/9 v70 s74
E t=44156 M o/9 v70 s74
F t=44230 M o/1 v72 s76
E t=44240 M o/1 v72 s76
E t=44259 M t/9 v71 s75
E t=44353 M t/1 v73 s77
r61=PermissionDenied
r63=74
r62=PermissionDenied
r64=PermissionDenied
E t=46087 M o/8 v74 s78
E t=46155 M t/8 v75 s79
r65=FailedPrecondition
r66=76
r69=78
r67=FailedPrecondition
r73=NotFound
E t=46466 M o/2 v76 s80
r70=FailedPrecondition
r71=ok
r68=PermissionDenied
r72=NotFound
E t=46601 M t/2 v77 s81
r74=81
E t=46601 M o/6 v78 s82
F t=46601 M o/6 v78 s82
E t=46693 M t/6 v79 s83
E t=46742 D o/3 v68 s84
r75=PermissionDenied
F t=46753 D o/3 v68 s84
E t=46851 M o/7 v81 s86
E t=46869 M t/3 v80 s85
r77=PermissionDenied
r79=83
E t=46987 M t/7 v82 s87
r78=PermissionDenied
r76=85
E t=47150 M o/0 v83 s88
E t=47224 M t/0 v84 s89
E t=47260 M o/9 v85 s90
E t=47361 M t/9 v86 s91
r80=NotFound
r81=87
r84=PermissionDenied
r82=89
B c18
 b t=49115 M o/8 v74 s78
 b t=49115 M t/8 v75 s79
 b t=49115 M o/2 v76 s80
 b t=49115 M t/2 v77 s81
 b t=49115 D o/3 v68 s84
 b t=49115 M t/3 v80 s85
 b t=49115 M o/7 v81 s86
 b t=49115 M t/7 v82 s87
 b t=49115 M o/0 v83 s88
 b t=49115 M t/0 v84 s89
 b t=49115 M o/9 v85 s90
 b t=49115 M t/9 v86 s91
 b t=49115 M o/1 v87 s92
 b t=49115 M t/1 v88 s93
 b t=49115 M o/6 v89 s94
 b t=49115 M t/6 v90 s95
r83=91
r85=PermissionDenied
E t=49210 M o/1 v87 s92
E t=49219 M t/1 v88 s93
F t=49256 M o/6 v89 s94
E t=49262 M o/6 v89 s94
E t=49362 M o/2 v91 s96
F t=49362 M o/2 v91 s96
r88=93
E t=49457 M t/6 v90 s95
r90=95
r86=FailedPrecondition
r87=96
r89=FailedPrecondition
E t=49468 M t/2 v92 s97
r92=FailedPrecondition
r91=99
F t=49629 A o/5 v93 s98
E t=49629 A o/5 v93 s98
r93=101
E t=49721 A t/5 v94 s99
E t=49721 M o/4 v96 s101
E t=49721 A o/3 v95 s100
F t=49721 A o/3 v95 s100
E t=49813 M t/3 v97 s102
E t=49865 M t/4 v98 s103
E t=49872 M o/6 v99 s104
E t=49952 M t/6 v100 s105
E t=49979 M o/3 v101 s106
F t=49991 M o/3 v101 s106
r94=FailedPrecondition
E t=50059 M t/3 v102 s107
r95=103
r96=ok
r97=106
r99=108
E t=51896 M o/9 v103 s108
r98=110
r101=111
E t=51988 D o/4 v96 s110
E t=51999 M t/9 v104 s109
r102=PermissionDenied
r100=PermissionDenied
F t=52160 M o/7 v106 s112
E t=52160 M t/4 v105 s111
E t=52160 M o/7 v106 s112
E t=52160 M t/7 v107 s113
r103=PermissionDenied
E t=52160 M o/6 v108 s114
F t=52160 M o/6 v108 s114
E t=52230 M o/1 v110 s116
E t=52236 M t/6 v109 s115
E t=52259 M o/1 v111 s117
r104=FailedPrecondition
r105=114
B c26
 b t=52410 A o/5 v93 s98
 b t=52410 A t/5 v94 s99
 b t=52410 A o/3 v101 s106
 b t=52410 M t/3 v102 s107
 b t=52410 M o/9 v103 s108
 b t=52410 M t/9 v104 s109
 b t=52410 D o/4 v96 s110
 b t=52410 M t/4 v105 s111
 b t=52410 M o/7 v106 s112
 b t=52410 M t/7 v107 s113
 b t=52410 M o/6 v108 s114
 b t=52410 M t/6 v109 s115
 b t=52410 M o/1 v111 s117
 b t=52410 M t/1 v113 s119
 b t=52410 M o/2 v114 s120
 b t=52410 M t/2 v115 s121
E t=52410 M t/1 v112 s118
r107=116
E t=52410 M t/1 v113 s119
r109=NotFound
r108=117
r106=PermissionDenied
r111=120
r110=ok
E t=52582 M o/2 v114 s120
E t=52754 M o/1 v116 s122
F t=52754 M o/1 v116 s122
E t=52754 M o/7 v117 s123
E t=52754 M t/2 v115 s121
r112=NotFound
E t=52782 M t/1 v118 s124
E t=52790 D o/3 v101 s127
E t=52799 M t/7 v119 s125
F t=52828 D o/3 v101 s127
F t=52830 M o/1 v120 s126
E t=52837 M o/1 v120 s126
E t=52942 M t/1 v121 s128
E t=52974 M t/3 v122 s129
r114=123
r113=PermissionDenied
r117=125
r116=PermissionDenied
r115=127
E t=54648 M o/6 v123 s130
E t=54666 M t/6 v124 s131
r119=NotFound
r118=PermissionDenied
r120=PermissionDenied
E t=54730 M o/5 v125 s132
r121=PermissionDenied
E t=54773 M o/7 v127 s134
F t=54822 M o/7 v127 s134
r122=NotFound
E t=54860 M t/5 v126 s133
r123=FailedPrecondition
E t=54924 M t/7 v128 s135
r129=PermissionDenied
r124=PermissionDenied
r126=PermissionDenied
r127=129
r128=131
r125=FailedPrecondition
r132=PermissionDenied
r133=133
r130=135
r131=136
E t=55443 M o/1 v129 s136
r134=139
E t=55615 M t/1 v130 s137
E t=55615 M o/2 v131 s138
E t=55615 M t/2 v132 s139
F t=55615 A o/4 v133 s140
E t=55615 A o/4 v133 s140
r135=140
B c28
 b t=55787 D o/3 v101 s127
 b t=55787 M t/3 v122 s129
 b t=55787 M o/6 v123 s130
 b t=55787 M t/6 v124 s131
 b t=55787 M o/5 v125 s132
 b t=55787 M t/5 v126 s133
 b t=55787 M o/7 v127 s134
 b t=55787 M t/7 v128 s135
 b t=55787 A o/4 v133 s140
 b t=55787 M t/4 v134 s141
 b t=55787 M o/8 v136 s143
 b t=55787 M t/8 v138 s145
 b t=55787 M o/1 v139 s146
 b t=55787 M o/2 v140 s147
 b t=55787 M t/1 v141 s148
 b t=55787 M t/2 v142 s149
E t=55787 M o/1 v135 s142
F t=55787 M o/8 v136 s143
E t=55787 M o/8 v136 s143
E t=55787 M t/4 v134 s141
r136=ok
E t=55787 M t/1 v137 s144
E t=55879 M t/8 v138 s145
E t=55879 M o/1 v139 s146
F t=55879 M o/2 v140 s147
E t=55884 M o/2 v140 s147
E t=55912 M t/1 v141 s148
E t=56018 M t/2 v142 s149
E t=56026 D o/0 v83 s150
E t=56113 M t/0 v143 s151
r137=PermissionDenied
r141=PermissionDenied
r139=144
r138=PermissionDenied
r140=146
r142=148
E t=57666 M o/5 v144 s152
E t=57676 M t/5 v145 s153
r143=PermissionDenied
E t=57740 A o/3 v146 s154
E t=57780 M o/9 v148 s156
E t=57807 M t/3 v147 s155
r144=150
r145=152
r146=FailedPrecondition
E t=57941 M t/9 v149 s157
r148=154
E t=58125 M o/3 v150 s158
E t=58187 M t/3 v151 s159
E t=58193 M o/9 v152 s160
r149=156
E t=58310 M t/9 v153 s161
r152=158
E t=58310 M o/9 v154 s162
r150=PermissionDenied
r154=FailedPrecondition
E t=58402 M t/9 v155 s163
r153=ok
r147=PermissionDenied
E t=58494 M o/1 v156 s164
E t=58581 M t/1 v157 s165
E t=58588 M o/4 v158 s166
r158=PermissionDenied
r157=161
r151=ok
E t=58698 M t/4 v159 s167
r156=PermissionDenied
E t=58698 D o/1 v156 s168
E t=58790 M t/1 v160 s169
r155=NotFound
r160=NotFound
r159=PermissionDenied
E t=58867 M o/8 v161 s170
E t=58944 D o/5 v144 s172
E t=58984 M t/8 v162 s171
E t=59026 M t/5 v163 s173
B c24
 b t=59056 D o/0 v83 s150
 b t=59056 M t/0 v143 s151
 b t=59056 A o/3 v150 s158
 b t=59056 M t/3 v151 s159
 b t=59056 M o/9 v154 s162
 b t=59056 M t/9 v155 s163
 b t=59056 M o/4 v158 s166
 b t=59056 M t/4 v159 s167
 b t=59056 D o/1 v156 s168
 b t=59056 M t/1 v160 s169
 b t=59056 M o/8 v161 s170
 b t=59056 M t/8 v162 s171
 b t=59056 D o/5 v144 s172
 b t=59056 M t/5 v163 s173
r162=164
r165=PermissionDenied
r164=NotFound
r161=166
r163=FailedPrecondition
E t=60218 M o/9 v164 s174
F t=60224 M o/9 v164 s174
r166=PermissionDenied
r167=168
E t=60389 M t/9 v165 s175
E t=60389 M o/3 v166 s176
F t=60395 M o/3 v166 s176
E t=60468 M t/3 v167 s177
r168=170
E t=60561 M o/3 v168 s178
r169=172
E t=60653 M t/3 v169 s179
r170=PermissionDenied
r171=PermissionDenied
r173=PermissionDenied
E t=60721 A o/1 v170 s180
F t=60725 A o/1 v170 s180
F t=60797 M o/9 v172 s182
E t=60814 M o/9 v172 s182
E t=60836 M t/1 v171 s181
r172=ok
E t=60968 M t/9 v173 s183
r176=175
r177=PermissionDenied
r174=PermissionDenied
r178=PermissionDenied
r175=PermissionDenied
E t=61132 D o/6 v123 s184
r182=177
r179=179
E t=61234 M t/6 v174 s185
E t=61234 M o/8 v175 s186
F t=61234 M o/8 v175 s186
r180=FailedPrecondition
r183=PermissionDenied
E t=61326 M t/8 v176 s187
r184=181
r185=FailedPrecondition
r181=PermissionDenied
E t=61441 M o/1 v177 s188
r187=PermissionDenied
r186=FailedPrecondition
F t=61486 M o/8 v179 s190
E t=61504 M t/1 v178 s189
E t=61527 M o/8 v179 s190
E t=61569 M t/8 v180 s191
E t=61605 A o/5 v181 s192
E t=61678 M t/5 v182 s193
r189=PermissionDenied
r188=183
F t=62001 M o/1 v183 s194
E t=62007 M o/1 v183 s194
E t=62080 M t/1 v184 s195
r190=PermissionDenied
r191=185
r192=187
E t=63086 M o/2 v185 s196
r193=PermissionDenied
F t=63146 M o/2 v185 s196
B c26
 b t=63209 M o/3 v168 s178
 b t=63209 M t/3 v169 s179
 b t=63209 M o/9 v172 s182
 b t=63209 M t/9 v173 s183
 b t=63209 D o/6 v123 s184
 b t=63209 M t/6 v174 s185
 b t=63209 M o/8 v179 s190
 b t=63209 M t/8 v180 s191
 b t=63209 A o/1 v183 s194
 b t=63209 M t/1 v184 s195
 b t=63209 M o/2 v185 s196
 b t=63209 M t/2 v186 s197
 b t=63209 A o/5 v187 s198
 b t=63209 M t/5 v188 s199
F t=63220 M o/5 v187 s198
r194=NotFound
E t=63227 M o/5 v187 s198
E t=63246 M t/2 v186 s197
r196=189
E t=63348 M t/5 v188 s199
r198=PermissionDenied
r197=FailedPrecondition
E t=63522 M o/5 v189 s200
E t=63562 M t/5 v190 s201
r195=NotFound
r199=191
F t=63924 M o/1 v191 s202
E t=63958 M o/1 v191 s202
E t=64042 M t/1 v192 s203
B c4
 b t=66490 M o/5 v189 s200
 b t=66490 M t/5 v190 s201
 b t=66490 M o/1 v191 s202
 b t=66490 M t/1 v192 s203
)pin";

TEST(EpochMerge, SingleOpEpochsReproducePerOpDeliveryLog) {
  EXPECT_EQ(run_delivery_pin(1), kDeliveryPin);
  EXPECT_EQ(run_delivery_pin(4), kDeliveryPin);
}

// ---------------------------------------------------------------------------
// Runtime differential: the retail composition across shard configs.
// ---------------------------------------------------------------------------

struct RuntimeObservation {
  std::string order;
  std::string state;
  std::string metrics;
  std::string traces;
};

RuntimeObservation run_retail(std::size_t shards, double cost) {
  core::Runtime rt;
  apps::RetailKnactorOptions options;
  options.batch_window = 2 * sim::kMillisecond;
  options.metrics = &rt.metrics();
  options.shards = shards;
  apps::RetailKnactorApp app = apps::build_retail_knactor_app(rt, options);

  RuntimeObservation obs;
  auto order = app.place_order_sync(apps::sample_order(cost));
  obs.order = order.ok() ? chaos::canonical_fingerprint(order.value())
                         : order.error().to_string();
  obs.state = chaos::fingerprint_stores(
      {app.checkout_store, app.shipping_store, app.payment_store});
  std::ostringstream metrics;
  for (const auto& [name, value] : rt.metrics().all()) {
    metrics << name << "=" << value << ";";
  }
  obs.metrics = metrics.str();
  std::ostringstream traces;
  for (const auto& span : rt.tracer().spans()) {
    traces << span.name << "@" << span.start << "-" << span.end << ";";
  }
  obs.traces = traces.str();
  return obs;
}

TEST(EpochMerge, RetailMatchesSerialOracle) {
  for (double cost : {40.0, 900.0}) {
    RuntimeObservation oracle = run_retail(kShards[0], cost);
    ASSERT_FALSE(oracle.state.empty());
    for (std::size_t c = 1; c < std::size(kShards); ++c) {
      RuntimeObservation got = run_retail(kShards[c], cost);
      const std::string where =
          "cost " + std::to_string(cost) + " config " + config_name(kShards[c]);
      EXPECT_EQ(got.order, oracle.order) << where;
      EXPECT_EQ(got.state, oracle.state) << where;
      EXPECT_EQ(got.metrics, oracle.metrics) << where;
      EXPECT_EQ(got.traces, oracle.traces) << where;
    }
  }
}

}  // namespace
}  // namespace knactor
