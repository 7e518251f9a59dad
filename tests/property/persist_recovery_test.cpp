// Crash/recover differential suite (`ctest -L durable`): a seeded corpus
// of scripted workloads runs against a persisted ObjectDe while
// CrashPointPlan crashes the durability engine mid-journal-append,
// mid-snapshot (in a payload slice or the header patch), mid-truncation
// (GC), mid-epoch, and with plain process kills. Every crashed operation is retried after recovery, exactly as a
// real client would. The invariant is byte-identity with the fault-free
// oracle — state, object versions, and the kernel's revision/commit-seq
// counters, with nothing masked: recovery must land the durable history on
// the exact sequence point a crash-free run would have reached.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "apps/retail_knactor.h"
#include "common/json.h"
#include "core/runtime.h"
#include "de/object.h"
#include "de/persist/engine.h"
#include "sim/fault.h"
#include "sim/random.h"

#include "../integration/chaos_harness.h"

namespace knactor {
namespace {

using common::Value;
using de::ObjectDe;
using de::ObjectDeProfile;
using de::ObjectStore;
using de::persist::CrashPoint;
using de::persist::Engine;
using de::persist::EngineOptions;

std::string fresh_dir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "kn_precover_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Version- and counter-inclusive state digest. The chaos suite's
// fingerprint deliberately masks versions (integrator retries consume
// extra sequence numbers); this suite's whole point is the opposite claim:
// a crashed-and-retried run lands on *identical* versions and counters,
// because a write is either durable (acked, survives recovery) or rolled
// back wholesale (retry re-assigns the same version the oracle did).
std::string durable_fingerprint(ObjectDe& de,
                                const std::vector<std::string>& stores) {
  std::string out = "rev=" +
                    std::to_string(de.kernel().peek_next_revision()) +
                    ";seq=" + std::to_string(de.kernel().commit_seq()) + ";";
  for (const std::string& name : stores) {
    ObjectStore* store = de.store(name);
    out += name + "{";
    if (store != nullptr) {
      std::vector<std::string> keys = store->keys();
      std::sort(keys.begin(), keys.end());
      for (const auto& key : keys) {
        const de::StateObject* obj = store->peek(key);
        if (obj == nullptr) continue;
        out += key + ":v" + std::to_string(obj->version) + ":t" +
               std::to_string(obj->created_at) + "/" +
               std::to_string(obj->updated_at) + ":" +
               (obj->data ? common::to_json(*obj->data) : "null") + ";";
      }
    }
    out += "}";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scripted workload: a pure function of the seed, shared verbatim by the
// faulted run and its oracle.
// ---------------------------------------------------------------------------

const std::vector<std::string> kStores = {"alpha", "beta"};

struct OpSpec {
  enum Kind { kPut, kDelete, kTxn, kEpoch, kGc } kind = kPut;
  std::string store;
  // (key, value) pairs; one entry for kPut/kDelete, several for kTxn/kEpoch.
  std::vector<std::pair<std::string, int>> writes;
};

std::vector<OpSpec> make_script(std::uint64_t seed, int ops) {
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<OpSpec> script;
  script.reserve(static_cast<std::size_t>(ops));
  auto key = [&rng]() { return "k" + std::to_string(rng.next_below(8)); };
  for (int i = 0; i < ops; ++i) {
    OpSpec op;
    op.store = kStores[rng.next_below(2)];
    const std::uint32_t roll = rng.next_below(10);
    if (roll < 5) {
      op.kind = OpSpec::kPut;
      op.writes.emplace_back(key(), static_cast<int>(rng.next_below(1000)));
    } else if (roll < 6) {
      op.kind = OpSpec::kDelete;
      op.writes.emplace_back(key(), 0);
    } else if (roll < 8) {
      op.kind = OpSpec::kTxn;
      for (int j = 0; j < 3; ++j) {
        op.writes.emplace_back(key(),
                               static_cast<int>(rng.next_below(1000)));
      }
    } else if (roll < 9) {
      op.kind = OpSpec::kEpoch;
      // Distinct keys within one epoch (an epoch is a set, not a sequence).
      for (int j = 0; j < 4; ++j) {
        op.writes.emplace_back("k" + std::to_string(j * 2 +
                                                    rng.next_below(2)),
                               static_cast<int>(rng.next_below(1000)));
      }
    } else {
      op.kind = OpSpec::kGc;
    }
    script.push_back(std::move(op));
  }
  return script;
}

// Executes one op with crash-recovery retries: an Unavailable result means
// the op never became durable (torn frame / pre-append crash / crashed
// kernel), so recover and re-issue — it must then land exactly where the
// oracle's single attempt landed. Any other error (e.g. deleting a missing
// key) is a deterministic outcome shared with the oracle and is not
// retried.
void run_op(ObjectDe& de, const OpSpec& op) {
  for (int attempt = 0; attempt < 12; ++attempt) {
    if (!de.available()) de.recover();
    bool unavailable = false;
    switch (op.kind) {
      case OpSpec::kPut: {
        auto r = de.store(op.store)->put_sync(
            "suite", op.writes[0].first,
            Value::object({{"v", op.writes[0].second}}));
        unavailable =
            !r.ok() && r.error().code == common::Error::Code::kUnavailable;
        break;
      }
      case OpSpec::kDelete: {
        auto st = de.store(op.store)->remove_sync("suite",
                                                  op.writes[0].first);
        unavailable =
            !st.ok() && st.error().code == common::Error::Code::kUnavailable;
        break;
      }
      case OpSpec::kTxn: {
        std::vector<ObjectDe::TxnOp> txn;
        for (const auto& [k, v] : op.writes) {
          ObjectDe::TxnOp t;
          t.store = op.store;
          t.key = k;
          t.data = Value::object({{"v", v}});
          t.merge = false;
          txn.push_back(std::move(t));
        }
        auto r = de.transact_sync("suite", std::move(txn));
        unavailable =
            !r.ok() && r.error().code == common::Error::Code::kUnavailable;
        break;
      }
      case OpSpec::kEpoch: {
        std::vector<de::EpochWrite> writes;
        for (const auto& [k, v] : op.writes) {
          de::EpochWrite w;
          w.key = k;
          w.data = Value::object({{"v", v}});
          writes.push_back(std::move(w));
        }
        auto results =
            de.store(op.store)->put_epoch_sync("suite", std::move(writes));
        for (const auto& r : results) {
          if (!r.ok() &&
              r.error().code == common::Error::Code::kUnavailable) {
            unavailable = true;
          }
        }
        break;
      }
      case OpSpec::kGc:
        (void)de.kernel().run_gc();
        break;
    }
    if (!unavailable) return;
  }
  FAIL() << "op never survived 12 crash-recovery attempts";
}

// Per-mechanism crash counts observed across a run (to prove the corpus
// actually exercised every crash point, not just the happy path).
struct CrashTally {
  std::uint64_t journal_append = 0;
  std::uint64_t snapshot_slice = 0;
  std::uint64_t snapshot_write = 0;
  std::uint64_t truncate = 0;
  std::uint64_t epoch = 0;
  std::uint64_t hard_kill = 0;

  [[nodiscard]] std::uint64_t total() const {
    return journal_append + snapshot_slice + snapshot_write + truncate +
           epoch + hard_kill;
  }
  CrashTally& operator+=(const CrashTally& o) {
    journal_append += o.journal_append;
    snapshot_slice += o.snapshot_slice;
    snapshot_write += o.snapshot_write;
    truncate += o.truncate;
    epoch += o.epoch;
    hard_kill += o.hard_kill;
    return *this;
  }
};

std::string run_seed(std::uint64_t seed, bool inject, const std::string& dir,
                     CrashTally* tally) {
  sim::VirtualClock clock;
  ObjectDeProfile profile = ObjectDeProfile::instant();
  profile.durable = true;
  ObjectDe de(clock, profile);
  Engine engine(EngineOptions{dir, /*snapshot_every=*/6});
  EXPECT_TRUE(de.enable_persistence(&engine).ok());
  for (const auto& name : kStores) de.create_store(name);

  // The crash schedule draws from CrashPointPlan, never from the script's
  // Rng — the faulted run and the oracle execute the *identical* op list.
  sim::CrashPointPlan plan(seed, 0.0);
  sim::CrashPointPlan io_plan(seed, 0.10);
  sim::CrashPointPlan kill_plan(seed ^ 0xdeadbeef, 0.04);
  sim::CrashPointPlan epoch_plan(seed ^ 0xfeedface, 0.20);
  (void)plan;
  if (inject) {
    engine.set_fault_hook([&io_plan, tally](CrashPoint point) {
      const bool fire = io_plan.next(crash_point_name(point));
      if (fire && tally != nullptr) {
        switch (point) {
          case CrashPoint::kJournalAppend:
            ++tally->journal_append;
            break;
          case CrashPoint::kSnapshotSlice:
            ++tally->snapshot_slice;
            break;
          case CrashPoint::kSnapshotWrite:
            ++tally->snapshot_write;
            break;
          case CrashPoint::kTruncate:
            ++tally->truncate;
            break;
        }
      }
      return fire;
    });
    de.set_epoch_fault_hook([&epoch_plan, tally]() {
      const bool fire = epoch_plan.next("epoch_commit");
      if (fire && tally != nullptr) ++tally->epoch;
      return fire;
    });
  }

  const std::vector<OpSpec> script = make_script(seed, 48);
  for (const OpSpec& op : script) {
    if (inject && kill_plan.next("hard_kill")) {
      // A plain process kill between ops: everything acked is on disk.
      de.crash();
      if (tally != nullptr) ++tally->hard_kill;
    }
    run_op(de, op);
  }
  // Disarm chaos, settle, and take the live fingerprint.
  engine.set_fault_hook(nullptr);
  de.set_epoch_fault_hook(nullptr);
  if (!de.available()) de.recover();
  const std::string live = durable_fingerprint(de, kStores);

  // One final kill + recovery: the disk image alone must reproduce the
  // live state bit-for-bit, counters included.
  de.crash();
  de.recover();
  EXPECT_EQ(durable_fingerprint(de, kStores), live)
      << "seed " << seed << ": post-recovery state diverged from live state";
  return live;
}

// ---------------------------------------------------------------------------
// Tentpole: 120 seeds, every faulted run is byte-identical to its oracle
// ---------------------------------------------------------------------------

TEST(PersistRecoveryDifferential, HundredTwentySeedsMatchOracleExactly) {
  const std::uint64_t kSeeds = 120;
  CrashTally tally;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    CrashTally seed_tally;
    const std::string faulted =
        run_seed(seed, /*inject=*/true,
                 fresh_dir("faulted_" + std::to_string(seed)), &seed_tally);
    const std::string oracle =
        run_seed(seed, /*inject=*/false,
                 fresh_dir("oracle_" + std::to_string(seed)), nullptr);
    ASSERT_EQ(faulted, oracle)
        << "seed " << seed << " diverged after " << seed_tally.total()
        << " crashes (journal=" << seed_tally.journal_append
        << " slice=" << seed_tally.snapshot_slice
        << " snapshot=" << seed_tally.snapshot_write
        << " truncate=" << seed_tally.truncate
        << " epoch=" << seed_tally.epoch
        << " kill=" << seed_tally.hard_kill << ")";
    tally += seed_tally;
  }
  // The corpus must have exercised every crash mechanism; a suite that
  // never crashed proves nothing.
  EXPECT_GT(tally.journal_append, 0u);
  EXPECT_GT(tally.snapshot_slice, 0u);
  EXPECT_GT(tally.snapshot_write, 0u);
  EXPECT_GT(tally.truncate, 0u);
  EXPECT_GT(tally.epoch, 0u);
  EXPECT_GT(tally.hard_kill, 0u);
}

TEST(PersistRecoveryDifferential, SameSeedIsBitIdentical) {
  CrashTally a_tally;
  CrashTally b_tally;
  const std::string a =
      run_seed(7, /*inject=*/true, fresh_dir("repeat_a"), &a_tally);
  const std::string b =
      run_seed(7, /*inject=*/true, fresh_dir("repeat_b"), &b_tally);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a_tally.total(), b_tally.total());
}

TEST(PersistRecoveryDifferential, RecoveryIsBoundedBySnapshots) {
  // After a long faulted run the recovery replay is O(delta since the last
  // snapshot), not O(history): far fewer frames than acked commits.
  const std::string dir = fresh_dir("bounded");
  sim::VirtualClock clock;
  ObjectDeProfile profile = ObjectDeProfile::instant();
  profile.durable = true;
  ObjectDe de(clock, profile);
  Engine engine(EngineOptions{dir, /*snapshot_every=*/6});
  ASSERT_TRUE(de.enable_persistence(&engine).ok());
  for (const auto& name : kStores) de.create_store(name);
  for (const OpSpec& op : make_script(99, 120)) run_op(de, op);

  de.crash();
  de.recover();
  EXPECT_GT(engine.stats().snapshots, 0u);
  EXPECT_LT(engine.stats().frames_replayed, 12u)
      << "recovery replayed the whole history instead of the delta";
}

// ---------------------------------------------------------------------------
// Satellite: the retail composition converges after mid-run crashes and a
// full recovery — the durable tier plugs into the paper's composition
// without any knactor noticing.
// ---------------------------------------------------------------------------

std::string retail_oracle_fingerprint() {
  core::Runtime runtime;
  apps::RetailKnactorOptions options;
  options.de_profile = ObjectDeProfile::apiserver();
  options.shipment_processing = sim::LatencyModel::constant_ms(10.0);
  options.payment_processing = sim::LatencyModel::constant_ms(1.0);
  options.integrator_retry = sim::RetryPolicy::standard(5);
  auto app = apps::build_retail_knactor_app(runtime, options);
  auto put = app.checkout_store->put_sync("knactor:checkout", "order",
                                          apps::sample_order());
  if (!put.ok()) return "oracle-put-failed";
  runtime.run_until_idle();
  for (int round = 0; round < 2; ++round) {
    for (const char* name :
         {"frontend", "cart", "catalog", "currency", "checkout", "payment",
          "shipping", "email", "recommendation", "ad", "inventory"}) {
      core::Knactor* kn = runtime.knactor(name);
      if (kn != nullptr) (void)kn->resync();
    }
    (void)app.integrator->run_pass_sync();
    runtime.run_until_idle();
  }
  return chaos::fingerprint_stores(
      {app.checkout_store, app.payment_store, app.shipping_store});
}

TEST(PersistRecoveryRetail, CompositionConvergesAfterCrashRecover) {
  const std::string oracle = retail_oracle_fingerprint();
  ASSERT_NE(oracle, "oracle-put-failed");

  std::uint64_t total_crashes = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    core::Runtime runtime;
    apps::RetailKnactorOptions options;
    options.de_profile = ObjectDeProfile::apiserver();
    options.shipment_processing = sim::LatencyModel::constant_ms(10.0);
    options.payment_processing = sim::LatencyModel::constant_ms(1.0);
    options.integrator_retry = sim::RetryPolicy::standard(5);
    auto app = apps::build_retail_knactor_app(runtime, options);

    Engine engine(EngineOptions{
        fresh_dir("retail_" + std::to_string(seed)), /*snapshot_every=*/32});
    ASSERT_TRUE(app.de->enable_persistence(&engine).ok());
    sim::CrashPointPlan plan(seed, 0.02);
    engine.set_fault_hook([&plan, &total_crashes](CrashPoint point) {
      const bool fire = plan.next(crash_point_name(point));
      if (fire) ++total_crashes;
      return fire;
    });

    // Place the order like a retrying client; the engine may crash the DE
    // out from under any write along the pipeline.
    Value order = apps::sample_order();
    bool placed = false;
    for (int attempt = 0; attempt < 100 && !placed; ++attempt) {
      if (!app.de->available()) app.de->recover();
      placed = app.checkout_store
                   ->put_sync("knactor:checkout", "order", order)
                   .ok();
      if (!placed) runtime.run_for(25 * sim::kMillisecond);
    }
    ASSERT_TRUE(placed) << "seed " << seed;
    runtime.run_until_idle();

    // Heal: recover the DE if it is down, resync every reconciler, run an
    // exchange pass; repeat until the composition settles.
    for (int round = 0; round < 6; ++round) {
      if (!app.de->available()) app.de->recover();
      for (const char* name :
           {"frontend", "cart", "catalog", "currency", "checkout", "payment",
            "shipping", "email", "recommendation", "ad", "inventory"}) {
        core::Knactor* kn = runtime.knactor(name);
        if (kn == nullptr) continue;
        if (!kn->running()) kn->start();
        (void)kn->resync();
      }
      (void)app.integrator->run_pass_sync();
      runtime.run_until_idle();
    }
    engine.set_fault_hook(nullptr);
    if (!app.de->available()) app.de->recover();

    const std::string converged = chaos::fingerprint_stores(
        {app.checkout_store, app.payment_store, app.shipping_store});
    EXPECT_EQ(converged, oracle) << "seed " << seed;

    // Kill and recover once more: the converged composition state must be
    // fully reconstructible from disk.
    app.de->crash();
    app.de->recover();
    EXPECT_EQ(chaos::fingerprint_stores({app.checkout_store,
                                         app.payment_store,
                                         app.shipping_store}),
              converged)
        << "seed " << seed << ": recovery lost converged retail state";
  }
  EXPECT_GT(total_crashes, 0u)
      << "the retail corpus never crashed — raise the crash probability";
}

}  // namespace
}  // namespace knactor
