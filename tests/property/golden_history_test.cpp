// Golden-history suite (`ctest -L determinism`): the seeded workloads the
// determinism contract rests on, each reduced to an FNV-1a-64 digest of
// everything an observer can see — exact store state (keys, versions,
// timestamps, payloads), per-op results, watch and batched-watch delivery
// logs, filtered/projected/indexed subscription logs and registry
// counters, list results, audit trail, lineage, DE stats, metrics, and
// full span lists — and compared with a checked-in table.
//
// The table pins the history of the engine, not a property of it: a
// change that moves any digest changed something observable (delivery
// order, a stamp, an RNG draw, a span). Re-pin only for an intended
// behaviour change, and say which one. The failure message prints the
// digest each entry now produces.
//
// Workloads:
//   * ObjectDe CRUD — 100 seeds of random put/patch/remove/list on two
//     stores, with per-event, batched, filtered+projected, equality-indexed
//     and filtered KEEP_LAST batched subscriptions; 25 more seeds add a
//     crash/recover window (durable profile).
//   * Epoch pipeline — 100 seeds of multi-op put_epoch with version
//     conflicts, deletes of missing keys, within-epoch overwrite chains,
//     audit and lineage on.
//   * Epoch observability — "de.epoch.op" spans and epoch counters.
//   * Compositions — retail (three order costs, plus a lineage run whose
//     Chrome trace export and provenance ring are pinned separately),
//     ride-hailing and fleet telemetry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/fleet_telemetry.h"
#include "apps/retail_knactor.h"
#include "apps/ride_hailing.h"
#include "common/json.h"
#include "core/runtime.h"
#include "core/trace_export.h"
#include "de/log.h"
#include "de/object.h"

namespace knactor {
namespace {

using common::Value;

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

// One table entry: the observation must digest to `want`.
void expect_golden(const char* table, std::size_t index,
                   const std::string& observation, std::uint64_t want) {
  const std::uint64_t got = fnv1a64(observation);
  EXPECT_EQ(got, want) << table << "[" << index << "] now digests to "
                       << hex(got) << " (" << observation.size()
                       << " observation bytes)";
}

char event_char(de::WatchEventType t) {
  switch (t) {
    case de::WatchEventType::kAdded: return 'A';
    case de::WatchEventType::kModified: return 'M';
    case de::WatchEventType::kDeleted: return 'D';
  }
  return '?';
}

// Exact store contents, in key order: versions and timestamps included.
std::string dump_stores(const std::vector<const de::ObjectStore*>& stores) {
  std::string out;
  for (const de::ObjectStore* store : stores) {
    out += store->name() + "{";
    for (const auto& key : store->keys()) {
      const de::StateObject* obj = store->peek(key);
      out += key + "@" + std::to_string(obj->version) + "/" +
             std::to_string(obj->created_at) + "/" +
             std::to_string(obj->updated_at) + "=" +
             (obj->data ? common::to_json(*obj->data) : "null") + ";";
    }
    out += "}";
  }
  return out;
}

std::string dump_stats(const de::ObjectDeStats& s) {
  std::ostringstream out;
  out << "r=" << s.reads << " w=" << s.writes << " d=" << s.deletes
      << " l=" << s.lists << " we=" << s.watch_events
      << " wb=" << s.watch_batches << " wc=" << s.watch_events_coalesced
      << " pd=" << s.permission_denials << " vc=" << s.version_conflicts
      << " ur=" << s.unavailable_rejections
      << " wf=" << s.watch_events_filtered
      << " wd=" << s.watch_events_dropped << " uc=" << s.udf_calls
      << " eo=" << s.engine_ops;
  return out.str();
}

// Every span in emission order: ids, parent links, timing, attributes.
std::string dump_spans(const std::vector<core::Span>& spans) {
  std::string out;
  for (const auto& s : spans) {
    out += std::to_string(s.id) + "<" + std::to_string(s.parent) + " " +
           s.name + "@" + std::to_string(s.start) + "-" +
           std::to_string(s.end);
    for (const auto& [k, v] : s.attributes) out += " " + k + "=" + v;
    out += ";";
  }
  return out;
}

std::string dump_metrics(const core::Metrics& metrics) {
  std::string out;
  for (const auto& [name, value] : metrics.all()) {
    out += name + "=" + std::to_string(value) + ";";
  }
  return out;
}

std::string dump_audit(const de::ObjectDe& de) {
  std::string out;
  for (const auto& e : de.audit_log()) {
    out += std::to_string(e.time) + ":" + e.principal + ":" +
           std::to_string(static_cast<int>(e.verb)) + ":" + e.store + "/" +
           e.key + (e.allowed ? "+" : "-") + " ";
  }
  return out;
}

std::string dump_lineage(const core::ProvenanceRing& ring) {
  std::string out;
  for (const auto& rec : ring.records()) {
    out += rec.op + "@" + rec.stage + ":" + rec.output.store + "/" +
           rec.output.key + ":" + std::to_string(rec.output.version) + " t" +
           std::to_string(rec.trace_id) + " s" + std::to_string(rec.span_id) +
           " @" + std::to_string(rec.time) + "<";
    for (const auto& in : rec.inputs) {
      out += in.store + "/" + in.key + ":" + std::to_string(in.version) + ",";
    }
    out += "> ";
  }
  return out;
}

std::string dump_subscriptions(de::ObjectDe& de) {
  std::string out;
  for (const auto& [id, info] : de.kernel().subscriptions()) {
    out += std::to_string(id) + ":m" + std::to_string(info.matched) + "f" +
           std::to_string(info.filtered) + "d" +
           std::to_string(info.delivered) + "x" +
           std::to_string(info.dropped) + "e" +
           std::to_string(info.evaluated) + " ";
  }
  return out;
}

// ---------------------------------------------------------------------------
// ObjectDe CRUD workload
// ---------------------------------------------------------------------------

struct CrudObservation {
  std::string watch_log;      // per-event deliveries, in delivery order
  std::string batch_log;      // batched deliveries (boundaries + order)
  std::string sub_log;        // filtered+projected subscription deliveries
  std::string sub_batch_log;  // filtered batched subscription (QoS history)
  std::string sub_index_log;  // equality-indexed subscription deliveries
  std::string lists;          // list() results, in result order
  std::string rest;           // state, stats, registry counters

  [[nodiscard]] std::string all() const {
    return "watch:" + watch_log + "\nbatch:" + batch_log + "\nsub:" +
           sub_log + "\nsub_batch:" + sub_batch_log + "\nsub_index:" +
           sub_index_log + "\nlists:" + lists + "\n" + rest;
  }
};

// One randomized CRUD workload against a raw ObjectDe. All randomness comes
// from `seed` (workload choice) and the DE's own fixed-seed rng (latency
// sampling).
CrudObservation run_object_workload(std::uint32_t seed, bool with_chaos) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, with_chaos ? de::ObjectDeProfile::apiserver()
                                    : de::ObjectDeProfile::redis());

  de::ObjectStore& orders = de.create_store("orders");
  de::ObjectStore& inventory = de.create_store("inventory");

  CrudObservation obs;
  auto log_event = [](std::string& log, const de::WatchEvent& e) {
    log += event_char(e.type);
    log += e.object.key + ":" + std::to_string(e.object.version) + "#" +
           std::to_string(e.ctx.commit_seq) + " ";
  };
  auto log_batch = [&](std::string& log, const de::WatchBatch& b) {
    log += "t" + std::to_string(clock.now()) + "[c" +
           std::to_string(b.commits) + "|";
    for (const auto& e : b.events) log_event(log, e);
    log += "] ";
  };
  EXPECT_TRUE(orders
                  .subscribe("observer", {},
                             [&](const de::WatchEvent& e) {
                               obs.watch_log += "t" + std::to_string(clock.now());
                               log_event(obs.watch_log, e);
                             })
                  .ok());
  de::SubscriptionSpec windowed;
  windowed.qos.window = 5 * sim::kMillisecond;
  EXPECT_TRUE(orders
                  .subscribe_batch("observer", windowed,
                                   [&](const de::WatchBatch& b) {
                                     log_batch(obs.batch_log, b);
                                   })
                  .ok());

  // Filtered + projected subscription: the predicate runs in the commit
  // pipeline's publish loop, so its accept/reject decisions and the
  // projected payloads are part of the observable surface.
  de::SubscriptionSpec sub_spec;
  sub_spec.filter = "qty > 25";
  sub_spec.project = {"qty"};
  (void)orders.subscribe("observer", sub_spec, [&](const de::WatchEvent& e) {
    log_event(obs.sub_log, e);
    obs.sub_log +=
        "@" + (e.object.data ? common::to_json(*e.object.data) : "-") + " ";
  });
  // Equality-indexed subscription (`qty in [...]` plus a residual): the
  // store's index decides which commits run the predicate.
  de::SubscriptionSpec index_spec;
  index_spec.filter = "qty in [3, 7, 11, 30, 42] and op >= 0";
  auto index_id = orders.subscribe(
      "observer", index_spec,
      [&](const de::WatchEvent& e) { log_event(obs.sub_index_log, e); });
  EXPECT_TRUE(index_id.ok());
  // Filtered batched subscription with a KEEP_LAST history cap: coalesced
  // slots and QoS drops.
  de::SubscriptionSpec sub_batch_spec;
  sub_batch_spec.filter = "qty >= 10";
  sub_batch_spec.qos.window = 7 * sim::kMillisecond;
  sub_batch_spec.qos.history_depth = 3;
  (void)orders.subscribe_batch(
      "observer", sub_batch_spec,
      [&](const de::WatchBatch& b) { log_batch(obs.sub_batch_log, b); });

  std::mt19937 rng(seed);
  auto key = [&](const char* prefix) {
    return std::string(prefix) + "-" + std::to_string(rng() % 12);
  };

  if (with_chaos) {
    // One crash window mid-workload: in-flight ops fail with Unavailable,
    // recovery keeps the durable state.
    sim::SimTime down = 20 * sim::kMillisecond +
                        static_cast<sim::SimTime>(rng() % 40) * sim::kMillisecond;
    sim::SimTime up = down + 15 * sim::kMillisecond;
    clock.schedule_at(down, [&de] { de.crash(); });
    clock.schedule_at(up, [&de] { de.recover(); });
  }

  const int ops = 40;
  for (int i = 0; i < ops; ++i) {
    de::ObjectStore& store = (rng() % 3 == 0) ? inventory : orders;
    switch (rng() % 4) {
      case 0:
        store.put(
            "writer", key("item"),
            Value::object({{"op", i}, {"qty", static_cast<int>(rng() % 50)}}),
            [](common::Result<std::uint64_t>) {});
        break;
      case 1:
        store.patch("writer", key("item"),
                    Value::object({{"patched", i}}),
                    [](common::Result<std::uint64_t>) {});
        break;
      case 2:
        store.remove("writer", key("item"), [](common::Status) {});
        break;
      case 3:
        store.list("reader", "item-",
                   [&obs](common::Result<std::vector<de::StateObject>> r) {
                     if (!r.ok()) {
                       obs.lists += "!";
                       return;
                     }
                     for (const auto& o : r.value()) {
                       obs.lists += o.key + ":" +
                                    std::to_string(o.version) + " ";
                     }
                     obs.lists += "| ";
                   });
        break;
    }
    // Interleave execution with submission so watches, flushes, and ops
    // overlap (the interesting ordering surface).
    if (rng() % 4 == 0) {
      for (int s = 0; s < 5 && clock.step(); ++s) {
      }
    }
  }
  while (clock.step()) {
  }

  obs.rest = "state:" + dump_stores({&orders, &inventory}) +
             "\nstats:" + dump_stats(de.stats()) +
             "\nsubs:" + dump_subscriptions(de) +
             "\nclock:" + std::to_string(clock.now());
  return obs;
}

// The tables were captured from the engine as it was before its key-space
// shard partition was deleted (its default one-shard runs), so they also
// pin that the deletion changed nothing observable.
constexpr std::uint64_t kCrudGolden[100] = {
    0xece31333e093fdba, 0x52bf9d822a00cd57, 0x84352a34a8585284,
    0x66735afe1572d553, 0x2aedd1417d23dde9, 0x89626bb4c3febe6a,
    0x0eb625c47e124b76, 0xf8ef9145d912dc73, 0xd5193d946a581d94,
    0xb6eca7519d15652d, 0x2e2ec7bb3ebac721, 0x96e4aa2034816751,
    0x200c038b44d6d0bf, 0x3fc1d0a30a7e0c05, 0x370ae28803b6d9d8,
    0x3fec7b99cd2759a9, 0xea09e6e0f46e9252, 0x4a288221dd188984,
    0x2e1c7df17da9bb71, 0xdb562223fbf24747, 0xf82d9ae5958671f2,
    0xe3fc5a68a5eda350, 0x3029395125c9fb1c, 0x6dcfc5217dd9d0b6,
    0x9e1be0b16410616e, 0x1f413464e1a44e29, 0x7b1dd4aec5a4b316,
    0x14ffe63041877e0f, 0xf2af6eb9a6aa7903, 0x2e95d72342ecc926,
    0x5d93700a020f30f3, 0x714217d1d66b3107, 0x692b4aa7c2923503,
    0x49857bf0a7addb76, 0x820601f355b874a8, 0xb8f617f7c85cf591,
    0x6d8475486b708c6b, 0xd23a27eebb306997, 0x77b5fd523ed511bc,
    0x2108ad98bb549fe4, 0xdd3464e105ca98ad, 0x53597bd3080c96cc,
    0xcaabcb3a92b59170, 0x3147c30ed4030df0, 0xaf8375baf067e8c4,
    0x0d4725fc00dd8037, 0xb211069b502dfee4, 0xc2a4c1298b531828,
    0x0afd24e38175c71f, 0xb6eb0a9312ff57ca, 0xf748c30965a66d5f,
    0xc3ba83661a88b6ec, 0x05fd5a45eb81cc7b, 0x17bc846cc64953ac,
    0x66f90ff368c1e8b1, 0x62df838be63db638, 0x2e2978da4a65709c,
    0xde618c7b05372507, 0x744f5c9277ca9262, 0xb83709e95a479b84,
    0x6e7bef9b6a12dc23, 0xa463ef7fea7eea05, 0xe418d36b4ccde04e,
    0xaa46b1f5795bd3f2, 0x05e2469122dc0e2b, 0x6f9640a2b3090cc6,
    0x64f1a99ab4692d28, 0x2280df04fee72e2e, 0x934ef93ad436291f,
    0xa85e87411b3c062c, 0xffbb2e50f315a705, 0xd779ade9d501aa95,
    0x93b403c8857a7c55, 0x2c793fb2d8ae021f, 0x0255ebe9fdf55c31,
    0x761d783dbc8e1316, 0x47c9a7aede78b640, 0xb2c4ade774ae785f,
    0x2c3f508a2805cc25, 0x088bc7714e92590e, 0x876f3da477b4e14f,
    0x611773a918b6eb61, 0xd0062b04ce554512, 0xdde08df8319fa59d,
    0xec381e47634176c1, 0x60b3bfc258c95e26, 0x16e063d408deff77,
    0x8f912c2db0244b4d, 0x1013e0fd06d891dd, 0x0078df98e6dc2ad5,
    0x3d326f12d9ae88e5, 0x7a584ecff142f9cb, 0xe058057f96176510,
    0x3b1ed6b2884cb55f, 0xfda7d2b19b6757c8, 0x6ca5f71d13809984,
    0x3ac70fdc1329d77c, 0xfe83c305f69d2984, 0xff51f39f5dba2354,
    0x609e496a240861d8,
};

constexpr std::uint64_t kCrudChaosGolden[25] = {
    0x5b695cc765e2e7ca, 0xf0bdcf29a056d619, 0x87f4315bbfd2860a,
    0x1b528a32e4f5a296, 0xc3592095e68d5ef2, 0xd9f3517560f06e92,
    0x8c54e5b2c0361d88, 0xa39b05e3e02d8d8f, 0x38f4a47e4d5de8d7,
    0x2a875e2b8187df37, 0x0f203ed25115ca4e, 0xfe0322a1d8851ded,
    0xd03f3bb96c73aa1a, 0xf18b92229b152d1f, 0x6dce7c6ed860e3d8,
    0x48b0874fc0c207f8, 0x05c4be23fc5e4cf3, 0xd717b67233570e72,
    0x31e4d7d81758c18e, 0xaf5599e2cb188046, 0x98c3a97071851a84,
    0xd9cfd9c827154104, 0xdc663a78dce402a4, 0x79e0a66a196772b0,
    0xf51e0835fbf7e263,
};

TEST(GoldenHistory, ObjectDeCrudAcross100Seeds) {
  int seeds_with_filtered_deliveries = 0;
  int seeds_with_indexed_deliveries = 0;
  for (std::uint32_t seed = 1; seed <= 100; ++seed) {
    CrudObservation obs = run_object_workload(seed, /*with_chaos=*/false);
    // The workload must actually exercise the surfaces under test.
    ASSERT_FALSE(obs.batch_log.empty()) << "seed " << seed;
    if (!obs.sub_log.empty() && !obs.sub_batch_log.empty()) {
      ++seeds_with_filtered_deliveries;
    }
    if (!obs.sub_index_log.empty()) ++seeds_with_indexed_deliveries;
    expect_golden("kCrudGolden", seed - 1, obs.all(), kCrudGolden[seed - 1]);
  }
  // The corpus as a whole must exercise filtered delivery, even though an
  // individual seed's random workload may never satisfy the predicate.
  EXPECT_GT(seeds_with_filtered_deliveries, 50);
  EXPECT_GT(seeds_with_indexed_deliveries, 25);
}

TEST(GoldenHistory, ObjectDeCrudWithCrashWindowAcross25Seeds) {
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    CrudObservation obs = run_object_workload(seed, /*with_chaos=*/true);
    expect_golden("kCrudChaosGolden", seed - 1, obs.all(),
                  kCrudChaosGolden[seed - 1]);
  }
}

// ---------------------------------------------------------------------------
// Epoch pipeline workload
// ---------------------------------------------------------------------------

// One randomized epoch workload. All randomness comes from `seed`.
std::string run_epoch_workload(std::uint32_t seed) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::apiserver());  // durable
  de.enable_audit(4096);
  de.kernel().enable_provenance(4096);

  de::ObjectStore& orders = de.create_store("orders");
  de::ObjectStore& inventory = de.create_store("inventory");

  std::string results;
  std::string watch_log;
  std::string batch_log;
  EXPECT_TRUE(orders
                  .subscribe("observer", {},
                             [&](const de::WatchEvent& e) {
                               watch_log += event_char(e.type);
                               watch_log +=
                                   e.object.key + ":" +
                                   std::to_string(e.object.version) + "#" +
                                   std::to_string(e.ctx.commit_seq) + "t" +
                                   std::to_string(e.ctx.trace_id) + " ";
                             })
                  .ok());
  de::SubscriptionSpec windowed;
  windowed.qos.window = 5 * sim::kMillisecond;
  EXPECT_TRUE(orders
                  .subscribe_batch(
                      "observer", windowed,
                      [&](const de::WatchBatch& b) {
                        batch_log += "t" + std::to_string(clock.now()) + "[c" +
                                     std::to_string(b.commits) + "|";
                        for (const auto& e : b.events) {
                          batch_log += event_char(e.type);
                          batch_log += e.object.key + ":" +
                                       std::to_string(e.object.version) + "#" +
                                       std::to_string(e.ctx.commit_seq) + " ";
                        }
                        batch_log += "] ";
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
                    [&results](std::vector<common::Result<std::uint64_t>> rs) {
                      for (const auto& r : rs) {
                        results += r.ok()
                                       ? std::to_string(r.value())
                                       : std::string(r.error().code_name());
                        results += " ";
                      }
                      results += "| ";
                    });
    // Interleave execution with submission so flushes overlap epochs.
    if (rng() % 2 == 0) {
      for (int s = 0; s < 4 && clock.step(); ++s) {
      }
    }
  }
  while (clock.step()) {
  }

  EXPECT_FALSE(results.empty()) << "seed " << seed;
  EXPECT_FALSE(batch_log.empty()) << "seed " << seed;
  return "results:" + results + "\nwatch:" + watch_log + "\nbatch:" +
         batch_log + "\nstate:" + dump_stores({&orders, &inventory}) +
         "\naudit:" + dump_audit(de) +
         "\nlineage:" + dump_lineage(de.kernel().provenance()) +
         "\nstats:" + dump_stats(de.stats()) + "\nseq:" +
         std::to_string(de.kernel().peek_next_revision()) + "/" +
         std::to_string(de.kernel().commit_seq()) +
         "\nclock:" + std::to_string(clock.now());
}

constexpr std::uint64_t kEpochGolden[100] = {
    0xbac281896bc5b555, 0x2f5d05f06df8b30c, 0x98ebb8f2704c961d,
    0xcb57c8594a87c449, 0xc6f22a15a4e37ff1, 0xfbab1df51a55eae3,
    0xedbe4af01fe2ba86, 0xf8a2bd4b83041047, 0xf44cc5cb0d8913cf,
    0x48c2d034338c70b8, 0x1769abbe7ebce10d, 0x01cad3739223e075,
    0x24c631280dc537b3, 0xf170bb6c891b610a, 0x1c87092e0430739d,
    0x88746432296ace4f, 0xa710d61049ec6272, 0x1da5180777a86877,
    0x87f8f5bdf825b332, 0x2a1679cd78848ea1, 0x9310709ab0ed8eff,
    0x55e51476e56e18e7, 0xabe72c87bd5a95f5, 0xca78404719a252f4,
    0xc2a841edcd5fe06a, 0x2a2d3eaf2bb81d93, 0x736838e03187cd01,
    0x46ae754eed3f0b15, 0x2a238dc121101110, 0x887a376515a943dd,
    0x5fc948a77e863a16, 0x1d15a7f320c177dc, 0x6b4dc8fd9185702b,
    0x5103df5bb5f31bc7, 0x7d02c1f21b9dfcc9, 0x0587aef6b82dc247,
    0x5ca08f5838d7c34a, 0xceb9e8dffe7037d1, 0x4892a1aa252cc45b,
    0xafb9f179b0861c04, 0xfd8c64b50cb7750c, 0xd976ce956e2fdbdf,
    0x9d7d19d511df8776, 0x866f76433cc232c7, 0x2c27d82762e25c51,
    0x7445b3f9eadfd800, 0xfed97b8a44978a03, 0x6f0b0e82f2504f0a,
    0xd55fa52e00f47842, 0x5d3fa94ac0c7d0b8, 0x740ebe917eefd933,
    0xc45bd9552291bc09, 0xe89c4b1bfe35fcd6, 0x7486db0e46cf56b1,
    0x9647f83646d189f5, 0x9d2d181a5f1f300f, 0x9b82f9b54ed51078,
    0x950870bc148e231f, 0xb63149791c7ee10a, 0x95cf472dbf503da4,
    0x83bb3553566127a2, 0xd35f3d3b77892315, 0xe40bbba0857aadd4,
    0x14806f2b58cd1f3c, 0x04779ba13a1b7443, 0xc6f348302bddbf8c,
    0xf71bd7e1a9e4186f, 0xcb84f2f4a74fca22, 0xf60c550ec00e2c4d,
    0x838d94e36cee65f4, 0x333b7823b03441a4, 0xb92419c503866041,
    0x9f149be8df5c718c, 0x18b2eb7232972979, 0x03a2022a058e8203,
    0x553d10e56c975057, 0x06b282b1d172c0cb, 0xfca525f2914fde8d,
    0x7c3465f44d55d182, 0x6830399c9fd45d09, 0x94c78a2b5e16da40,
    0x814796b005e66e2b, 0x7da04444974f2f83, 0x79a18627e185afb2,
    0x13c0cd521830fad7, 0x6a1d7802b7efb592, 0x735c4807bc8bac20,
    0xb5b67117d3322548, 0x6b552cf96a094742, 0x32e74a6d8c0a229c,
    0x2d5780a7e3df9e72, 0x5965dae6e5a60993, 0xde4e5ddbe9c7fd14,
    0xea2d49bf7f358338, 0xaed012cddde34834, 0x69a9d6b976a0d4e4,
    0xba47f411e56df8c3, 0x298c43a0dbddd8e3, 0xc4e8b16ca7649cf7,
    0x2342cbf6c530df0f,
};

TEST(GoldenHistory, EpochPipelineAcross100Seeds) {
  for (std::uint32_t seed = 1; seed <= 100; ++seed) {
    expect_golden("kEpochGolden", seed - 1, run_epoch_workload(seed),
                  kEpochGolden[seed - 1]);
  }
}

// Re-running the same seed must be bit-stable (what the tables build on).
TEST(GoldenHistory, RepeatedRunsAreBitStable) {
  EXPECT_EQ(run_object_workload(42, false).all(),
            run_object_workload(42, false).all());
  EXPECT_EQ(run_object_workload(42, true).all(),
            run_object_workload(42, true).all());
}

TEST(GoldenHistory, EpochRepeatedRunsAreBitStable) {
  EXPECT_EQ(run_epoch_workload(42), run_epoch_workload(42));
}

// Epoch observability: one "de.epoch.op" span per op and the epoch
// counters, including a failed op.
std::string run_epoch_observability() {
  sim::VirtualClock clock;
  core::Tracer tracer(clock);
  core::Metrics metrics;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de.set_observability(&tracer, &metrics);
  de::ObjectStore& store = de.create_store("items");
  for (int epoch = 0; epoch < 3; ++epoch) {
    std::vector<de::EpochWrite> writes;
    for (int i = 0; i < 6; ++i) {
      de::EpochWrite w;
      w.key = "k-" + std::to_string((i * 5 + epoch) % 7);
      if (epoch == 2 && i == 5) {
        w.data = Value::object({{"v", i}});
        w.expected_version = 99;  // deterministic conflict -> failed op
      } else {
        w.data = Value::object({{"e", epoch}, {"v", i}});
      }
      writes.push_back(std::move(w));
    }
    (void)store.put_epoch_sync("writer", std::move(writes));
  }
  EXPECT_EQ(metrics.get("de.epoch.committed"), 17u);
  EXPECT_EQ(metrics.get("de.epoch.failed"), 1u);
  return "spans:" + dump_spans(tracer.spans()) +
         "\nmetrics:" + dump_metrics(metrics) +
         "\nstate:" + dump_stores({&store});
}

constexpr std::uint64_t kEpochObservabilityGolden = 0x43e294b7d2185adf;

TEST(GoldenHistory, EpochSpansAndCounters) {
  expect_golden("kEpochObservabilityGolden", 0, run_epoch_observability(),
                kEpochObservabilityGolden);
}

// ---------------------------------------------------------------------------
// Compositions
// ---------------------------------------------------------------------------

std::string run_retail(double cost) {
  core::Runtime rt;
  apps::RetailKnactorOptions options;
  options.batch_window = 2 * sim::kMillisecond;
  options.metrics = &rt.metrics();
  apps::RetailKnactorApp app = apps::build_retail_knactor_app(rt, options);
  auto order = app.place_order_sync(apps::sample_order(cost));
  EXPECT_TRUE(order.ok());
  return "order:" +
         (order.ok() ? common::to_json(order.value())
                     : order.error().to_string()) +
         "\nstate:" +
         dump_stores(
             {app.checkout_store, app.shipping_store, app.payment_store}) +
         "\nmetrics:" + dump_metrics(rt.metrics()) +
         "\nspans:" + dump_spans(rt.tracer().spans()) +
         "\nstats:" + dump_stats(app.de->stats()) +
         "\nclock:" + std::to_string(rt.clock().now());
}

constexpr std::uint64_t kRetailGolden[3] = {
    0x25fb47c22488c2da, 0x2b6f468fa18035c7, 0xf87830f06f813b49,
};

TEST(GoldenHistory, RetailComposition) {
  const double costs[] = {40.0, 120.0, 900.0};
  for (std::size_t i = 0; i < std::size(costs); ++i) {
    expect_golden("kRetailGolden", i, run_retail(costs[i]), kRetailGolden[i]);
  }
}

// Retail with lineage on: the Chrome trace export and the provenance ring.
struct RetailLineageRun {
  std::string trace;
  std::string lineage;
};

RetailLineageRun run_retail_lineage() {
  core::Runtime rt;
  rt.enable_lineage();
  auto app = apps::build_retail_knactor_app(rt, apps::RetailKnactorOptions{});
  EXPECT_TRUE(rt.start_all().ok());
  auto order = app.place_order_sync(apps::sample_order());
  EXPECT_TRUE(order.ok());
  return {core::export_chrome_trace(rt.tracer().spans()),
          dump_lineage(app.de->kernel().provenance())};
}

constexpr std::uint64_t kRetailTraceGolden = 0x1f2ae3c37d9cedaf;
constexpr std::uint64_t kRetailLineageGolden = 0x4d1fed9b61a3b098;

TEST(GoldenHistory, RetailTrace) {
  expect_golden("kRetailTraceGolden", 0, run_retail_lineage().trace,
                kRetailTraceGolden);
}

TEST(GoldenHistory, RetailLineage) {
  expect_golden("kRetailLineageGolden", 0, run_retail_lineage().lineage,
                kRetailLineageGolden);
}

// Ride-hailing: Cast fan-out with hot-key zone counters, settled every 8
// rides.
std::string run_ride_hailing() {
  core::Runtime rt;
  apps::RideHailingOptions options;
  options.batch_window = 2 * sim::kMillisecond;
  auto app = apps::build_ride_hailing_app(rt, options);
  for (std::uint64_t i = 0; i < 48; ++i) {
    app.submit_ride((i * 999983ULL) % 1000000ULL);
    if (i % 8 == 7) app.settle();
  }
  app.settle();
  EXPECT_EQ(app.assigned_count(), 48u);
  return "assigned:" + std::to_string(app.assigned_count()) + "\nstate:" +
         dump_stores({app.rides, app.zones, app.dispatch, app.drivers}) +
         "\nspans:" + dump_spans(rt.tracer().spans()) +
         "\nstats:" + dump_stats(app.de->stats()) +
         "\nclock:" + std::to_string(rt.clock().now());
}

constexpr std::uint64_t kRideHailingGolden = 0x407e41cd2b88d1e2;

TEST(GoldenHistory, RideHailingComposition) {
  expect_golden("kRideHailingGolden", 0, run_ride_hailing(),
                kRideHailingGolden);
}

// Fleet telemetry: push-driven Sync rounds over Log DE pools.
std::string dump_pool(const de::LogPool& pool) {
  std::string out = pool.name() + "{";
  for (const auto& rec : pool.records_after(0)) {
    out += std::to_string(rec.seq) + "@" + std::to_string(rec.ingested_at) +
           "=" +
           (rec.data ? common::to_json(*rec.data) : "null") + ";";
  }
  return out + "}";
}

std::string run_fleet_telemetry() {
  core::Runtime rt;
  apps::FleetTelemetryOptions options;
  options.push = true;
  auto app = apps::build_fleet_telemetry_app(rt, options);
  for (std::uint64_t i = 0; i < 150; ++i) {
    app.emit_reading(i);
    if (i % 10 == 9) app.settle();
  }
  app.settle();
  EXPECT_GT(app.rollup_count() + app.alert_count(), 0u);
  return "counts:" + std::to_string(app.rollup_count()) + "/" +
         std::to_string(app.alert_count()) + "\npools:" +
         dump_pool(*app.readings) + dump_pool(*app.rollup) +
         dump_pool(*app.alerts) + "\nspans:" + dump_spans(rt.tracer().spans()) +
         "\nclock:" + std::to_string(rt.clock().now());
}

constexpr std::uint64_t kFleetTelemetryGolden = 0x27fd77fae32f22b6;

TEST(GoldenHistory, FleetTelemetryComposition) {
  expect_golden("kFleetTelemetryGolden", 0, run_fleet_telemetry(),
                kFleetTelemetryGolden);
}

}  // namespace
}  // namespace knactor
