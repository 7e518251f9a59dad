// Indexed subscription matching differential: over seeded random
// subscription sets and commit streams, every Object DE subscription must
// deliver exactly what calling CompiledSubscription::apply() on every
// matched commit gives, with the same matched/filtered/delivered counts.
// The store's equality index may only skip apply() calls, never change an
// outcome; and it must skip exactly the commits whose key field holds none
// of the index key's values (evaluated = the commits `field in [values]`
// accepts, checked through the filter language itself).
//
// The corpus covers `==`, `in`, swapped operands, `and` chains with
// residual conjuncts (including erroring ones), 1 vs 1.0 vs -0.0, bool vs
// int, null and strings; filters the index cannot decide (`or`, `!=`,
// ranges, attribute paths, calls, negative literals); projections and
// prefixes; payloads with a missing field, array and object field values,
// non-object payloads and deletes; multi-op epochs;
// and subscribe/unsubscribe between commits.
//
// Candidate-walk differential: the publish loop visits only a commit's
// candidate watchers and folds the skipped ones' counters in on read,
// unless audit is on or a tracer is attached, when it visits every
// watcher of the store. Over seeded scripts the two walks must agree on
// everything an observer sees: the delivery log (every event and batch,
// in arrival order), the registry counters and ObjectDeStats at every
// read, mid-stream ones included.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/trace.h"
#include "de/object.h"
#include "de/subscription.h"
#include "sim/clock.h"

namespace knactor::de {
namespace {

using common::Value;

const char* const kFields[] = {"v", "w", "missing"};
const char* const kLiterals[] = {"0",    "1",     "1.0",  "0.0", "2",
                                 "\"1\"", "\"x\"", "True", "False", "None"};
const char* const kResiduals[] = {
    "n > 3",       "n <= 7",          "v != 1",      "v == w",
    "not v",       "tag > 5",         "o.a == 1",    "len(tag) == 1",
    "v == -1",     "n == 2 or v == 1", "n in [1, 3]", "\"t\" == tag"};
const char* const kPrefixes[] = {"", "k", "j1"};

// A filter drawn from the corpus: 0-3 conjuncts, each an indexable
// equality or a residual the index cannot decide, sometimes grouped.
std::string random_filter(std::mt19937& rng) {
  const int conjuncts = static_cast<int>(rng() % 4);
  std::string filter;
  for (int c = 0; c < conjuncts; ++c) {
    std::string part;
    const char* field = kFields[rng() % std::size(kFields)];
    const char* literal = kLiterals[rng() % std::size(kLiterals)];
    switch (rng() % 5) {
      case 0:
        part = std::string(field) + " == " + literal;
        break;
      case 1:
        part = std::string(literal) + " == " + field;
        break;
      case 2:
        part = std::string(field) + " in [" + literal + ", " +
               kLiterals[rng() % std::size(kLiterals)] + "]";
        break;
      default:
        part = kResiduals[rng() % std::size(kResiduals)];
        break;
    }
    if (!filter.empty()) {
      filter = rng() % 4 == 0 ? "(" + filter + ") and " + part
                              : filter + " and " + part;
    } else {
      filter = part;
    }
  }
  if (!filter.empty() && rng() % 8 == 0) filter = filter + " or n == 9";
  return filter;
}

Value random_scalar(std::mt19937& rng) {
  switch (rng() % 12) {
    case 0: return Value(0);
    case 1: return Value(1);
    case 2: return Value(1.0);
    case 3: return Value(-0.0);
    case 4: return Value(2);
    case 5: return Value("1");
    case 6: return Value("x");
    case 7: return Value(true);
    case 8: return Value(false);
    case 9: return Value(nullptr);
    case 10: return Value::array({1});
    default: return Value::object({{"a", 1}});
  }
}

Value random_payload(std::mt19937& rng) {
  switch (rng() % 10) {
    case 0: return Value(5);          // non-object payloads
    case 1: return Value::array({1, 2});
    default: break;
  }
  Value v = Value::object();
  if (rng() % 5 != 0) v.set("v", random_scalar(rng));
  if (rng() % 3 != 0) v.set("w", random_scalar(rng));
  if (rng() % 4 != 0) v.set("n", Value(static_cast<std::int64_t>(rng() % 10)));
  if (rng() % 2 == 0) v.set("tag", Value("t"));
  if (rng() % 4 == 0) v.set("o", Value::object({{"a", 1}}));
  return v;
}

std::string event_line(const WatchEvent& e, const common::SharedValue& data) {
  return std::to_string(static_cast<int>(e.type)) + " " + e.store + "/" +
         e.object.key + "@" + std::to_string(e.object.version) + " " +
         (data ? common::to_json(*data) : std::string("-"));
}

// One live subscription and its apply()-on-every-matched-commit oracle.
struct Sub {
  std::uint64_t id = 0;
  std::string store;
  SubscriptionSpec spec;
  std::shared_ptr<const CompiledSubscription> oracle;
  /// `field in [values]` of the index key; null for the scan set.
  std::shared_ptr<const CompiledSubscription> key_oracle;
  std::vector<std::string> got;
  std::vector<std::string> want;
  std::uint64_t matched = 0;
  std::uint64_t filtered = 0;
  std::uint64_t evaluated = 0;
};

// The index key rewritten as a filter: the commits it accepts are exactly
// the ones the index must hand to apply().
std::shared_ptr<const CompiledSubscription> key_filter(
    const CompiledSubscription& sub) {
  const CompiledSubscription::IndexKey* key = sub.index_key();
  if (key == nullptr) return nullptr;
  SubscriptionSpec spec;
  spec.filter = key->field + " in [";
  for (std::size_t i = 0; i < key->values.size(); ++i) {
    spec.filter += (i > 0 ? ", " : "") + common::to_json(key->values[i]);
  }
  spec.filter += "]";
  auto compiled = CompiledSubscription::compile(spec);
  EXPECT_TRUE(compiled.ok()) << spec.filter;
  return compiled.ok() ? compiled.take() : nullptr;
}

struct Outcome {
  std::size_t indexed = 0;       // subscriptions with an index key
  std::size_t skipped = 0;       // apply() calls the index saved
  std::size_t delivered = 0;
};

void check_counters(ObjectDe& de, const Sub& sub, const std::string& where,
                    Outcome& out) {
  const auto* info = de.kernel().find_subscription(sub.id);
  ASSERT_NE(info, nullptr) << where;
  EXPECT_EQ(sub.got, sub.want) << where << " filter '" << sub.spec.filter
                               << "'";
  EXPECT_EQ(info->matched, sub.matched) << where;
  EXPECT_EQ(info->filtered, sub.filtered) << where;
  // The registry accounts active (filtered or projected) subscriptions only.
  EXPECT_EQ(info->delivered, sub.oracle->active() ? sub.want.size() : 0u)
      << where;
  EXPECT_EQ(info->evaluated, sub.evaluated) << where;
  EXPECT_LE(info->evaluated, info->matched) << where;
  if (sub.key_oracle != nullptr) ++out.indexed;
  out.skipped += info->matched - info->evaluated;
  out.delivered += sub.want.size();
}

Outcome run_seed(std::uint32_t seed) {
  std::mt19937 rng(seed);
  sim::VirtualClock clock;
  ObjectDe de(clock, ObjectDeProfile::instant());
  const char* const store_names[] = {"a", "b"};
  std::map<std::string, ObjectStore*> stores;
  for (const char* name : store_names) stores[name] = &de.create_store(name);

  // The unfiltered observers, registered first, see every commit with its
  // full payload (the pre-delete payload for deletes), in commit order.
  std::vector<WatchEvent> commits;
  for (auto& [name, store] : stores) {
    EXPECT_TRUE(store
                    ->subscribe("obs", {},
                                [&commits](const WatchEvent& e) {
                                  commits.push_back(e);
                                })
                    .ok());
  }

  std::vector<std::unique_ptr<Sub>> live;
  Outcome out;
  auto subscribe = [&] {
    auto sub = std::make_unique<Sub>();
    sub->store = store_names[rng() % 2];
    sub->spec.prefix = kPrefixes[rng() % std::size(kPrefixes)];
    sub->spec.filter = random_filter(rng);
    if (rng() % 5 == 0) sub->spec.project = {"v", "n"};
    auto oracle = CompiledSubscription::compile(sub->spec);
    ASSERT_TRUE(oracle.ok()) << sub->spec.filter;
    sub->oracle = oracle.take();
    sub->key_oracle = key_filter(*sub->oracle);
    Sub* raw = sub.get();
    auto id = stores[sub->store]->subscribe(
        "svc", sub->spec, [raw](const WatchEvent& e) {
          raw->got.push_back(event_line(e, e.object.data));
        });
    ASSERT_TRUE(id.ok()) << sub->spec.filter;
    sub->id = id.value();
    live.push_back(std::move(sub));
  };
  auto unsubscribe = [&](const std::string& where) {
    if (live.empty()) return;
    const std::size_t victim = rng() % live.size();
    check_counters(de, *live[victim], where, out);
    stores[live[victim]->store]->unsubscribe(live[victim]->id, false);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
  };
  // Feeds the commits the last step produced through every live
  // subscription's oracle.
  auto fold = [&] {
    for (const WatchEvent& e : commits) {
      for (auto& sub : live) {
        if (sub->store != e.store ||
            e.object.key.rfind(sub->spec.prefix, 0) != 0) {
          continue;
        }
        if (!sub->oracle->active()) {
          sub->want.push_back(event_line(e, e.object.data));
          continue;
        }
        ++sub->matched;
        if (sub->key_oracle != nullptr &&
            !sub->key_oracle->apply(e.object.data).has_value()) {
          ++sub->filtered;  // the index skips the predicate
          ASSERT_FALSE(sub->oracle->apply(e.object.data).has_value())
              << "index key '" << sub->key_oracle->spec().filter
              << "' rejects a payload filter '" << sub->spec.filter
              << "' accepts";
          continue;
        }
        ++sub->evaluated;
        auto payload = sub->oracle->apply(e.object.data);
        if (!payload.has_value()) {
          ++sub->filtered;
          continue;
        }
        sub->want.push_back(event_line(e, *payload));
      }
    }
    commits.clear();
  };

  for (int i = 0; i < 6; ++i) subscribe();
  auto key = [&] {
    return std::string(rng() % 3 == 0 ? "j" : "k") + std::to_string(rng() % 6);
  };
  for (int step = 0; step < 80; ++step) {
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    ObjectStore& store = *stores[store_names[rng() % 2]];
    switch (rng() % 10) {
      case 0:
        subscribe();
        break;
      case 1:
        unsubscribe(where);
        break;
      case 2:
        (void)store.remove_sync("w", key());
        break;
      case 3:
        (void)store.patch_sync("w", key(), random_payload(rng));
        break;
      case 4: {
        std::vector<EpochWrite> writes(2 + rng() % 4);
        for (auto& w : writes) {
          w.key = key();
          w.remove = rng() % 5 == 0;
          if (!w.remove) w.data = random_payload(rng);
        }
        (void)store.put_epoch_sync("w", std::move(writes));
        break;
      }
      default:
        (void)store.put_sync("w", key(), random_payload(rng));
        break;
    }
    clock.run_all();
    fold();
  }
  for (const auto& sub : live) {
    check_counters(de, *sub, "seed " + std::to_string(seed) + " end", out);
  }
  return out;
}

TEST(SubscriptionIndexDifferential, MatchesApplyOnEveryCommitAcross150Seeds) {
  Outcome total;
  for (std::uint32_t seed = 1; seed <= 150; ++seed) {
    Outcome out = run_seed(seed);
    total.indexed += out.indexed;
    total.skipped += out.skipped;
    total.delivered += out.delivered;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed " << seed;
      return;
    }
  }
  // The corpus must exercise the index, skip real work and still deliver.
  EXPECT_GT(total.indexed, 300u);
  EXPECT_GT(total.skipped, 1000u);
  EXPECT_GT(total.delivered, 1000u);
}

// ---------------------------------------------------------------------------
// Candidate walk vs full walk
// ---------------------------------------------------------------------------

enum class Walk { kCandidates, kAudit, kTraced };

constexpr sim::SimTime kHour = 3600 * sim::kSecond;
const char* const kPrincipals[] = {"p0", "p1", "p2", "p3"};
const char* const kRoles[] = {"all", "fields", "keys", "night", "none"};

// Uniform grants (with and without field rules), key-scoped and windowed
// ones, and a role that grants nothing on these stores.
void install_roles(Rbac& rbac) {
  const std::set<Verb> watch{Verb::kWatch};
  ASSERT_TRUE(rbac.add_role(Role{"writer",
                                 {PolicyRule{"*", "",
                                             {Verb::kGet, Verb::kList,
                                              Verb::kCreate, Verb::kUpdate,
                                              Verb::kDelete},
                                             {}, std::nullopt}}})
                  .ok());
  ASSERT_TRUE(
      rbac.add_role(Role{"all", {PolicyRule{"*", "", watch, {}, std::nullopt}}})
          .ok());
  ASSERT_TRUE(rbac.add_role(Role{"fields",
                                 {PolicyRule{"b", "", watch,
                                             FieldRule{{"v", "n"}, {}},
                                             std::nullopt},
                                  PolicyRule{"a", "", watch,
                                             FieldRule{{}, {"tag"}},
                                             std::nullopt}}})
                  .ok());
  ASSERT_TRUE(rbac.add_role(Role{"keys",
                                 {PolicyRule{"a", "k1", watch, {},
                                             std::nullopt},
                                  PolicyRule{"b", "j", watch, {},
                                             std::nullopt}}})
                  .ok());
  ASSERT_TRUE(rbac.add_role(Role{"night",
                                 {PolicyRule{"*", "", watch, {},
                                             TimeWindow{0, 12 * kHour}}}})
                  .ok());
  ASSERT_TRUE(rbac.add_role(Role{"none",
                                 {PolicyRule{"c", "", watch, {},
                                             std::nullopt}}})
                  .ok());
  ASSERT_TRUE(rbac.bind("w", "writer").ok());
}

std::string info_line(const Kernel::SubscriptionInfo& info) {
  return "sub " + std::to_string(info.id) + " m" +
         std::to_string(info.matched) + " f" + std::to_string(info.filtered) +
         " e" + std::to_string(info.evaluated) + " d" +
         std::to_string(info.delivered) + " x" + std::to_string(info.dropped);
}

std::string stats_line(const ObjectDeStats& s) {
  return "stats r" + std::to_string(s.reads) + " w" + std::to_string(s.writes) +
         " del" + std::to_string(s.deletes) + " ev" +
         std::to_string(s.watch_events) + " b" +
         std::to_string(s.watch_batches) + " c" +
         std::to_string(s.watch_events_coalesced) + " f" +
         std::to_string(s.watch_events_filtered) + " x" +
         std::to_string(s.watch_events_dropped) + " deny" +
         std::to_string(s.permission_denials) + " conflict" +
         std::to_string(s.version_conflicts);
}

struct Transcript {
  std::vector<std::string> lines;
  std::uint64_t skipped = 0;    // matched - evaluated at the recorded reads
  std::uint64_t delivered = 0;  // delivery lines
};

// One seeded script; every observation goes to the transcript. Reads drawn
// as "unrecorded" run only on the candidate walk, so a fold at an odd
// moment must not change anything recorded later.
Transcript run_walk(std::uint32_t seed, Walk walk) {
  std::mt19937 rng(seed);
  sim::VirtualClock clock;
  ObjectDe de(clock, ObjectDeProfile::redis(), seed);
  core::Tracer tracer(clock);
  if (walk == Walk::kAudit) de.enable_audit(64);
  if (walk == Walk::kTraced) de.set_observability(&tracer, nullptr);
  install_roles(de.rbac());
  std::map<std::string, ObjectStore*> stores;
  for (const char* name : {"a", "b"}) stores[name] = &de.create_store(name);

  Transcript out;
  struct Live {
    std::uint64_t id = 0;
    std::string store;
  };
  std::vector<Live> live;
  std::size_t ordinal = 0;

  auto record = [&](const std::string& tag) {
    for (const auto& [id, info] : de.kernel().subscriptions()) {
      out.lines.push_back(tag + " " + info_line(info));
      out.skipped += info.matched - info.evaluated;
    }
    out.lines.push_back(tag + " " + stats_line(de.stats()));
  };
  auto subscribe = [&] {
    const std::string store = rng() % 2 == 0 ? "a" : "b";
    SubscriptionSpec spec;
    spec.prefix = rng() % 4 == 0 ? "k1" : kPrefixes[rng() % std::size(kPrefixes)];
    // Inactive (no filter), scan-set and indexed filters.
    if (rng() % 5 != 0) spec.filter = random_filter(rng);
    if (rng() % 5 == 0) spec.project = {"v", "n", "tag"};
    const bool batched = rng() % 3 == 0;
    const std::string principal = kPrincipals[rng() % std::size(kPrincipals)];
    const std::string tag = "d" + std::to_string(ordinal++) + " ";
    common::Result<std::uint64_t> id = common::Error::internal("unset");
    if (batched) {
      spec.qos.window = static_cast<sim::SimTime>(rng() % 3) * 2 *
                        sim::kMillisecond;
      if (rng() % 3 == 0) spec.qos.history_depth = 2;
      id = stores[store]->subscribe_batch(
          principal, spec, [&out, tag](const WatchBatch& batch) {
            out.lines.push_back(tag + "batch " + batch.store + " commits " +
                                std::to_string(batch.commits));
            for (const WatchEvent& e : batch.events) {
              out.lines.push_back(tag + event_line(e, e.object.data));
              ++out.delivered;
            }
          });
    } else {
      id = stores[store]->subscribe(principal, spec,
                                    [&out, tag](const WatchEvent& e) {
                                      out.lines.push_back(
                                          tag + event_line(e, e.object.data));
                                      ++out.delivered;
                                    });
    }
    out.lines.push_back(tag + "subscribe " + principal + " " + store + "/" +
                        spec.prefix + " '" + spec.filter + "' " +
                        (id.ok() ? std::to_string(id.value())
                                 : id.error().to_string()));
    if (id.ok()) live.push_back({id.value(), store});
  };
  auto key = [&] {
    return std::string(rng() % 3 == 0 ? "j" : "k") + std::to_string(rng() % 4);
  };

  for (int i = 0; i < 8; ++i) {
    (void)de.rbac().bind(kPrincipals[rng() % std::size(kPrincipals)],
                         kRoles[rng() % std::size(kRoles)]);
  }
  // The first watchers register before the policy is enforced, so the
  // key-scoped and windowed grants get watchers whose prefix they do not
  // cover whole.
  for (int i = 0; i < 8; ++i) subscribe();
  de.rbac().set_enabled(true);
  for (int step = 0; step < 120; ++step) {
    ObjectStore& store = *stores[rng() % 2 == 0 ? "a" : "b"];
    switch (rng() % 16) {
      case 0:
      case 1:
        subscribe();
        break;
      case 2: {
        if (live.empty()) break;
        const std::size_t victim = rng() % live.size();
        const bool drain = rng() % 2 == 0;
        stores[live[victim].store]->unsubscribe(live[victim].id, drain);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        break;
      }
      case 3:
        (void)de.rbac().bind(kPrincipals[rng() % std::size(kPrincipals)],
                             kRoles[rng() % std::size(kRoles)]);
        break;
      case 4:
        de.rbac().unbind(kPrincipals[rng() % std::size(kPrincipals)],
                         kRoles[rng() % std::size(kRoles)]);
        break;
      case 5:
        de.rbac().set_enabled(rng() % 3 != 0);
        break;
      case 6:
        record("step " + std::to_string(step));
        break;
      case 7: {
        const std::size_t pick = rng();
        if (walk == Walk::kCandidates) {
          (void)de.stats();
          if (!live.empty()) {
            (void)de.kernel().find_subscription(live[pick % live.size()].id);
          }
        }
        break;
      }
      case 8:
        (void)store.remove_sync("w", key());
        break;
      case 9:
        (void)store.patch_sync("w", key(), random_payload(rng));
        break;
      case 10: {
        std::vector<EpochWrite> writes(2 + rng() % 4);
        for (auto& w : writes) {
          w.key = key();
          w.remove = rng() % 5 == 0;
          if (!w.remove) w.data = random_payload(rng);
        }
        (void)store.put_epoch_sync("w", std::move(writes));
        break;
      }
      case 11: {
        std::vector<ObjectDe::TxnOp> ops(2);
        ops[0] = {"a", key(), random_payload(rng), rng() % 2 == 0, std::nullopt};
        ops[1] = {"b", key(), random_payload(rng), rng() % 2 == 0, std::nullopt};
        (void)de.transact_sync("w", std::move(ops));
        break;
      }
      default:
        (void)store.put_sync("w", key(), random_payload(rng));
        break;
    }
    clock.run_all();
    // Move through the day so the windowed grant opens and closes.
    clock.advance(static_cast<sim::SimTime>(rng() % 6) * kHour);
  }
  record("end");
  return out;
}

TEST(CandidateWalkDifferential, MatchesFullWalkAcross60Seeds) {
  std::uint64_t skipped = 0;
  std::uint64_t delivered = 0;
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    const Transcript candidates = run_walk(seed, Walk::kCandidates);
    skipped += candidates.skipped;
    delivered += candidates.delivered;
    for (Walk full : {Walk::kAudit, Walk::kTraced}) {
      const Transcript reference = run_walk(seed, full);
      const char* name = full == Walk::kAudit ? "audit" : "traced";
      const std::size_t n =
          std::min(candidates.lines.size(), reference.lines.size());
      std::size_t first = 0;
      while (first < n && candidates.lines[first] == reference.lines[first]) {
        ++first;
      }
      if (first < n || candidates.lines.size() != reference.lines.size()) {
        ADD_FAILURE() << "seed " << seed << " (" << name
                      << " walk): first difference at line " << first
                      << "\n  candidates: "
                      << (first < candidates.lines.size()
                              ? candidates.lines[first]
                              : "<end>")
                      << "\n  full walk:  "
                      << (first < reference.lines.size()
                              ? reference.lines[first]
                              : "<end>");
        return;
      }
    }
  }
  // The scripts must skip real work through the index and still deliver.
  EXPECT_GT(skipped, 500u);
  EXPECT_GT(delivered, 2000u);
}

}  // namespace
}  // namespace knactor::de
