// Unified subscription layer (ROADMAP item 2, CycloneDDS-style data-centric
// delivery): every watch on a data exchange is a *subscription* — a key
// prefix, an optional content filter (`expr::` predicate) plus projection,
// and a per-subscriber QoS contract. Filter and projection are compiled
// ONCE, through the same fused query planner that consolidates Log
// pipelines (de/plan.h), into a single per-record pass; the exchange
// evaluates that pass *before* enqueueing a delivery, so a commit that a
// subscriber did not ask for never costs a queue slot, an RBAC field
// filter, or a callback.
//
// Determinism contract: a compiled subscription is immutable and `apply()`
// is a pure function of the payload (no RNG, no clock, no shared
// counters). The epoch pipeline runs it in its publish loop, once the
// epoch has committed, and counts matches and rejections right there, so
// a rolled-back epoch counts nothing (see docs/SUBSCRIPTIONS.md).
//
// Indexed matching: a filter whose top-level `and` chain holds an equality
// conjunct (`field == literal`, `field in [literals]`) can only pass a
// payload whose field holds one of those literals. A SubscriptionIndex
// maps field -> value -> subscriptions, so the exchange visits and runs
// `apply()` only for the subscriptions a commit can satisfy plus the scan
// set (the subscriptions the index cannot decide).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "sim/clock.h"

namespace knactor::de {

// The compiled form holds a fused de::QueryPlan (de/plan.h); kept opaque
// here so both facade headers (object.h, log.h) can include this one
// without an include cycle through the Log query surface.
struct QueryPlan;

/// Per-subscriber delivery contract. All knobs are optional; the zero
/// value means "the legacy watch behavior".
struct SubscriptionQos {
  /// Keep only the newest N coalesced slots per delivered batch (0 =
  /// unbounded). Older slots are dropped at flush and counted in
  /// `watch_events_dropped` — the DDS HISTORY KEEP_LAST analog.
  std::size_t history_depth = 0;
  /// Coalescing window for batched delivery (virtual time; 0 = one batch
  /// per commit). Maps onto the watch-batch revision window.
  sim::SimTime window = 0;
  /// Delivery latency budget (virtual time; 0 = none). Annotated on
  /// `sub.deliver` spans so an SLO with a `stage:` selector on this
  /// subscription's stage can gate against it.
  sim::SimTime deadline = 0;
  /// Stage label stamped on delivery spans (defaults to "sub"); the SLO
  /// engine's `stage:<label>` selectors aggregate on it.
  std::string stage;

  [[nodiscard]] const std::string& stage_or_default() const {
    static const std::string kDefault = "sub";
    return stage.empty() ? kDefault : stage;
  }
};

/// What a subscriber asks for: which keys (prefix), which records of those
/// keys (filter), which fields of those records (project), and how
/// delivery should behave (qos).
struct SubscriptionSpec {
  std::string prefix;
  /// `expr::` predicate over the committed payload ("" = match all).
  /// Deletes are evaluated against the pre-delete payload, so a subscriber
  /// that saw an object always sees its deletion.
  std::string filter;
  /// Projection field list (empty = deliver the full payload zero-copy).
  std::vector<std::string> project;
  SubscriptionQos qos;
};

/// A subscription's filter+projection compiled into one fused plan stage.
/// Compile once at subscribe time; `apply()` per matching commit.
class CompiledSubscription {
 public:
  /// Compiles the spec. Fails iff the filter predicate does not parse.
  static common::Result<std::shared_ptr<const CompiledSubscription>> compile(
      SubscriptionSpec spec);

  [[nodiscard]] const SubscriptionSpec& spec() const { return spec_; }
  [[nodiscard]] const SubscriptionQos& qos() const { return spec_.qos; }
  /// True when apply() can reject or rewrite payloads (a filter or a
  /// projection is present). Inactive subscriptions are pure pass-through
  /// and the exchange skips evaluation entirely.
  [[nodiscard]] bool active() const { return has_filter_ || has_project_; }
  [[nodiscard]] bool filtered() const { return has_filter_; }
  [[nodiscard]] bool projected() const { return has_project_; }

  /// The first top-level conjunct of the filter of the form
  /// `name == literal`, `literal == name` or `name in [literal, ...]`
  /// (`name` a bare field other than `this`, every literal a scalar): the
  /// predicate can only pass a payload whose `field` equals one of
  /// `values`. Null when the filter has no such conjunct (scan set).
  struct IndexKey {
    std::string field;
    std::vector<common::Value> values;
  };
  [[nodiscard]] const IndexKey* index_key() const {
    return index_key_ ? &*index_key_ : nullptr;
  }

  /// Runs the fused filter+project pass over one committed payload.
  /// Returns nullopt when the predicate rejects the record (an erroring
  /// predicate never matches — deterministically), otherwise the payload
  /// to deliver: the original shared handle when nothing rewrote it, a
  /// projected copy otherwise. Pure and thread-safe.
  [[nodiscard]] std::optional<common::SharedValue> apply(
      const common::SharedValue& payload) const;

 private:
  CompiledSubscription() = default;

  SubscriptionSpec spec_;
  std::shared_ptr<const QueryPlan> plan_;
  std::optional<IndexKey> index_key_;
  bool has_filter_ = false;
  bool has_project_ = false;
};

/// Equality index over one store's watchers: field -> normalised value ->
/// positions (the watchers' indices in the store's registration-order
/// watcher list, ascending), plus the scan set of positions every payload
/// is a candidate for. Keys normalise exactly as the filter language's
/// `==` compares: numbers (int or double) by their double value with -0.0
/// folded to 0.0, so `1 == 1.0`; strings, bools and null by type and
/// value. A missing field or a non-object payload looks up null; an array
/// or object field value hits no bucket. Grown by subscribe, rebuilt
/// after unsubscribe and policy changes, otherwise read-only.
class SubscriptionIndex {
 public:
  using Positions = std::vector<std::uint32_t>;

  void clear();
  /// Registers the watcher at `position` under `key`; null joins the scan
  /// set. Positions must be added in ascending order.
  void add(std::uint32_t position, const CompiledSubscription::IndexKey* key);
  /// The candidates for `payload`, ascending: the scan set plus every
  /// position whose key the payload hits (one lookup per indexed field).
  /// Any other registered watcher's predicate cannot pass. `out` is
  /// caller-owned scratch, reusable across calls.
  void candidates(const common::SharedValue& payload, Positions& out) const;

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct FieldIndex {
    std::string field;
    Positions nulls, falses, trues;
    std::unordered_map<double, Positions> numbers;  // never NaN
    std::unordered_map<std::string, Positions, StringHash, std::equal_to<>>
        strings;
  };
  /// The bucket `value` keys into: looked up for a payload value (null
  /// when no indexed literal can equal it), or created for a literal.
  static const Positions* bucket(const FieldIndex& index,
                                 const common::Value& value);
  static Positions* bucket(FieldIndex& index, const common::Value& value);

  std::vector<FieldIndex> fields_;
  Positions scan_;
};

}  // namespace knactor::de
