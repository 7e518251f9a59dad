#include "de/subscription.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/cow.h"
#include "de/log.h"
#include "de/plan.h"
#include "expr/ast.h"

namespace knactor::de {

namespace {

bool indexable_literal(const expr::Node& node) {
  if (node.kind != expr::NodeKind::kLiteral) return false;
  const common::Value& v = node.literal;
  if (v.is_double()) return !std::isnan(v.as_double());
  return v.is_null() || v.is_bool() || v.is_int() || v.is_string();
}

/// -0.0 == 0.0 under `==`, so both key as 0.0.
double number_key(const common::Value& v) {
  const double number = v.as_number();
  return number == 0 ? 0.0 : number;
}

bool field_name(const expr::Node& node) {
  return node.kind == expr::NodeKind::kName && node.name != "this";
}

/// The index key of one conjunct, if it has an indexable form.
std::optional<CompiledSubscription::IndexKey> conjunct_key(
    const expr::Node& node) {
  if (node.kind != expr::NodeKind::kBinary) return std::nullopt;
  if (node.op == "==") {
    const expr::Node* name = node.a.get();
    const expr::Node* literal = node.b.get();
    if (!field_name(*name)) std::swap(name, literal);
    if (!field_name(*name) || !indexable_literal(*literal)) {
      return std::nullopt;
    }
    return CompiledSubscription::IndexKey{name->name, {literal->literal}};
  }
  if (node.op == "in" && field_name(*node.a) &&
      node.b->kind == expr::NodeKind::kList) {
    CompiledSubscription::IndexKey key{node.a->name, {}};
    for (const auto& item : node.b->args) {
      if (!indexable_literal(*item)) return std::nullopt;
      key.values.push_back(item->literal);
    }
    return key;
  }
  return std::nullopt;
}

/// The first indexable conjunct of the top-level `and` chain, left to
/// right. Any conjunct that is false makes the whole chain fail (an `and`
/// chain passes only when every conjunct is truthy), so one is enough.
std::optional<CompiledSubscription::IndexKey> first_key(
    const expr::Node& node) {
  if (node.kind == expr::NodeKind::kBinary && node.op == "and") {
    if (auto key = first_key(*node.a)) return key;
    return first_key(*node.b);
  }
  return conjunct_key(node);
}

}  // namespace

common::Result<std::shared_ptr<const CompiledSubscription>>
CompiledSubscription::compile(SubscriptionSpec spec) {
  auto sub = std::shared_ptr<CompiledSubscription>(new CompiledSubscription());
  LogQuery pipeline;
  if (!spec.filter.empty()) {
    auto filter = LogOp::filter(spec.filter);
    if (!filter.ok()) {
      return common::Error::invalid_argument(
          "subscription: bad filter '" + spec.filter + "': " +
          filter.error().to_string());
    }
    sub->index_key_ = first_key(*filter.value().compiled);
    pipeline.push_back(filter.take());
    sub->has_filter_ = true;
  }
  if (!spec.project.empty()) {
    pipeline.push_back(LogOp::project(spec.project));
    sub->has_project_ = true;
  }
  sub->spec_ = std::move(spec);
  // Filter + project are both record-local, so the planner fuses them into
  // a single stage: one pass per commit, however many clauses the spec had.
  if (!pipeline.empty()) {
    sub->plan_ = std::make_shared<const QueryPlan>(plan_query(pipeline));
  }
  return std::shared_ptr<const CompiledSubscription>(std::move(sub));
}

std::optional<common::SharedValue> CompiledSubscription::apply(
    const common::SharedValue& payload) const {
  if (!active()) return payload;
  std::vector<common::CowValue> records;
  records.emplace_back(payload ? payload
                               : std::make_shared<const common::Value>());
  auto out = run_plan(*plan_, std::move(records));
  if (!out.ok() || out.value().empty()) return std::nullopt;
  // share() hands back the borrowed buffer when the pass never mutated the
  // record (filter-only subscriptions deliver the committed payload
  // zero-copy); a projection clones exactly once.
  return out.value().front().share();
}

// ---------------------------------------------------------------------------
// SubscriptionIndex
// ---------------------------------------------------------------------------

void SubscriptionIndex::clear() {
  fields_.clear();
  scan_.clear();
}

void SubscriptionIndex::add(std::uint32_t position,
                            const CompiledSubscription::IndexKey* key) {
  if (key == nullptr) {
    scan_.push_back(position);
    return;
  }
  std::size_t slot = 0;
  while (slot < fields_.size() && fields_[slot].field != key->field) ++slot;
  if (slot == fields_.size()) fields_.emplace_back().field = key->field;
  for (const common::Value& value : key->values) {
    Positions* positions = bucket(fields_[slot], value);
    // `x in [1, 1.0]` names one bucket twice; positions arrive ascending.
    if (positions->empty() || positions->back() != position) {
      positions->push_back(position);
    }
  }
}

void SubscriptionIndex::candidates(const common::SharedValue& payload,
                                   Positions& out) const {
  static const common::Value kNull;
  out = scan_;
  for (const FieldIndex& index : fields_) {
    // Same resolution as the filter's record environment: a missing field
    // or a non-object payload reads null.
    const common::Value* value =
        payload != nullptr ? payload->get(index.field) : nullptr;
    const Positions* hits = bucket(index, value != nullptr ? *value : kNull);
    if (hits == nullptr || hits->empty()) continue;
    // A position has one key, so the lists are disjoint: merge, no dedup.
    const auto mid = static_cast<std::ptrdiff_t>(out.size());
    out.insert(out.end(), hits->begin(), hits->end());
    std::inplace_merge(out.begin(), out.begin() + mid, out.end());
  }
}

// The normalisation behind both lookups; must agree with the filter
// language's `==` (numbers by double value, everything else by type and
// value).
const SubscriptionIndex::Positions* SubscriptionIndex::bucket(
    const FieldIndex& index, const common::Value& value) {
  switch (value.type()) {
    case common::Value::Type::kNull:
      return &index.nulls;
    case common::Value::Type::kBool:
      return value.as_bool() ? &index.trues : &index.falses;
    case common::Value::Type::kInt:
    case common::Value::Type::kDouble: {
      auto it = index.numbers.find(number_key(value));  // NaN finds nothing
      return it == index.numbers.end() ? nullptr : &it->second;
    }
    case common::Value::Type::kString: {
      auto it = index.strings.find(std::string_view(value.as_string()));
      return it == index.strings.end() ? nullptr : &it->second;
    }
    default:
      return nullptr;  // arrays and objects equal no scalar literal
  }
}

SubscriptionIndex::Positions* SubscriptionIndex::bucket(
    FieldIndex& index, const common::Value& value) {
  switch (value.type()) {
    case common::Value::Type::kNull:
      return &index.nulls;
    case common::Value::Type::kBool:
      return value.as_bool() ? &index.trues : &index.falses;
    case common::Value::Type::kInt:
    case common::Value::Type::kDouble:
      return &index.numbers[number_key(value)];
    default:  // compile admits scalar literals only, never NaN
      return &index.strings[value.as_string()];
  }
}

}  // namespace knactor::de
