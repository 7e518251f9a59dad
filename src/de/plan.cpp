#include "de/plan.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "expr/eval.h"

namespace knactor::de {

using common::CowValue;
using common::Error;
using common::Result;
using common::Value;

// ---------------------------------------------------------------------------
// Per-operator primitives.
// ---------------------------------------------------------------------------

namespace {

/// Env exposing a record's fields as top-level names plus `this`. Fields a
/// record lacks resolve to null (not an error): heterogeneous pools are
/// normal — a filter like "energy > 0" must simply not match records
/// without the field.
class RecordEnv : public expr::Env {
 public:
  explicit RecordEnv(const Value& record) : record_(record) {}

  [[nodiscard]] const Value* resolve(const std::string& name) const override {
    if (name == "this") return &record_;
    if (record_.is_object()) {
      const Value* v = record_.get(name);
      return v != nullptr ? v : &null_;
    }
    return &null_;
  }

 private:
  static const Value null_;
  const Value& record_;
};

const Value RecordEnv::null_{};

Result<Value> eval_record_expr(const LogOp& op, const Value& record) {
  RecordEnv env(record);
  return expr::evaluate(*op.compiled, env,
                        expr::FunctionRegistry::builtins());
}

Value rename_record(const LogOp& op, const Value& record) {
  Value out = Value::object();
  for (const auto& [k, v] : record.as_object()) {
    auto it = op.renames.find(k);
    out.set(it == op.renames.end() ? k : it->second, v);
  }
  return out;
}

Value project_record(const LogOp& op, const Value& record) {
  Value out = Value::object();
  for (const auto& f : op.fields) {
    const Value* v = record.get(f);
    if (v != nullptr) out.set(f, *v);
  }
  return out;
}

/// kWindow bucket for one record: floor(source/width)*width, or null when
/// the source field is missing or non-numeric (heterogeneous pools are
/// normal — such records all land in the null bucket). Integer sources
/// with an integral width stay integers so bucket keys group cleanly.
Value window_bucket(const LogOp& op, const Value& record) {
  const Value* v = record.get(op.source_field);
  if (v == nullptr) return Value(nullptr);
  auto n = v->try_number();
  if (!n) return Value(nullptr);
  double bucket = std::floor(*n / op.width) * op.width;
  if (v->is_int() &&
      op.width == static_cast<double>(static_cast<std::int64_t>(op.width))) {
    return Value(static_cast<std::int64_t>(bucket));
  }
  return Value(bucket);
}

/// Three-way comparison for kSort; missing values sort last regardless of
/// direction. Sets *type_error on unorderable value pairs.
int sort_compare(const LogOp& op, const Value& a, const Value& b,
                 bool* type_error) {
  const Value* fa = a.get(op.field);
  const Value* fb = b.get(op.field);
  if (fa == nullptr && fb == nullptr) return 0;
  if (fa == nullptr) return op.descending ? -1 : 1;
  if (fb == nullptr) return op.descending ? 1 : -1;
  if (fa->is_number() && fb->is_number()) {
    if (fa->as_number() < fb->as_number()) return -1;
    if (fa->as_number() > fb->as_number()) return 1;
    return 0;
  }
  if (fa->is_string() && fb->is_string()) {
    return fa->as_string().compare(fb->as_string());
  }
  *type_error = true;
  return 0;
}

Result<Value> aggregate_column(const std::string& fn,
                               const std::vector<Value>& column) {
  if (fn == "count") {
    return Value(static_cast<std::int64_t>(column.size()));
  }
  if (fn == "first") {
    return column.empty() ? Value(nullptr) : column.front();
  }
  if (fn == "last") {
    return column.empty() ? Value(nullptr) : column.back();
  }
  // Numeric reductions ignore null/missing values.
  std::vector<double> nums;
  bool all_int = true;
  for (const auto& v : column) {
    if (v.is_null()) continue;
    auto n = v.try_number();
    if (!n) {
      return Error::eval("aggregate " + fn + ": non-numeric value");
    }
    if (!v.is_int()) all_int = false;
    nums.push_back(*n);
  }
  if (nums.empty()) return Value(nullptr);
  double out = 0;
  if (fn == "sum") {
    for (double n : nums) out += n;
  } else if (fn == "min") {
    out = *std::min_element(nums.begin(), nums.end());
  } else if (fn == "max") {
    out = *std::max_element(nums.begin(), nums.end());
  } else if (fn == "avg") {
    for (double n : nums) out += n;
    out /= static_cast<double>(nums.size());
    return Value(out);
  } else {
    return Error::invalid_argument("unknown aggregate function '" + fn + "'");
  }
  if (all_int && fn != "avg") return Value(static_cast<std::int64_t>(out));
  return Value(out);
}

/// Aggregates rows: groups by the group_by key tuple in first-seen order,
/// one output row per group.
Result<std::vector<CowValue>> apply_aggregate(
    const LogOp& op, const std::vector<CowValue>& rows) {
  std::vector<std::pair<std::string, std::vector<const Value*>>> groups;
  std::map<std::string, std::size_t> index;
  for (const CowValue& rec : rows) {
    const Value* r = &rec.value();
    std::string key;
    for (const auto& f : op.fields) {
      const Value* v = r->get(f);
      key += (v != nullptr ? common::to_json(*v) : "null") + "\x1f";
    }
    auto it = index.find(key);
    if (it == index.end()) {
      index[key] = groups.size();
      groups.push_back({key, {r}});
    } else {
      groups[it->second].second.push_back(r);
    }
  }
  std::vector<CowValue> out;
  for (auto& [key, members] : groups) {
    Value row = Value::object();
    for (const auto& f : op.fields) {
      const Value* v = members.front()->get(f);
      row.set(f, v != nullptr ? *v : Value(nullptr));
    }
    for (const auto& [out_field, agg] : op.aggs) {
      const auto& [fn, in_field] = agg;
      std::vector<Value> column;
      for (const Value* r : members) {
        const Value* v = r->get(in_field);
        column.push_back(v != nullptr ? *v : Value(nullptr));
      }
      KN_ASSIGN_OR_RETURN(Value agg_value, aggregate_column(fn, column));
      row.set(out_field, std::move(agg_value));
    }
    out.emplace_back(std::move(row));
  }
  return out;
}

bool is_barrier(const LogOp& op) {
  using K = LogOp::Kind;
  return op.kind == K::kSort || op.kind == K::kAggregate ||
         op.kind == K::kHead || op.kind == K::kTail;
}

// ---------------------------------------------------------------------------
// Executor pieces.
// ---------------------------------------------------------------------------

/// Runs one record through a fused record-local segment. Returns false when
/// a filter rejected the record. Mutating operators clone the shared buffer
/// at most once (CowValue::mut).
Result<bool> run_fused_record(const std::vector<LogOp>& ops, CowValue& r) {
  for (const auto& op : ops) {
    switch (op.kind) {
      case LogOp::Kind::kFilter: {
        KN_ASSIGN_OR_RETURN(Value keep, eval_record_expr(op, *r));
        if (!keep.truthy()) return false;
        break;
      }
      case LogOp::Kind::kRename:
        if (r->is_object()) r = CowValue(rename_record(op, *r));
        break;
      case LogOp::Kind::kProject:
        if (r->is_object()) r = CowValue(project_record(op, *r));
        break;
      case LogOp::Kind::kDrop:
        if (r->is_object()) {
          bool any = false;
          for (const auto& f : op.fields) {
            if (r->get(f) != nullptr) {
              any = true;
              break;
            }
          }
          if (any) {
            Value& m = r.mut();
            for (const auto& f : op.fields) m.as_object().erase(f);
          }
        }
        break;
      case LogOp::Kind::kMap: {
        KN_ASSIGN_OR_RETURN(Value v, eval_record_expr(op, *r));
        if (!r->is_object()) r = CowValue(Value::object());
        r.mut().set(op.field, std::move(v));
        break;
      }
      case LogOp::Kind::kWindow: {
        Value bucket = window_bucket(op, *r);
        if (!r->is_object()) r = CowValue(Value::object());
        r.mut().set(op.field, std::move(bucket));
        break;
      }
      default:
        return Error::internal("barrier op inside fused segment");
    }
  }
  return true;
}

Result<std::vector<CowValue>> apply_barrier(const LogOp& op,
                                            std::vector<CowValue> records) {
  switch (op.kind) {
    case LogOp::Kind::kSort: {
      bool type_error = false;
      std::stable_sort(records.begin(), records.end(),
                       [&](const CowValue& a, const CowValue& b) {
                         int c = sort_compare(op, *a, *b, &type_error);
                         return op.descending ? c > 0 : c < 0;
                       });
      if (type_error) {
        return Error::eval("sort: unorderable values in field '" + op.field +
                           "'");
      }
      return records;
    }
    case LogOp::Kind::kHead: {
      if (records.size() > op.n) records.resize(op.n);
      return records;
    }
    case LogOp::Kind::kTail: {
      if (records.size() > op.n) {
        records.erase(records.begin(),
                      records.end() - static_cast<std::ptrdiff_t>(op.n));
      }
      return records;
    }
    case LogOp::Kind::kAggregate:
      return apply_aggregate(op, records);
    default:
      return Error::internal("record-local op used as barrier");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

QueryPlan plan_query(const LogQuery& q, bool fuse) {
  QueryPlan plan;
  for (const auto& op : q) {
    if (is_barrier(op)) {
      PlanStage stage;
      stage.barrier = op;
      stage.is_barrier = true;
      plan.stages.push_back(std::move(stage));
    } else if (!fuse || plan.stages.empty() || plan.stages.back().is_barrier) {
      PlanStage stage;
      stage.fused.push_back(op);
      plan.stages.push_back(std::move(stage));
    } else {
      plan.stages.back().fused.push_back(op);
    }
  }
  if (!fuse) return plan;
  // Scan hints: a leading head/tail bounds how much of the log the scan
  // must materialize; a head right after the leading fused segment lets
  // execution stop once enough records survive it.
  if (!plan.stages.empty() && plan.stages[0].is_barrier) {
    if (plan.stages[0].barrier.kind == LogOp::Kind::kHead) {
      plan.scan_head = plan.stages[0].barrier.n;
    } else if (plan.stages[0].barrier.kind == LogOp::Kind::kTail) {
      plan.scan_tail = plan.stages[0].barrier.n;
    }
  }
  if (plan.stages.size() >= 2 && !plan.stages[0].is_barrier &&
      plan.stages[1].is_barrier &&
      plan.stages[1].barrier.kind == LogOp::Kind::kHead) {
    plan.early_stop = plan.stages[1].barrier.n;
  }
  return plan;
}

Result<std::vector<CowValue>> run_plan(const QueryPlan& plan,
                                       std::vector<CowValue> records,
                                       PlanRunStats* stats) {
  if (stats != nullptr) {
    stats->stage_inputs.clear();
    stats->consumed = records.size();
  }
  for (std::size_t si = 0; si < plan.stages.size(); ++si) {
    const PlanStage& stage = plan.stages[si];
    if (stats != nullptr) stats->stage_inputs.push_back(records.size());
    if (stage.is_barrier) {
      KN_ASSIGN_OR_RETURN(records, apply_barrier(stage.barrier,
                                                 std::move(records)));
      continue;
    }
    std::vector<CowValue> out;
    out.reserve(records.size());
    const bool early = si == 0 && plan.early_stop != kNoLimit;
    std::size_t consumed = 0;
    for (auto& r : records) {
      ++consumed;
      KN_ASSIGN_OR_RETURN(bool keep, run_fused_record(stage.fused, r));
      if (keep) out.push_back(std::move(r));
      if (early && out.size() >= plan.early_stop) break;
    }
    if (early && stats != nullptr) stats->consumed = consumed;
    records = std::move(out);
  }
  return records;
}

std::vector<std::size_t> estimate_stage_inputs(const QueryPlan& plan,
                                               std::size_t input_records) {
  std::vector<std::size_t> estimates;
  estimates.reserve(plan.stages.size() + 1);
  std::size_t n = input_records;
  if (plan.scan_head != kNoLimit) n = std::min(n, plan.scan_head);
  if (plan.scan_tail != kNoLimit) n = std::min(n, plan.scan_tail);
  for (std::size_t si = 0; si < plan.stages.size(); ++si) {
    estimates.push_back(n);
    const PlanStage& stage = plan.stages[si];
    if (stage.is_barrier) {
      if (stage.barrier.kind == LogOp::Kind::kHead ||
          stage.barrier.kind == LogOp::Kind::kTail) {
        n = std::min(n, stage.barrier.n);
      }
      // sort keeps the count; summarize emits at most one record per
      // input (upper bound: every record its own group).
    } else if (si == 0 && plan.early_stop != kNoLimit) {
      // The scan stops once early_stop records survive the fused stage.
      n = std::min(n, plan.early_stop);
    }
    // Fused segments filter (upper bound: everything passes) and map —
    // neither grows the record count.
  }
  estimates.push_back(n);
  return estimates;
}

}  // namespace knactor::de
