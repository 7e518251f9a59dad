#include "core/cast.h"

#include <algorithm>
#include <memory>
#include <set>

#include "common/json.h"
#include "common/strings.h"
#include "common/logging.h"
#include "yaml/yaml.h"

namespace knactor::core {

using common::Error;
using common::Result;
using common::Status;
using common::Value;

namespace {

constexpr const char* kDefaultObject = "state";

/// Values compare as "already in sync" with numeric tolerance across
/// int/double (a recomputed double must not oscillate against a stored
/// int).
bool in_sync(const Value& current, const Value& desired) {
  if (current.is_number() && desired.is_number()) {
    return current.as_number() == desired.as_number();
  }
  return current == desired;
}

/// Name resolution for one (mapping, target object) instance of a pass,
/// without copies: aliases resolve into the persistent alias views, and
/// `it` (the fan-out driver key) and `this` (the target object) are served
/// from members. `this` shadows `it`, which shadows an alias of that name.
template <typename Views>
class InstanceEnv : public expr::Env {
 public:
  explicit InstanceEnv(const Views& views) : views_(views) {}

  void bind(const Value* this_obj, const std::string* it_key) {
    this_ = this_obj;
    has_it_ = it_key != nullptr;
    if (has_it_) it_ = Value(*it_key);
  }

  [[nodiscard]] const Value* resolve(const std::string& name) const override {
    if (name == "this") return this_;
    if (has_it_ && name == "it") return &it_;
    auto it = views_.find(name);
    return it == views_.end() ? nullptr : &it->second.value;
  }

 private:
  const Views& views_;
  const Value* this_ = nullptr;
  Value it_;
  bool has_it_ = false;
};

/// Classifies the alias reads of one mapping expression, mirroring how
/// InstanceEnv and the evaluator resolve names:
///   * a fixed key: `A.x`, `A["x"]`, `get(A, "x")` read `A[x]`;
///   * keyed by `it`: `A[it]`, `get(A, it)` in a fan-out mapping;
///   * a dynamic key: `get(Z, get(R, it).zoneKey)`, `A[expr]`, whose key
///     the integrator records when it evaluates the instance;
///   * the whole alias: a bare `A` anywhere else (`keys(A)`, a dynamic key
///     inside a comprehension, where the key depends on the loop item).
/// `this` is always the target object. A comprehension loop variable
/// shadows `this`, `it` and alias names inside its body and filter, as
/// LoopEnv does at run time.
class ReadClassifier {
 public:
  ReadClassifier(const std::map<std::string, std::string>& aliases,
                 bool fan_out)
      : aliases_(aliases), fan_out_(fan_out) {}

  void walk(const expr::Node& node) {
    using expr::NodeKind;
    switch (node.kind) {
      case NodeKind::kName:
        if (const std::string* alias = alias_of(node)) whole.insert(*alias);
        return;
      case NodeKind::kAttribute:
        if (const std::string* alias = alias_of(*node.a)) {
          keys.emplace(*alias, node.name);
          return;
        }
        walk(*node.a);
        return;
      case NodeKind::kIndex:
        if (const std::string* alias = alias_of(*node.a)) {
          read_key(*alias, *node.b);
          return;
        }
        walk(*node.a);
        walk(*node.b);
        return;
      case NodeKind::kCall:
        if (node.name == "get" &&
            (node.args.size() == 2 || node.args.size() == 3)) {
          if (const std::string* alias = alias_of(*node.args[0])) {
            read_key(*alias, *node.args[1]);
            if (node.args.size() == 3) walk(*node.args[2]);
            return;
          }
        }
        break;
      case NodeKind::kListComp:
        walk(*node.a);
        shadow_.push_back(node.name);
        walk(*node.b);
        if (node.c) walk(*node.c);
        shadow_.pop_back();
        return;
      default:
        break;
    }
    for (const expr::Node* child : {node.a.get(), node.b.get(), node.c.get()}) {
      if (child != nullptr) walk(*child);
    }
    for (const auto& arg : node.args) walk(*arg);
  }

  std::set<std::pair<std::string, std::string>> keys;
  std::set<std::string> it_keyed;
  std::vector<std::pair<std::string, const expr::Node*>> dynamic;
  std::set<std::string> whole;

 private:
  [[nodiscard]] bool shadowed(const std::string& name) const {
    return std::find(shadow_.begin(), shadow_.end(), name) != shadow_.end();
  }
  /// The alias a name node resolves to, or nullptr.
  [[nodiscard]] const std::string* alias_of(const expr::Node& node) const {
    if (node.kind != expr::NodeKind::kName || shadowed(node.name) ||
        node.name == "this" || (fan_out_ && node.name == "it")) {
      return nullptr;
    }
    auto it = aliases_.find(node.name);
    return it == aliases_.end() ? nullptr : &it->first;
  }
  void read_key(const std::string& alias, const expr::Node& key) {
    if (key.kind == expr::NodeKind::kLiteral && key.literal.is_string()) {
      keys.emplace(alias, key.literal.as_string());
    } else if (key.kind == expr::NodeKind::kName && key.name == "it" &&
               fan_out_ && !shadowed("it")) {
      it_keyed.insert(alias);
    } else {
      if (shadow_.empty()) {
        dynamic.emplace_back(alias, &key);
      } else {
        whole.insert(alias);
      }
      walk(key);
    }
  }

  const std::map<std::string, std::string>& aliases_;
  bool fan_out_;
  std::vector<std::string> shadow_;
};

}  // namespace

CastIntegrator::CastIntegrator(std::string name, de::ObjectDe& de, Dxg dxg,
                               std::map<std::string, de::ObjectStore*> stores,
                               Options options,
                               const de::SchemaRegistry* schemas,
                               Tracer* tracer)
    : name_(std::move(name)),
      de_(de),
      dxg_(std::move(dxg)),
      stores_(std::move(stores)),
      options_(options),
      schemas_(schemas),
      tracer_(tracer) {}

CastIntegrator::CastIntegrator(std::string name, de::ObjectDe& de, Dxg dxg,
                               std::map<std::string, de::ObjectStore*> stores)
    : CastIntegrator(std::move(name), de, std::move(dxg), std::move(stores),
                     Options{}) {}

Status CastIntegrator::start() {
  if (running_) return Status::success();
  // All aliases must be bound.
  for (const auto& [alias, store_id] : dxg_.inputs()) {
    if (stores_.find(alias) == stores_.end()) {
      return Error::failed_precondition("cast " + name_ + ": alias '" + alias +
                                        "' (" + store_id + ") not bound");
    }
  }
  if (options_.strict) {
    auto issues = analyze(dxg_, schemas_);
    for (const auto& issue : issues) {
      if (issue.kind == DxgIssue::Kind::kCycle ||
          issue.kind == DxgIssue::Kind::kUnresolvedAlias ||
          issue.kind == DxgIssue::Kind::kUnknownField ||
          issue.kind == DxgIssue::Kind::kNotExternal) {
        return Error::failed_precondition("cast " + name_ + ": " +
                                          std::string(issue_kind_name(issue.kind)) +
                                          ": " + issue.detail);
      }
    }
  }
  running_ = true;
  if (pushdown_) {
    // Data path already lives in the DE.
  } else if (options_.poll_interval > 0) {
    schedule_poll();
  } else {
    install_watches();
  }
  // Initial pass picks up pre-existing state.
  if (!pushdown_) run_pass_async(options_.max_rounds_per_event);
  return Status::success();
}

void CastIntegrator::stop() {
  running_ = false;
  remove_watches();
}

void CastIntegrator::bind_store(const std::string& alias,
                                de::ObjectStore& store) {
  stores_[alias] = &store;
}

Status CastIntegrator::reconfigure(const Value& config) {
  KN_ASSIGN_OR_RETURN(Dxg next, Dxg::from_value(config));
  for (const auto& [alias, store_id] : next.inputs()) {
    if (stores_.find(alias) == stores_.end()) {
      return Error::failed_precondition("cast " + name_ + ": alias '" + alias +
                                        "' (" + store_id +
                                        ") not bound; call bind_store first");
    }
  }
  if (options_.strict) {
    auto issues = analyze(next, schemas_);
    for (const auto& issue : issues) {
      if (issue.kind == DxgIssue::Kind::kCycle ||
          issue.kind == DxgIssue::Kind::kUnresolvedAlias ||
          issue.kind == DxgIssue::Kind::kUnknownField ||
          issue.kind == DxgIssue::Kind::kNotExternal) {
        return Error::failed_precondition(
            "cast " + name_ + ": rejected reconfiguration: " +
            std::string(issue_kind_name(issue.kind)) + ": " + issue.detail);
      }
    }
  }
  bool was_pushdown = pushdown_;
  if (was_pushdown) disable_pushdown();
  bool was_running = running_;
  if (was_running) {
    remove_watches();
  }
  dxg_ = std::move(next);
  resync_ = true;
  ++stats_.reconfigurations;
  if (was_pushdown) {
    KN_TRY(enable_pushdown());
  } else if (was_running) {
    if (options_.poll_interval == 0) install_watches();
    run_pass_async(options_.max_rounds_per_event);
  }
  return Status::success();
}

Status CastIntegrator::reconfigure_yaml(std::string_view yaml_text) {
  KN_ASSIGN_OR_RETURN(Value spec, yaml::parse(yaml_text));
  return reconfigure(spec);
}

void CastIntegrator::install_watches() {
  remove_watches();
  // Subscribe to every aliased store the DXG reads; also written stores
  // whose objects feed `this` references. Watching all aliases is simplest
  // and matches the informer pattern; self-writes converge because passes
  // only write out-of-sync fields.
  //
  // The spec's per-alias `Watch:` clause supplies the subscription's
  // content filter, projection, and QoS; a commit the filter rejects never
  // reaches the integrator, so no pass runs for it. `batch_window`
  // remains the programmatic default window when the clause sets none.
  for (const auto& [alias, store] : stores_) {
    if (dxg_.inputs().find(alias) == dxg_.inputs().end()) continue;
    de::SubscriptionSpec spec;
    if (const DxgWatch* clause = dxg_.watch_for(alias)) spec = clause->spec;
    if (spec.qos.window == 0) spec.qos.window = options_.batch_window;
    if (spec.qos.window > 0) {
      // Server-side coalescing: the DE buffers a window of commits and
      // delivers one batch; one pass consumes the whole burst.
      auto sub = store->subscribe_batch(
          principal(), std::move(spec), [this](const de::WatchBatch& batch) {
            if (!running_ || pushdown_) return;
            ++stats_.batches_consumed;
            stats_.batched_events += batch.events.size();
            // The earliest commit of the batch is the causal trigger (the
            // front event after the commit-seq merge); the whole pass runs
            // under its trace.
            if (!batch.events.empty()) trigger_ctx_ = batch.events.front().ctx;
            run_pass_async(options_.max_rounds_per_event);
          });
      if (!sub.ok()) {
        KN_WARN << "cast " << name_ << ": subscribe denied on store '"
                << store->name() << "': " << sub.error().to_string();
      } else {
        watches_.emplace_back(store, sub.value());
      }
      continue;
    }
    auto sub = store->subscribe(
        principal(), std::move(spec), [this](const de::WatchEvent& event) {
          if (!running_ || pushdown_) return;
          trigger_ctx_ = event.ctx;
          run_pass_async(options_.max_rounds_per_event);
        });
    if (!sub.ok()) {
      KN_WARN << "cast " << name_ << ": subscribe denied on store '"
              << store->name() << "': " << sub.error().to_string();
    } else {
      watches_.emplace_back(store, sub.value());
    }
  }
}

void CastIntegrator::remove_watches() {
  for (auto& [store, id] : watches_) {
    store->unsubscribe(id, /*drain=*/false);
  }
  watches_.clear();
}

void CastIntegrator::schedule_poll() {
  if (!running_ || options_.poll_interval <= 0) return;
  de_.clock().schedule_after(options_.poll_interval, [this]() {
    if (!running_) return;
    run_pass_async(options_.max_rounds_per_event);
    schedule_poll();
  });
}

void CastIntegrator::AliasView::mark_dirty(const std::string& key) {
  dirty_keys.insert(key);
  if (key == kDefaultObject) default_dirty = true;
}

void CastIntegrator::refresh_views(Listing& listing) {
  bool resync = resync_ || listing.failed ||
                listing.objects.size() != views_.size();
  auto vit = views_.begin();
  for (const auto& [alias, objects] : listing.objects) {
    if (resync) break;
    resync = alias != (vit++)->first;
  }
  const std::uint64_t generation =
      expr::FunctionRegistry::currency_rates_generation();
  if (resync) {
    // Diffing against empty views copies every object in list order, and
    // the fresh views hold no memos.
    views_.clear();
    for (const auto& [alias, objects] : listing.objects) views_[alias];
  } else if (generation != rates_generation_) {
    // The rate table is an input of every instance: drop every memo.
    for (auto& plan : plans_) plan.memo = Memo{};
    for (auto& [alias, view] : views_) {
      for (auto& [key, entry] : view.objects) entry.memos.clear();
    }
  }
  rates_generation_ = generation;
  vit = views_.begin();
  for (auto& [alias, objects] : listing.objects) {
    diff_alias((vit++)->second, objects);
  }
  if (resync) {
    plan_mappings();
    // A failed list leaves its alias empty for this pass; the next pass
    // rebuilds from a complete listing.
    resync_ = listing.failed;
  }
}

void CastIntegrator::diff_alias(AliasView& view,
                                std::vector<de::StateObject>& objects) {
  // Keys the previous pass wrote into `value` are stale whether or not
  // their commit succeeded: re-copy them from the listing.
  const std::set<std::string> written = std::move(view.written);
  view.written.clear();
  view.dirty_keys.clear();
  view.default_dirty = false;
  const bool had_default = view.objects.count(kDefaultObject) != 0;
  bool removed = false;        // keys leave `value`
  bool out_of_order = false;  // an appended key is not `value`'s last
  auto& value = view.value.as_object();
  auto it = view.objects.begin();
  auto remove_before = [&](const std::string* key) {
    while (it != view.objects.end() && (key == nullptr || it->first < *key)) {
      view.mark_dirty(it->first);
      it = view.objects.erase(it);
      removed = true;
    }
  };
  for (auto& obj : objects) {
    remove_before(&obj.key);
    if (it != view.objects.end() && it->first == obj.key) {
      // The view holds the old handle, so an unchanged address means
      // unchanged content (versions can be re-issued; handles cannot).
      if (it->second.data != obj.data || written.count(obj.key) != 0) {
        view.mark_dirty(obj.key);
        value.set(obj.key, obj.data_copy());
        it->second.data = std::move(obj.data);
      }
      it->second.version = obj.version;
      ++it;
      continue;
    }
    // Added. `value` appends it, or overwrites in place the copy the pass
    // created; either is list order only for the greatest key, with no
    // merged default fields or other created keys after it.
    view.mark_dirty(obj.key);
    value.set(obj.key, obj.data_copy());
    if (it != view.objects.end() || had_default || !written.empty()) {
      out_of_order = true;
    }
    view.objects.emplace_hint(
        it, std::move(obj.key),
        AliasView::Entry{std::move(obj.data), obj.version, {}});
  }
  remove_before(nullptr);
  for (const auto& key : written) {
    // Created by the pass but not listed (its commit failed), or a merged
    // default field the pass overwrote (the default object is dirty too).
    if (view.objects.count(key) == 0) {
      view.mark_dirty(key);
      removed = true;
    }
  }
  const bool has_default = view.objects.count(kDefaultObject) != 0;
  // Only whole-alias reads observe `value`'s order; the default merge must
  // be recomputed when the default object or the keys it yields to change.
  if (view.default_dirty || (view.ordered && (out_of_order || removed)) ||
      ((had_default || has_default) && removed)) {
    relayout(view);
  } else if (removed) {
    for (const auto& key : view.dirty_keys) {
      if (view.objects.count(key) == 0) value.erase(key);
    }
  }
}

void CastIntegrator::relayout(AliasView& view) {
  Value::Object& old = view.value.as_object();
  Value::Object next;
  for (const auto& [key, entry] : view.objects) {
    Value* copy = old.find(key);
    next.set(key, copy != nullptr ? std::move(*copy) : Value(nullptr));
  }
  // The default object's fields are visible at top level (so "P.id"
  // resolves when P's store keeps a single default object with field
  // "id"), unless an object of that name shadows them.
  const Value* def = next.find(kDefaultObject);
  if (def != nullptr && def->is_object()) {
    Value fields = *def;
    for (auto& [k, v] : fields.as_object()) {
      if (!next.contains(k)) next.set(k, std::move(v));
    }
  }
  view.value = Value(std::move(next));
}

void CastIntegrator::plan_mappings() {
  auto view_of = [this](const std::string& alias) -> AliasView* {
    auto it = views_.find(alias);
    return it == views_.end() ? nullptr : &it->second;
  };
  plans_.clear();
  plans_.reserve(dxg_.mappings().size());
  for (const auto& mapping : dxg_.mappings()) {
    ReadClassifier reads(dxg_.inputs(), mapping.fan_out);
    reads.walk(*mapping.compiled);
    MappingPlan plan;
    plan.target = view_of(mapping.target_alias);
    for (const auto& [alias, key] : reads.keys) {
      if (const AliasView* view = view_of(alias)) plan.keys.emplace_back(view, key);
    }
    for (const auto& alias : reads.it_keyed) {
      if (const AliasView* view = view_of(alias)) plan.it_keyed.push_back(view);
    }
    for (const auto& [alias, key] : reads.dynamic) {
      if (const AliasView* view = view_of(alias)) {
        plan.dynamic.emplace_back(view, key);
      }
    }
    for (const auto& alias : reads.whole) {
      if (AliasView* view = view_of(alias)) {
        view->ordered = true;
        plan.whole.push_back(view);
      }
    }
    plans_.push_back(std::move(plan));
  }
}

bool CastIntegrator::instance_dirty(const MappingPlan& plan,
                                    const std::string& target_object,
                                    const Memo& memo) const {
  // The target is always read: `this`, and the in-sync comparison.
  if (plan.target != nullptr && plan.target->key_dirty(target_object)) {
    return true;
  }
  for (const AliasView* view : plan.whole) {
    if (view->dirty()) return true;
  }
  for (const auto& [view, key] : plan.keys) {
    if (view->key_dirty(key)) return true;
  }
  // Fan-out instances are keyed by their driver key, which `it` is bound to.
  for (const AliasView* view : plan.it_keyed) {
    if (view->key_dirty(target_object)) return true;
  }
  for (std::size_t i = 0; i < plan.dynamic.size(); ++i) {
    const AliasView* view = plan.dynamic[i].first;
    const Value& key = memo.dynamic_keys[i];
    if (key.is_string() ? view->key_dirty(key.as_string()) : view->dirty()) {
      return true;
    }
  }
  return false;
}

void CastIntegrator::add_input(const std::string& alias,
                               const std::string& key,
                               std::vector<LineageRef>& out,
                               InputSet& seen) const {
  auto sit = stores_.find(alias);
  auto vit = views_.find(alias);
  if (sit == stores_.end() || vit == views_.end()) return;
  const auto& objects = vit->second.objects;
  LineageRef ref;
  auto def = objects.find(kDefaultObject);
  if (auto obj = objects.find(key); obj != objects.end()) {
    ref.version = obj->second.version;
    ref.data = obj->second.data ? obj->second.data
                                : std::make_shared<const Value>();
  } else if (def != objects.end() && def->second.data &&
             def->second.data->get(key) != nullptr) {
    // A default-object field the merge exposed under this name.
    ref.data = std::make_shared<const Value>(*def->second.data->get(key));
  } else {
    return;  // `value[key]` resolved to nothing before the pass
  }
  ref.store = sit->second->name();
  ref.key = key;
  if (seen.emplace(ref.store, key).second) out.push_back(std::move(ref));
}

void CastIntegrator::resolve_inputs(const DxgMapping& mapping,
                                    const std::string* it_key,
                                    std::vector<LineageRef>& out,
                                    InputSet& seen) const {
  auto add = [&](const std::string& alias, const std::string& key) {
    add_input(alias, key, out, seen);
  };
  for (const auto& ref : mapping.refs) {
    auto dot = ref.find('.');
    std::string alias = dot == std::string::npos ? ref : ref.substr(0, dot);
    if (stores_.find(alias) == stores_.end()) continue;
    if (mapping.fan_out && it_key != nullptr && alias == mapping.driver_alias) {
      add(alias, *it_key);
      continue;
    }
    auto vit = views_.find(alias);
    if (vit == views_.end()) continue;
    const auto& objects = vit->second.objects;
    // "ALIAS.x.y": x is the object key when such an object exists;
    // otherwise the ref reads through the default object's top-level
    // merge. A ref that can't be pinned contributes every object of the
    // alias — completeness beats minimality for replay.
    std::string first;
    if (dot != std::string::npos) {
      std::string rest = ref.substr(dot + 1);
      auto dot2 = rest.find('.');
      first = dot2 == std::string::npos ? rest : rest.substr(0, dot2);
    }
    if (!first.empty() && objects.count(first) != 0) {
      add(alias, first);
    } else if (objects.count(kDefaultObject) != 0) {
      add(alias, kDefaultObject);
    } else {
      for (const auto& [key, entry] : objects) add(alias, key);
    }
  }
}

void CastIntegrator::record_lineage(const std::string& alias,
                                    const std::string& object,
                                    std::uint64_t version,
                                    std::vector<LineageRef> inputs,
                                    const TraceContext& ctx,
                                    std::uint64_t span_id) {
  auto& ring = de_.kernel().provenance();
  if (!ring.enabled()) return;
  auto sit = stores_.find(alias);
  if (sit == stores_.end()) return;
  de::ObjectStore* store = sit->second;
  LineageRecord rec;
  rec.output.store = store->name();
  rec.output.key = object;
  rec.output.version = version;
  // Resolve the committed payload at exactly `version` from the kernel's
  // version-chain record: later commits may already have landed by the
  // time this callback runs, so peeking the live object could record the
  // wrong bytes (and the wrong pre-state — the snapshot the pass read may
  // be older than the version the patch actually merged into).
  if (const LineageRecord* committed =
          ring.find(store->name(), object, version);
      committed != nullptr) {
    rec.output.data = committed->output.data;
    if (!committed->inputs.empty()) {
      for (auto& input : inputs) {
        if (input.store == store->name() && input.key == object) {
          input = committed->inputs.front();
        }
      }
    }
  } else if (const de::StateObject* live = store->peek(object);
             live != nullptr) {
    rec.output.data = live->data;
    if (version == 0) rec.output.version = live->version;
  }
  rec.inputs = std::move(inputs);
  rec.op = "cast:" + name_;
  rec.stage = "I-S";
  rec.trace_id = ctx.trace_id;
  rec.span_id = span_id;
  rec.time = de_.clock().now();
  ring.record(std::move(rec));
}

CastIntegrator::PatchSet CastIntegrator::evaluate() {
  PatchSet result;
  const bool lineage = de_.kernel().provenance().enabled();
  const auto& functions = expr::FunctionRegistry::builtins();
  // Later mappings see earlier mappings' writes within the same pass
  // (operation ordering via state dependencies): writes land in the views
  // in place and mark their keys dirty for later readers.
  InstanceEnv env(views_);
  const Value empty_object = Value::object();
  std::map<std::pair<std::string, std::string>, std::size_t> group_of;
  std::vector<InputSet> seen;  // parallel to result.inputs

  // Evaluates one (mapping, target object key) instance; `it_key` is bound
  // for fan-out instances. Evaluation borrows from the views, which are
  // only mutated after the instance's result has been compared and copied
  // out.
  auto apply_one = [&](const DxgMapping& mapping, const MappingPlan& plan,
                       Memo& memo, const std::string& target_object,
                       const std::string* it_key) {
    if (memo.outcome != Outcome::kNone &&
        !instance_dirty(plan, target_object, memo)) {
      ++stats_.instances_skipped;
      if (memo.outcome == Outcome::kNotReady) ++result.not_ready;
      if (memo.outcome == Outcome::kError) {
        ++result.errors;
        ++stats_.eval_errors;
      }
      return;
    }
    ++stats_.instances_evaluated;
    // `this` = the target object's current value.
    const Value* target_obj = &empty_object;
    auto tit = views_.find(mapping.target_alias);
    if (tit != views_.end()) {
      const Value* obj = tit->second.value.get(target_object);
      if (obj != nullptr && obj->is_object()) target_obj = obj;
    }
    env.bind(target_obj, it_key);

    // A memoized outcome records which key each dynamic read resolved to
    // (a pure re-evaluation of the key expression, before any write).
    auto remember = [&](Outcome outcome) {
      memo.outcome = outcome;
      memo.dynamic_keys.clear();
      for (const auto& [view, key] : plan.dynamic) {
        auto resolved = expr::evaluate(*key, env, functions);
        memo.dynamic_keys.push_back(resolved.ok() ? resolved.take() : Value());
      }
    };
    auto evaluated = expr::evaluate(*mapping.compiled, env, functions);
    if (!evaluated.ok()) {
      remember(Outcome::kError);
      ++result.errors;
      ++stats_.eval_errors;
      KN_DEBUG << "cast " << name_ << ": " << mapping.target_path() << ": "
               << evaluated.error().to_string();
      return;
    }
    Value desired = evaluated.take();
    if (desired.is_null()) {
      remember(Outcome::kNotReady);
      ++result.not_ready;
      return;
    }
    const Value* current = target_obj->get(mapping.field);
    if (current != nullptr && in_sync(*current, desired)) {
      remember(Outcome::kInSync);
      return;
    }
    // A patched instance re-evaluates next pass: its target is written.
    memo.outcome = Outcome::kNone;

    // Record the patch, grouped by (alias, object) in first-appearance
    // order (write order is observable).
    auto [group, fresh] = group_of.try_emplace(
        std::make_pair(mapping.target_alias, target_object),
        result.patches.size());
    if (fresh) {
      result.patches.emplace_back(group->first, Value::object());
      if (lineage) {
        result.inputs.emplace_back();
        seen.emplace_back();
        // The target's own pre-state is always an input: the committed
        // output is the merge of this patch over it, so replaying the
        // inputs alone must be able to rebuild the record byte-for-byte.
        add_input(mapping.target_alias, target_object, result.inputs.back(),
                  seen.back());
      }
    }
    const std::size_t gi = group->second;
    result.patches[gi].second.set(mapping.field, desired);
    if (lineage) resolve_inputs(mapping, it_key, result.inputs[gi], seen[gi]);

    // Reflect the write into the view for later instances of this pass.
    AliasView& view =
        tit != views_.end() ? tit->second : views_[mapping.target_alias];
    Value& alias_value = view.value;
    Value* obj = alias_value.get(target_object);
    if (obj == nullptr || !obj->is_object()) {
      alias_value.set(target_object, Value::object());
      obj = alias_value.get(target_object);
    }
    view.written.insert(target_object);
    view.mark_dirty(target_object);
    if (target_object == kDefaultObject) {
      // Keep the top-level merge view coherent.
      if (alias_value.get(mapping.field) == nullptr ||
          !alias_value.get(mapping.field)->is_object()) {
        alias_value.set(mapping.field, desired);
        view.written.insert(mapping.field);
        view.mark_dirty(mapping.field);
      }
      obj = alias_value.get(target_object);
    }
    obj->set(mapping.field, std::move(desired));
  };

  const auto& mappings = dxg_.mappings();
  for (std::size_t mi = 0; mi < mappings.size(); ++mi) {
    const DxgMapping& mapping = mappings[mi];
    MappingPlan& plan = plans_[mi];
    if (!mapping.fan_out) {
      apply_one(mapping, plan, plan.memo, mapping.target_object, nullptr);
      continue;
    }
    auto vit = views_.find(mapping.driver_alias);
    if (vit == views_.end()) continue;
    auto& objects = vit->second.objects;
    for (auto it = objects.lower_bound(mapping.driver_prefix);
         it != objects.end() &&
         common::starts_with(it->first, mapping.driver_prefix);
         ++it) {
      auto& memos = it->second.memos;
      if (memos.size() != plans_.size()) memos.resize(plans_.size());
      apply_one(mapping, plan, memos[mi], it->first, &it->first);
    }
  }
  return result;
}

void CastIntegrator::run_pass_async(int rounds_left) {
  if (!running_ || pushdown_ || rounds_left <= 0) return;
  if (pass_in_flight_) {
    rerun_requested_ = true;
    return;
  }
  pass_in_flight_ = true;

  // The pass runs under the trace of the watch event/batch that triggered
  // it: the pass span parents under the causing write's span, and the
  // C-I / I / I-S child spans carry the paper's stage attribution.
  const TraceContext trigger = trigger_ctx_;
  std::uint64_t span = 0;
  std::uint64_t snap_span = 0;
  if (tracer_ != nullptr) {
    span = tracer_->begin("cast.pass." + name_, trigger.parent_span);
    if (trigger.active()) {
      tracer_->annotate(span, "trace", std::to_string(trigger.trace_id));
    }
    snap_span = tracer_->begin("cast.snapshot." + name_, span);
    tracer_->annotate(snap_span, "stage", "C-I");
  }

  // List every aliased store via async lists (the paper's C-I stage: every
  // pass issues the same reads, so virtual time does not depend on what
  // the views already hold).
  auto listing = std::make_shared<Listing>();
  auto remaining = std::make_shared<std::size_t>(0);
  std::vector<std::pair<std::string, de::ObjectStore*>> targets;
  for (const auto& [alias, store_id] : dxg_.inputs()) {
    auto it = stores_.find(alias);
    if (it != stores_.end()) targets.emplace_back(alias, it->second);
  }
  *remaining = targets.size();

  auto finish_snapshot = [this, listing, rounds_left, span, snap_span,
                          trigger]() {
    std::uint64_t compute_span = 0;
    if (tracer_ != nullptr) {
      if (snap_span != 0) tracer_->end(snap_span);
      compute_span = tracer_->begin("cast.compute." + name_, span);
      tracer_->annotate(compute_span, "stage", "I");
    }
    // Charge integrator compute, then evaluate + write.
    de_.clock().schedule_after(
        options_.compute.sample(rng_),
        [this, listing, rounds_left, span, compute_span, trigger]() {
          ++stats_.passes;
          const bool list_failed = listing->failed;
          refresh_views(*listing);
          listing->objects.clear();
          PatchSet ps = evaluate();
          stats_.fields_skipped_not_ready += ps.not_ready;
          std::uint64_t write_span = 0;
          if (tracer_ != nullptr) {
            if (compute_span != 0) tracer_->end(compute_span);
            if (!ps.patches.empty()) {
              write_span = tracer_->begin("cast.write." + name_, span);
              tracer_->annotate(write_span, "stage", "I-S");
            }
          }
          // Derived writes inherit the triggering trace and parent under
          // the write (or pass) span; the DE captures this context at the
          // patch call below.
          TraceContext write_ctx;
          write_ctx.trace_id = trigger.trace_id;
          write_ctx.parent_span = write_span != 0 ? write_span : span;

          auto writes_left = std::make_shared<std::size_t>(ps.patches.size());
          auto wrote = std::make_shared<std::size_t>(0);
          auto write_failed = std::make_shared<bool>(false);
          auto complete = [this, writes_left, wrote, write_failed, list_failed,
                           rounds_left, span, write_span]() {
            if (*writes_left > 0) return;
            pass_in_flight_ = false;
            if (tracer_ != nullptr) {
              if (write_span != 0) tracer_->end(write_span);
              if (span != 0) tracer_->end(span);
            }
            const bool failed = list_failed || *write_failed;
            if (failed) {
              ++stats_.failed_passes;
              if (options_.metrics != nullptr) {
                options_.metrics->inc("cast." + name_ + ".failed_passes");
              }
            }
            if (failed && options_.retry.enabled()) {
              if (pass_attempt_ == 0) pass_first_attempt_ = de_.clock().now();
              ++pass_attempt_;
              const sim::SimTime elapsed =
                  de_.clock().now() - pass_first_attempt_;
              if (options_.retry.should_retry(pass_attempt_, elapsed)) {
                ++stats_.retries;
                if (options_.metrics != nullptr) {
                  options_.metrics->inc("cast." + name_ + ".retries");
                }
                rerun_requested_ = false;
                de_.clock().schedule_after(
                    options_.retry.backoff(pass_attempt_, rng_), [this]() {
                      run_pass_async(options_.max_rounds_per_event);
                    });
                return;
              }
              // Budget exhausted: give up until the next watch event (or an
              // explicit resync pass) re-triggers the exchange.
              pass_attempt_ = 0;
            } else if (!failed) {
              pass_attempt_ = 0;
            }
            bool rerun = rerun_requested_;
            rerun_requested_ = false;
            if (*wrote > 0 && rounds_left > 1) {
              run_pass_async(rounds_left - 1);
            } else if (rerun) {
              run_pass_async(options_.max_rounds_per_event);
            }
          };
          if (ps.patches.empty()) {
            complete();
            return;
          }
          const bool lineage = !ps.inputs.empty();
          de_.kernel().set_trace_context(write_ctx);
          for (std::size_t pi = 0; pi < ps.patches.size(); ++pi) {
            auto& [key, fields] = ps.patches[pi];
            const std::string alias = key.first;
            const std::string object = key.second;
            de::ObjectStore* store = stores_[alias];
            std::size_t n = fields.is_object() ? fields.as_object().size() : 0;
            std::vector<LineageRef> in;
            if (lineage) in = std::move(ps.inputs[pi]);
            store->patch(principal(), object, std::move(fields),
                         [this, writes_left, wrote, write_failed, complete, n,
                          alias, object, in = std::move(in), lineage, write_ctx,
                          span](Result<std::uint64_t> r) mutable {
                           --*writes_left;
                           if (r.ok()) {
                             *wrote += n;
                             stats_.fields_written += n;
                             if (lineage) {
                               record_lineage(alias, object, r.value(),
                                              std::move(in), write_ctx, span);
                             }
                           } else {
                             *write_failed = true;
                             KN_DEBUG << "cast " << name_ << ": write failed: "
                                      << r.error().to_string();
                           }
                           complete();
                         });
          }
          de_.kernel().clear_trace_context();
        });
  };

  if (targets.empty()) {
    finish_snapshot();
    return;
  }
  for (auto& [alias, store] : targets) {
    std::string alias_copy = alias;
    store->list(principal(), "",
                [listing, remaining, alias_copy, finish_snapshot](
                    Result<std::vector<de::StateObject>> r) {
                  auto& objects = listing->objects[alias_copy];
                  if (r.ok()) {
                    objects = r.take();
                  } else {
                    listing->failed = true;  // the alias reads as empty
                  }
                  if (--*remaining == 0) finish_snapshot();
                });
  }
}

Result<std::size_t> CastIntegrator::run_pass_sync() {
  if (pushdown_) {
    KN_ASSIGN_OR_RETURN(Value result,
                        de_.call_udf_sync(principal(), udf_name_,
                                          Value::object()));
    auto n = result.try_int();
    return static_cast<std::size_t>(n.value_or(0));
  }
  bool was_running = running_;
  running_ = true;
  std::size_t before = stats_.fields_written;
  run_pass_async(options_.max_rounds_per_event);
  while (pass_in_flight_ && de_.clock().step()) {
  }
  running_ = was_running;
  return stats_.fields_written - before;
}

Status CastIntegrator::enable_pushdown() {
  if (!de_.profile().supports_udf) {
    return Error::failed_precondition(
        "cast " + name_ + ": DE '" + de_.profile().name +
        "' does not support UDFs (push-down unavailable)");
  }
  udf_name_ = "cast:" + name_;

  // The UDF reads this integrator's live DXG through `self`, so a
  // reconfigure takes effect without re-registering. The integrator must
  // outlive the DE registration (disable_pushdown before destruction).
  std::map<std::string, std::string> alias_to_store;
  for (const auto& [alias, store] : stores_) {
    alias_to_store[alias] = store->name();
  }

  auto self = this;
  KN_TRY(de_.register_udf(
      principal(), udf_name_,
      [self, alias_to_store](de::UdfContext& ctx,
                             const Value&) -> Result<Value> {
        // The triggering commit's context is ambient during the UDF body
        // (installed by the DE's trigger dispatch).
        const TraceContext in_ctx = self->de_.kernel().trace_context();
        std::uint64_t span = 0;
        std::uint64_t snap_span = 0;
        if (self->tracer_ != nullptr) {
          span = self->tracer_->begin("cast.udf." + self->name_,
                                      in_ctx.parent_span);
          if (in_ctx.active()) {
            self->tracer_->annotate(span, "trace",
                                    std::to_string(in_ctx.trace_id));
          }
          snap_span = self->tracer_->begin("cast.snapshot." + self->name_, span);
          self->tracer_->annotate(snap_span, "stage", "C-I");
        }
        auto close_spans = [self, span](std::uint64_t inner) {
          if (self->tracer_ != nullptr) {
            if (inner != 0) self->tracer_->end(inner);
            if (span != 0) self->tracer_->end(span);
          }
        };
        // List via engine-level lists.
        Listing listing;
        for (const auto& [alias, store_id] : self->dxg_.inputs()) {
          auto it = alias_to_store.find(alias);
          if (it == alias_to_store.end()) continue;
          auto objs = ctx.list(it->second, "");
          if (!objs.ok()) {
            close_spans(snap_span);
            return objs.error();
          }
          listing.objects[alias] = objs.take();
        }
        std::uint64_t compute_span = 0;
        if (self->tracer_ != nullptr) {
          self->tracer_->end(snap_span);
          compute_span = self->tracer_->begin("cast.compute." + self->name_, span);
          self->tracer_->annotate(compute_span, "stage", "I");
        }
        // Function execution overhead inside the engine.
        ctx.charge(self->options_.compute.sample(self->rng_));
        self->refresh_views(listing);
        PatchSet ps = self->evaluate();
        self->stats_.fields_skipped_not_ready += ps.not_ready;
        ++self->stats_.passes;
        std::uint64_t write_span = 0;
        if (self->tracer_ != nullptr) {
          self->tracer_->end(compute_span);
          write_span = self->tracer_->begin("cast.write." + self->name_, span);
          self->tracer_->annotate(write_span, "stage", "I-S");
        }
        const bool lineage = !ps.inputs.empty();
        TraceContext write_ctx;
        write_ctx.trace_id = in_ctx.trace_id;
        write_ctx.parent_span = write_span != 0 ? write_span : span;
        self->de_.kernel().set_trace_context(write_ctx);
        std::size_t written = 0;
        for (std::size_t pi = 0; pi < ps.patches.size(); ++pi) {
          auto& [key, fields] = ps.patches[pi];
          const auto& [alias, object] = key;
          auto it = alias_to_store.find(alias);
          if (it == alias_to_store.end()) continue;
          std::size_t n = fields.is_object() ? fields.as_object().size() : 0;
          auto patched = ctx.patch(it->second, object, std::move(fields));
          if (!patched.ok()) {
            self->de_.kernel().set_trace_context(in_ctx);
            close_spans(write_span);
            return patched.error();
          }
          written += n;
          self->stats_.fields_written += n;
          if (lineage) {
            self->record_lineage(alias, object, patched.value(),
                                 std::move(ps.inputs[pi]), write_ctx, span);
          }
        }
        self->de_.kernel().set_trace_context(in_ctx);
        close_spans(write_span);
        return Value(static_cast<std::int64_t>(written));
      }));

  // Triggers on every store the DXG reads (writes by services kick the
  // exchange; the UDF's own writes re-trigger but converge immediately).
  std::set<std::string> read_stores;
  for (const auto& mapping : dxg_.mappings()) {
    for (const auto& ref : mapping.refs) {
      auto dot = ref.find('.');
      std::string alias = dot == std::string::npos ? ref : ref.substr(0, dot);
      auto it = stores_.find(alias);
      if (it != stores_.end()) read_stores.insert(it->second->name());
    }
  }
  for (const auto& store_name : read_stores) {
    KN_TRY(de_.add_trigger(store_name, "", udf_name_));
  }
  pushdown_ = true;
  resync_ = true;
  remove_watches();
  return Status::success();
}

void CastIntegrator::disable_pushdown() {
  if (!pushdown_) return;
  for (const auto& [alias, store] : stores_) {
    de_.remove_trigger(store->name(), udf_name_);
  }
  pushdown_ = false;
  resync_ = true;
  if (running_ && options_.poll_interval == 0) install_watches();
}

}  // namespace knactor::core
