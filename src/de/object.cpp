#include "de/object.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "de/persist/engine.h"

namespace knactor::de {

using common::Error;
using common::Result;
using common::SharedValue;
using common::Status;
using common::Value;

// ---------------------------------------------------------------------------
// ObjectStore client operations: each charges the profile's round-trip
// latency, then executes against the engine and completes.
// ---------------------------------------------------------------------------

void ObjectStore::get(const std::string& principal, const std::string& key,
                      GetCallback done) {
  sim::SimTime rt = de_.profile_.read_rt.sample(de_.kernel_.rng());
  de_.clock().schedule_after(rt, [this, principal, key,
                                  done = std::move(done)] {
    if (!de_.kernel_.guard_available()) {
      done(Error::unavailable("object: de unavailable (crashed)"));
      return;
    }
    ++de_.stats_.reads;
    Decision d = de_.check_access(principal, name_, key, Verb::kGet);
    if (!d.allowed) {
      ++de_.stats_.permission_denials;
      done(Error::permission_denied("object: " + principal +
                                    " cannot get " + name_ + "/" + key));
      return;
    }
    auto found = objects_.find(key);
    if (found == objects_.end()) {
      done(Error::not_found("object: " + name_ + "/" + key + " not found"));
      return;
    }
    StateObject obj = found->second;
    if (!d.fields.unrestricted() && obj.data) {
      obj.data = std::make_shared<const Value>(
          Rbac::filter_fields(*obj.data, d.fields));
    }
    done(std::move(obj));
  });
}

void ObjectStore::get_shared(
    const std::string& principal, const std::string& key,
    std::function<void(Result<SharedValue>)> done) {
  get(principal, key, [done = std::move(done)](Result<StateObject> r) {
    if (!r.ok()) {
      done(r.error());
      return;
    }
    done(r.value().data);
  });
}

void ObjectStore::submit(const std::string& principal, EpochWrite write,
                         PutCallback done) {
  sim::SimTime rt = de_.profile_.write_rt.sample(de_.kernel_.rng());
  // The ambient trace context is captured synchronously at the client
  // call (the writer's causal moment), not at the commit's scheduled
  // execution — by then the writer has cleared it.
  core::TraceContext ctx = de_.kernel_.trace_context();
  ++de_.writes_in_flight_;
  de_.clock().schedule_after(
      rt, [this, principal, ctx, write = std::move(write),
           done = std::move(done)]() mutable {
        --de_.writes_in_flight_;
        if (!de_.kernel_.guard_available()) {
          done(Error::unavailable("object: de unavailable (crashed)"));
          return;
        }
        ++(write.remove ? de_.stats_.deletes : de_.stats_.writes);
        done(de_.commit_one(*this, principal, ctx, write));
      });
}

void ObjectStore::put(const std::string& principal, const std::string& key,
                      Value data, PutCallback done) {
  submit(principal,
         EpochWrite{key, std::move(data), /*merge=*/false, /*remove=*/false,
                    std::nullopt},
         std::move(done));
}

void ObjectStore::put_versioned(const std::string& principal,
                                const std::string& key, Value data,
                                std::uint64_t expected_version,
                                PutCallback done) {
  submit(principal,
         EpochWrite{key, std::move(data), /*merge=*/false, /*remove=*/false,
                    expected_version},
         std::move(done));
}

void ObjectStore::patch(const std::string& principal, const std::string& key,
                        Value fields, PutCallback done) {
  submit(principal,
         EpochWrite{key, std::move(fields), /*merge=*/true, /*remove=*/false,
                    std::nullopt},
         std::move(done));
}

void ObjectStore::remove(const std::string& principal, const std::string& key,
                         DelCallback done) {
  submit(principal,
         EpochWrite{key, Value(), /*merge=*/false, /*remove=*/true,
                    std::nullopt},
         [done = std::move(done)](Result<std::uint64_t> r) {
           done(r.ok() ? Status::success() : Status(r.error()));
         });
}

void ObjectStore::list(const std::string& principal, const std::string& prefix,
                       ListCallback done) {
  sim::SimTime rt = de_.profile_.list_rt.sample(de_.kernel_.rng());
  de_.clock().schedule_after(rt, [this, principal, prefix,
                                  done = std::move(done)] {
    if (!de_.kernel_.guard_available()) {
      done(Error::unavailable("object: de unavailable (crashed)"));
      return;
    }
    ++de_.stats_.lists;
    Decision d = de_.check_access(principal, name_, prefix, Verb::kList);
    if (!d.allowed) {
      ++de_.stats_.permission_denials;
      done(Error::permission_denied("object: " + principal + " cannot list " +
                                    name_));
      return;
    }
    done(scan(prefix, d.fields));
  });
}

std::vector<StateObject> ObjectStore::scan(const std::string& prefix,
                                           const FieldRule& fields) const {
  std::vector<StateObject> out;
  for (auto it = objects_.lower_bound(prefix);
       it != objects_.end() && common::starts_with(it->first, prefix); ++it) {
    StateObject& copy = out.emplace_back(it->second);
    if (!fields.unrestricted() && copy.data) {
      copy.data = std::make_shared<const Value>(
          Rbac::filter_fields(*copy.data, fields));
    }
  }
  return out;
}

void ObjectStore::put_epoch(const std::string& principal,
                            std::vector<EpochWrite> writes,
                            EpochCallback done) {
  // One write round trip for the whole epoch: batching the exchange is the
  // point of the pipeline (a single-op epoch pays the round trip per write).
  sim::SimTime rt = de_.profile_.write_rt.sample(de_.kernel_.rng());
  core::TraceContext ctx = de_.kernel_.trace_context();
  ++de_.writes_in_flight_;
  de_.clock().schedule_after(
      rt, [this, principal, ctx, writes = std::move(writes),
           done = std::move(done)]() mutable {
        --de_.writes_in_flight_;
        if (!de_.kernel_.available()) {
          de_.stats_.unavailable_rejections += writes.size();
          done(std::vector<Result<std::uint64_t>>(
              writes.size(),
              Error::unavailable("object: de unavailable (crashed)")));
          return;
        }
        for (const auto& w : writes) {
          ++(w.remove ? de_.stats_.deletes : de_.stats_.writes);
        }
        const std::vector<ObjectStore*> stores(writes.size(), this);
        done(de_.commit_epoch(principal, ctx, stores, writes,
                              /*atomic=*/false));
      });
}

std::vector<Result<std::uint64_t>> ObjectStore::put_epoch_sync(
    const std::string& principal, std::vector<EpochWrite> writes) {
  std::optional<std::vector<Result<std::uint64_t>>> results;
  put_epoch(principal, std::move(writes),
            [&](std::vector<Result<std::uint64_t>> r) {
              results = std::move(r);
            });
  de_.run_sync([&] { return results.has_value(); });
  return std::move(*results);
}

Result<std::uint64_t> ObjectStore::subscribe(const std::string& principal,
                                             SubscriptionSpec spec,
                                             WatchCallback callback) {
  Decision d = de_.check_access(principal, name_, spec.prefix, Verb::kWatch);
  if (!d.allowed) {
    ++de_.stats_.permission_denials;
    return Error::permission_denied("object: " + principal +
                                    " cannot watch " + name_ + "/" +
                                    spec.prefix);
  }
  auto compiled = CompiledSubscription::compile(std::move(spec));
  if (!compiled.ok()) return compiled.error();
  return de_.add_subscription(*this, principal, compiled.take(),
                              std::move(callback), nullptr);
}

Result<std::uint64_t> ObjectStore::subscribe_batch(
    const std::string& principal, SubscriptionSpec spec,
    WatchBatchCallback callback) {
  Decision d = de_.check_access(principal, name_, spec.prefix, Verb::kWatch);
  if (!d.allowed) {
    ++de_.stats_.permission_denials;
    return Error::permission_denied("object: " + principal +
                                    " cannot watch " + name_ + "/" +
                                    spec.prefix);
  }
  auto compiled = CompiledSubscription::compile(std::move(spec));
  if (!compiled.ok()) return compiled.error();
  return de_.add_subscription(*this, principal, compiled.take(), nullptr,
                              std::move(callback));
}

void ObjectStore::unsubscribe(std::uint64_t watch_id, bool drain) {
  auto it = de_.watch_buffers_.find(watch_id);
  if (it != de_.watch_buffers_.end()) {
    const std::size_t pending = it->second.events.size();
    if (pending > 0) {
      if (drain) {
        // Deliver the half-open window now, synchronously, before the watch
        // goes away — in the order a scheduled flush would produce
        // (flush_watch_batch erases the buffer itself).
        de_.flush_watch_batch(watch_id);
      } else {
        de_.stats_.watch_events_dropped += pending;
        if (auto* info = de_.kernel_.find_subscription(watch_id)) {
          info->dropped += pending;
        }
        if (it->second.span_id != 0 && de_.tracer_ != nullptr) {
          de_.tracer_->annotate(it->second.span_id, "dropped",
                                std::to_string(pending));
          de_.tracer_->end(it->second.span_id);
        }
      }
    }
  }
  if (Watch* w = de_.find_watch(watch_id)) {
    // The departing watcher's deferred counts (and their share of
    // watch_events_filtered) land before its registry entry goes. Erasing
    // shifts the entries after it, and an earlier unsubscribe may already
    // have, so the entry is found by its registry node; the rebuild
    // re-indexes the rest.
    de_.settle();
    std::erase_if(de_.deferred_, [w](const ObjectDe::Deferred& d) {
      return d.info == w->info;
    });
    std::erase(de_.stores_.at(w->store)->watchers_, w);
    de_.watches_.erase(watch_id);
    de_.watch_index_stale_ = true;
  }
  // A flush scheduled for a window we just drained or dropped finds no
  // buffer and no-ops — never a dangling coalesce slot, deterministically.
  de_.watch_buffers_.erase(watch_id);
  de_.kernel_.unregister_subscription(watch_id);
}

// Synchronous wrappers.

Result<StateObject> ObjectStore::get_sync(const std::string& principal,
                                          const std::string& key) {
  std::optional<Result<StateObject>> result;
  get(principal, key, [&](Result<StateObject> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Result<std::uint64_t> ObjectStore::put_sync(const std::string& principal,
                                            const std::string& key,
                                            Value data) {
  std::optional<Result<std::uint64_t>> result;
  put(principal, key, std::move(data),
      [&](Result<std::uint64_t> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Result<std::uint64_t> ObjectStore::patch_sync(const std::string& principal,
                                              const std::string& key,
                                              Value fields) {
  std::optional<Result<std::uint64_t>> result;
  patch(principal, key, std::move(fields),
        [&](Result<std::uint64_t> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Status ObjectStore::remove_sync(const std::string& principal,
                                const std::string& key) {
  std::optional<Status> result;
  remove(principal, key, [&](Status s) { result = std::move(s); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Result<std::uint64_t> ObjectStore::update_sync(
    const std::string& principal, const std::string& key,
    const std::function<Value(const Value&)>& mutate, int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::uint64_t version = 0;
    Value current;
    auto read = get_sync(principal, key);
    if (read.ok()) {
      version = read.value().version;
      current = read.value().data_copy();
    } else if (read.error().code != Error::Code::kNotFound) {
      return read.error();
    }
    Value next = mutate(current);

    std::optional<Result<std::uint64_t>> written;
    put_versioned(principal, key, std::move(next), version,
                  [&](Result<std::uint64_t> r) { written = std::move(r); });
    de_.run_sync([&] { return written.has_value(); });
    if (written->ok()) return std::move(*written);
    if (written->error().code != Error::Code::kFailedPrecondition) {
      return written->error();
    }
    // Version conflict: loop and re-read.
  }
  return Error::failed_precondition("object: update of " + name_ + "/" + key +
                                    " conflicted " +
                                    std::to_string(max_attempts) + " times");
}

Result<std::vector<StateObject>> ObjectStore::list_sync(
    const std::string& principal, const std::string& prefix) {
  std::optional<Result<std::vector<StateObject>>> result;
  list(principal, prefix,
       [&](Result<std::vector<StateObject>> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

// ---------------------------------------------------------------------------
// UdfContext: engine-level access.
// ---------------------------------------------------------------------------

Result<StateObject> UdfContext::get(const std::string& store,
                                    const std::string& key) {
  de_.clock().advance(de_.profile_.engine_read.sample(de_.kernel_.rng()));
  ++de_.stats_.engine_ops;
  return de_.engine_get(store, key, principal_);
}

Result<std::uint64_t> UdfContext::put(const std::string& store,
                                      const std::string& key, Value data) {
  return write(store, EpochWrite{key, std::move(data), /*merge=*/false,
                                 /*remove=*/false, std::nullopt});
}

Result<std::uint64_t> UdfContext::patch(const std::string& store,
                                        const std::string& key, Value fields) {
  return write(store, EpochWrite{key, std::move(fields), /*merge=*/true,
                                 /*remove=*/false, std::nullopt});
}

Result<std::uint64_t> UdfContext::write(const std::string& store,
                                        EpochWrite op) {
  de_.clock().advance(de_.profile_.engine_write.sample(de_.kernel_.rng()));
  ++de_.stats_.engine_ops;
  ObjectStore* s = de_.store(store);
  if (s == nullptr) {
    return Error::not_found("udf: unknown store '" + store + "'");
  }
  return de_.commit_one(*s, principal_, de_.kernel_.trace_context(), op);
}

Result<std::vector<StateObject>> UdfContext::list(const std::string& store,
                                                  const std::string& prefix) {
  de_.clock().advance(de_.profile_.engine_read.sample(de_.kernel_.rng()));
  ++de_.stats_.engine_ops;
  ObjectStore* s = de_.store(store);
  if (s == nullptr) {
    return Error::not_found("udf: unknown store '" + store + "'");
  }
  Decision d =
      de_.check_access(principal_, store, prefix, Verb::kList);
  if (!d.allowed) {
    ++de_.stats_.permission_denials;
    return Error::permission_denied("udf: " + principal_ + " cannot list " +
                                    store);
  }
  return s->scan(prefix, d.fields);
}

sim::SimTime UdfContext::now() const { return de_.kernel_.clock().now(); }

void UdfContext::charge(sim::SimTime duration) {
  de_.clock().advance(duration);
}

// ---------------------------------------------------------------------------
// ObjectDe.
// ---------------------------------------------------------------------------

ObjectDe::ObjectDe(sim::VirtualClock& clock, ObjectDeProfile profile,
                   std::uint64_t seed)
    : kernel_(clock, seed), profile_(std::move(profile)) {
  kernel_.set_hooks(Kernel::Hooks{&stats_.unavailable_rejections});
  kernel_.set_restart_hook([this] { restart(); });
  kernel_.set_settle_hook([this] { settle(); });
}

ObjectStore& ObjectDe::create_store(const std::string& name) {
  auto it = stores_.find(name);
  if (it != stores_.end()) return *it->second;
  auto store = std::unique_ptr<ObjectStore>(new ObjectStore(*this, name));
  ObjectStore& ref = *store;
  stores_[name] = std::move(store);
  return ref;
}

ObjectStore* ObjectDe::store(const std::string& name) {
  auto it = stores_.find(name);
  return it == stores_.end() ? nullptr : it->second.get();
}

Status ObjectDe::register_udf(const std::string& principal,
                              const std::string& name, Udf udf) {
  if (!profile_.supports_udf) {
    return Error::failed_precondition("object-de '" + profile_.name +
                                      "' does not support UDFs");
  }
  udfs_[name] = {principal, std::move(udf)};
  return Status::success();
}

void ObjectDe::call_udf(const std::string& principal, const std::string& name,
                        Value args, UdfCallback done) {
  sim::SimTime rt = profile_.udf_invoke.sample(kernel_.rng());
  ++writes_in_flight_;
  clock().schedule_after(rt, [this, principal, name, args = std::move(args),
                              done = std::move(done)]() mutable {
    --writes_in_flight_;
    if (!kernel_.guard_available()) {
      done(Error::unavailable("object: de unavailable (crashed)"));
      return;
    }
    ++stats_.udf_calls;
    Decision d =
        check_access(principal, "*", name, Verb::kInvokeUdf);
    if (!d.allowed) {
      ++stats_.permission_denials;
      done(Error::permission_denied("udf: " + principal + " cannot invoke '" +
                                    name + "'"));
      return;
    }
    auto it = udfs_.find(name);
    if (it == udfs_.end()) {
      done(Error::not_found("udf: '" + name + "' not registered"));
      return;
    }
    UdfContext ctx(*this, it->second.first);
    done(it->second.second(ctx, args));
  });
}

Result<Value> ObjectDe::call_udf_sync(const std::string& principal,
                                      const std::string& name, Value args) {
  std::optional<Result<Value>> result;
  call_udf(principal, name, std::move(args),
           [&](Result<Value> r) { result = std::move(r); });
  run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Status ObjectDe::add_trigger(const std::string& store,
                             const std::string& key_prefix,
                             const std::string& udf_name) {
  if (!profile_.supports_udf) {
    return Error::failed_precondition("object-de '" + profile_.name +
                                      "' does not support triggers");
  }
  if (udfs_.find(udf_name) == udfs_.end()) {
    return Error::not_found("trigger: udf '" + udf_name + "' not registered");
  }
  triggers_.push_back(Trigger{store, key_prefix, udf_name});
  return Status::success();
}

void ObjectDe::remove_trigger(const std::string& store,
                              const std::string& udf_name) {
  std::erase_if(triggers_, [&](const Trigger& t) {
    return t.store == store && t.udf_name == udf_name;
  });
}

void ObjectDe::transact(const std::string& principal, std::vector<TxnOp> ops,
                        UdfCallback done) {
  sim::SimTime rt = profile_.write_rt.sample(kernel_.rng());
  core::TraceContext ctx = kernel_.trace_context();
  ++writes_in_flight_;
  clock().schedule_after(rt, [this, principal, ctx, ops = std::move(ops),
                              done = std::move(done)]() mutable {
    --writes_in_flight_;
    if (!kernel_.guard_available()) {
      done(Error::unavailable("object: de unavailable (crashed)"));
      return;
    }
    ++stats_.writes;
    std::vector<ObjectStore*> stores;
    std::vector<EpochWrite> writes;
    stores.reserve(ops.size());
    writes.reserve(ops.size());
    for (auto& op : ops) {
      ObjectStore* store = this->store(op.store);
      if (store == nullptr) {
        done(Error::not_found("txn: unknown store '" + op.store + "'"));
        return;
      }
      stores.push_back(store);
      writes.push_back(EpochWrite{std::move(op.key), std::move(op.data),
                                  op.merge, /*remove=*/false,
                                  op.expected_version});
    }
    auto results = commit_epoch(principal, ctx, stores, writes,
                                /*atomic=*/true);
    if (results.empty()) {
      done(Value(std::int64_t{0}));
    } else if (!results.back().ok()) {
      done(results.back().error());
    } else {
      done(Value(static_cast<std::int64_t>(results.back().value())));
    }
  });
}

Result<Value> ObjectDe::transact_sync(const std::string& principal,
                                      std::vector<TxnOp> ops) {
  std::optional<Result<Value>> result;
  transact(principal, std::move(ops),
           [&](Result<Value> r) { result = std::move(r); });
  run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

void ObjectDe::restart() {
  if (persist_ != nullptr) {
    // On-disk recovery: newest valid snapshot + journal suffix. A failed
    // recovery (e.g. unreadable directory) leaves the DE empty — same as
    // a non-durable restart — rather than half-recovered.
    (void)recover_from_disk();
    return;
  }
  // Every acked commit of a durable in-memory DE is already in process
  // memory, so it restarts with its exact state: objects, versions,
  // timestamps, and kernel sequences.
  if (profile_.durable) return;
  for (auto& [name, store] : stores_) {
    store->objects_.clear();
  }
}

Status ObjectDe::enable_persistence(persist::Engine* engine) {
  if (engine == nullptr) {
    return Error::invalid_argument("persist: null engine");
  }
  persist_ = engine;
  auto st = recover_from_disk();
  if (!st.ok()) {
    persist_ = nullptr;
    return st;
  }
  kernel_.add_gc_hook([engine] { return engine->gc(); });
  return Status::success();
}

Status ObjectDe::recover_from_disk() {
  for (auto& [name, store] : stores_) {
    store->objects_.clear();
  }
  auto recovered = persist_->recover();
  if (!recovered.ok()) return recovered.error();
  persist::Image image = std::move(recovered.value());
  core::ScopedSpan span(tracer_, "de.persist.recover");
  for (auto& store_image : image.stores) {
    auto& objects = create_store(store_image.name).objects_;
    // Key-sorted, so each object moves in at the end of the map.
    for (auto& obj : store_image.objects) {
      StateObject state;
      state.key = obj.key;
      state.data = std::move(obj.data);
      state.version = obj.version;
      state.created_at = obj.created_at;
      state.updated_at = obj.updated_at;
      objects.insert_or_assign(objects.end(), std::move(obj.key),
                               std::move(state));
    }
  }
  // Counters resume at the recovered durable point: retried ops get the
  // same stamps they would have gotten had the crash never happened.
  kernel_.restore_sequences(image.next_revision, image.commit_seq);
  const persist::EngineStats& pstats = persist_->stats();
  span.annotate("frames_replayed", std::to_string(pstats.frames_replayed));
  span.annotate("records_replayed", std::to_string(pstats.records_replayed));
  span.annotate("objects", std::to_string(image.object_count()));
  if (epoch_metrics_ != nullptr) {
    epoch_metrics_->inc("de.persist.recoveries");
    epoch_metrics_->inc("de.persist.records_replayed",
                        pstats.records_replayed);
  }
  return Status::success();
}

Status ObjectDe::snapshot_now() {
  KN_TRY(begin_snapshot());
  auto st = persist_->finish_snapshot();
  if (!st.ok()) kernel_.crash();
  return st;
}

Status ObjectDe::begin_snapshot() {
  if (persist_ == nullptr) {
    return Error::failed_precondition("persist: no engine attached");
  }
  persist::Image image;
  image.next_revision = kernel_.peek_next_revision();
  image.commit_seq = kernel_.commit_seq();
  image.stores.reserve(stores_.size());
  for (const auto& [name, store] : stores_) {  // stores_ is name-sorted
    persist::StoreImage& store_image = image.stores.emplace_back();
    store_image.name = name;
    store_image.objects.reserve(store->objects_.size());
    for (const auto& [key, obj] : store->objects_) {
      persist::ObjectImage& object_image = store_image.objects.emplace_back();
      object_image.key = key;
      object_image.version = obj.version;
      object_image.created_at = obj.created_at;
      object_image.updated_at = obj.updated_at;
      object_image.data = obj.data;  // shared handle, zero-copy
    }
  }
  core::ScopedSpan span(tracer_, "de.persist.snapshot");
  span.annotate("objects", std::to_string(image.object_count()));
  auto st = persist_->begin_snapshot(std::move(image));
  if (!st.ok()) {
    kernel_.crash();
    return st;
  }
  if (epoch_metrics_ != nullptr) epoch_metrics_->inc("de.persist.snapshots");
  return Status::success();
}

void ObjectDe::crash() {
  // The process dies: a snapshot still being written is lost with it.
  if (persist_ != nullptr) persist_->abandon_snapshot();
  kernel_.crash();
}

void ObjectDe::maybe_auto_snapshot() {
  if (persist_ == nullptr || persist_->failed()) return;
  const std::uint64_t cadence = persist_->options().snapshot_every;
  if (cadence != 0 && persist_->records_since_snapshot() >= cadence &&
      !begin_snapshot().ok()) {
    return;
  }
  if (!persist_->snapshot_pending()) return;
  // Best effort: the commit that runs a slice is already durable and
  // acked; a snapshot crash only takes the DE down, it never un-acks it.
  const Status st = writes_in_flight_ == 0 ? persist_->finish_snapshot()
                                           : persist_->snapshot_slice();
  if (!st.ok()) kernel_.crash();
}

// ---------------------------------------------------------------------------
// Epoch commit pipeline: the one write path. put/patch/remove and UDF
// writes are single-op epochs, put_epoch a batch, transact an atomic epoch
// across stores.
//
// Commit loop (ops in epoch order): one clock read and stamp
//   pre-assignment up front (op i's version and commit seq are base +
//   index), then per op write RBAC with buffered audit, validation,
//   version check, merge compute, state insert, journal record encoding
//   and the lineage snapshot. Nothing observable happens here, so a
//   rollback has nothing to take back but state and stamps.
// Decide: the epoch gives back the stamps past its last committed op (a
//   failed single op consumes nothing; only failures *between* committed
//   ops leave holes), then the chaos fault hook and the journal append
//   (one frame, committed records in op order) run. A crash there, a torn
//   append, or a failed op in an atomic epoch rolls every op back.
// Publish loop (committed epochs only, op order): the epoch's spans and
//   counters, then per op its audit, failure counts, lineage, its store's
//   watchers in registration order (RBAC, content filter, per-event
//   delivery or batched coalescing and flush scheduling, each drawing from
//   the RNG in that order) and its trigger fan-out. Only the op's
//   candidate watchers are visited (equality-index hits and the scan set);
//   the rest cannot pass, and settle() folds their counts in on read. With
//   RBAC on, audit on or a tracer attached every watcher of the store is
//   visited, since each visit is then a policy decision, an audited
//   decision or a `sub.filter` span.
// ---------------------------------------------------------------------------

Result<std::uint64_t> ObjectDe::commit_one(ObjectStore& store,
                                           const std::string& principal,
                                           const core::TraceContext& ctx,
                                           EpochWrite& write) {
  ObjectStore* target = &store;
  return std::move(commit_epoch(principal, ctx, {&target, 1}, {&write, 1},
                                /*atomic=*/false)
                       .front());
}

std::vector<Result<std::uint64_t>> ObjectDe::commit_epoch(
    const std::string& principal, const core::TraceContext& client_ctx,
    std::span<ObjectStore* const> stores, std::span<EpochWrite> writes,
    bool atomic) {
  const std::size_t n = writes.size();
  std::vector<Result<std::uint64_t>> results;
  results.reserve(n);
  if (n == 0) return results;

  // --- Commit loop --------------------------------------------------------
  const sim::SimTime now = clock().now();
  std::vector<EpochOp> ops(n);

  // Pre-assign stamps: versions go to puts only (a delete consumes no
  // revision), commit seqs to every op.
  std::uint64_t puts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!writes[i].remove) ++puts;
    ops[i].rev_end = puts;
  }
  const std::uint64_t rev_base = kernel_.reserve_revisions(puts);
  for (EpochOp& op : ops) op.rev_end += rev_base;
  const std::uint64_t seq_base = kernel_.reserve_commit_seqs(n);

  // State pre-images are only consumed when the epoch can roll back — an
  // atomic epoch, the chaos fault hook, or an armed journal fault;
  // otherwise the hot path skips the copies entirely.
  const bool stage_undo = atomic || static_cast<bool>(epoch_fault_hook_) ||
                          (persist_ != nullptr && persist_->fault_armed());
  for (std::size_t i = 0; i < n; ++i) {
    EpochWrite& w = writes[i];
    EpochOp& op = ops[i];
    ObjectStore& store = *stores[i];
    op.ctx = client_ctx;
    op.ctx.commit_seq = seq_base + i;
    if (op.ctx.trace_id == 0) op.ctx.trace_id = op.ctx.commit_seq;
    const Verb verb = w.remove ? Verb::kDelete : Verb::kUpdate;
    Decision d = kernel_.check_access_buffered(principal, store.name_, w.key,
                                               verb, now, &op.audit);
    if (!d.allowed) {
      op.fail = EpochOp::Fail::kDenied;
      op.error = Error::permission_denied(
          "object: " + principal + " cannot " +
          (w.remove ? "delete " : w.merge ? "patch " : "write ") +
          store.name_ + "/" + w.key);
      continue;
    }
    if (!w.remove) {
      if (auto status = Rbac::validate_write(w.data, d.fields); !status.ok()) {
        op.fail = EpochOp::Fail::kInvalid;
        op.error = status.error();
        continue;
      }
    }
    // One ordered walk of the store's map serves the lookup, the in-place
    // update, and the hinted insert or erase.
    auto& objects = store.objects_;
    auto slot = objects.lower_bound(w.key);
    const bool existed = slot != objects.end() && slot->first == w.key;
    StateObject* existing = existed ? &slot->second : nullptr;
    if (w.expected_version.has_value()) {
      std::uint64_t current = existed ? existing->version : 0;
      if (current != *w.expected_version) {
        op.fail = EpochOp::Fail::kConflict;
        op.error = Error::failed_precondition(
            "object: version conflict on " + store.name_ + "/" + w.key +
            " (expected " + std::to_string(*w.expected_version) + ", have " +
            std::to_string(current) + ")");
        continue;
      }
    }
    if (w.remove) {
      if (!existed) {
        op.fail = EpochOp::Fail::kNotFound;
        op.error =
            Error::not_found("object: " + store.name_ + "/" + w.key +
                             " not found");
        continue;
      }
      op.undo_existed = true;
      if (stage_undo) op.undo_obj = *existing;
      op.obj = *existing;
      objects.erase(slot);
      op.type = WatchEventType::kDeleted;
      if (persist_ != nullptr) {
        persist::encode_delete(op.persist_rec, store.name_, op.obj.key);
      }
    } else {
      Value final_data;
      if (w.merge && existed && existing->data && existing->data->is_object() &&
          w.data.is_object()) {
        final_data = *existing->data;
        for (const auto& [k, v] : w.data.as_object()) {
          final_data.set(k, v);
        }
      } else {
        final_data = std::move(w.data);
      }
      // Version-chain lineage: every commit records "write:<principal>"
      // with the key's previous version as input, so lineage walks
      // continue through service writes (integrator records for the same
      // version are recorded later and win reverse lookups).
      const bool lineage = kernel_.provenance().enabled();
      core::LineageRef prev;
      if (lineage && existed) {
        prev = {store.name_, w.key, existing->version, existing->data};
      }
      if (existed) {
        op.undo_existed = true;
        if (stage_undo) op.undo_obj = *existing;
      }
      op.obj.key = std::move(w.key);  // rollback/publish read op.obj.key now
      op.obj.data = std::make_shared<const Value>(std::move(final_data));
      op.obj.version = op.rev_end - 1;
      op.obj.created_at = existed ? existing->created_at : now;
      op.obj.updated_at = now;
      if (existed) {
        *existing = op.obj;  // in place: one map walk per op, not two
      } else {
        objects.emplace_hint(slot, op.obj.key, op.obj);
      }
      if (lineage) {
        core::LineageRecord& rec = op.lineage.emplace();
        rec.output = {store.name_, op.obj.key, op.obj.version, op.obj.data};
        if (existed) rec.inputs.push_back(std::move(prev));
        rec.op = "write:" + principal;
        rec.stage = "S";
        // The version-chain record carries the *client* trace id (the
        // commit-seq root is stamped on events only).
        rec.trace_id = client_ctx.trace_id;
        rec.time = now;
      }
      if (persist_ != nullptr) {
        // Serialized straight from the committed object's shared payload
        // handle — no Value copy, and the append is a pure concatenation.
        persist::encode_put(op.persist_rec, store.name_, op.obj.key,
                            op.obj.version, op.obj.created_at,
                            op.obj.updated_at, *op.obj.data);
      }
      op.type = existed ? WatchEventType::kModified : WatchEventType::kAdded;
    }
    op.committed = true;
  }

  // --- Decide: stamp rule, fault hook, journal append ---------------------
  std::size_t last = n;  // last committed op; n = none
  std::size_t first_failed = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (ops[i].committed) {
      last = i;
    } else if (first_failed == n) {
      first_failed = i;
    }
  }
  // The hook runs first (a process that died between commit and publish
  // never reached the append); the journal append sits in the same
  // all-or-nothing position: one frame carries every committed record in
  // op order plus the post-epoch counters.
  bool crashed = epoch_fault_hook_ && epoch_fault_hook_();
  std::optional<Error> append_error;
  const bool aborted = !crashed && atomic && first_failed != n;
  if (crashed || aborted || last == n) {
    kernel_.restore_sequences(rev_base, seq_base - 1);
  } else {
    kernel_.restore_sequences(ops[last].rev_end, seq_base + last);
  }
  if (!crashed && !aborted && last != n && persist_ != nullptr) {
    std::vector<std::string_view> records;
    for (const EpochOp& op : ops) {
      if (op.committed) records.push_back(op.persist_rec);
    }
    auto st = persist_->append_batch(
        records, static_cast<std::uint32_t>(records.size()),
        kernel_.peek_next_revision(), kernel_.commit_seq());
    if (!st.ok()) {
      crashed = true;
      append_error = st.error();
      kernel_.restore_sequences(rev_base, seq_base - 1);
    }
  }
  auto count_failure = [this](const EpochOp& op) {
    if (op.fail == EpochOp::Fail::kDenied ||
        op.fail == EpochOp::Fail::kInvalid) {
      ++stats_.permission_denials;
    } else if (op.fail == EpochOp::Fail::kConflict) {
      ++stats_.version_conflicts;
    }
  };
  if (crashed || aborted) {
    // Reverse order restores within-epoch overwrite chains correctly. The
    // pre-images are only there when a rollback path was armed
    // (stage_undo); an unexpected real I/O failure skips the restore —
    // recovery reloads state from disk anyway.
    if (stage_undo) {
      for (std::size_t i = n; i-- > 0;) {
        if (!ops[i].committed) continue;
        // op.obj.key owns the key now (writes[i].key was moved for puts).
        if (ops[i].undo_existed) {
          stores[i]->objects_[ops[i].obj.key] = std::move(ops[i].undo_obj);
        } else {
          stores[i]->objects_.erase(ops[i].obj.key);
        }
      }
    }
    if (crashed) {
      kernel_.crash();
      stats_.unavailable_rejections += n;
      results.assign(n, append_error.value_or(Error::unavailable(
                            "object: de crashed mid-epoch")));
      return results;
    }
    // Atomic abort: the write decisions and failures stay on the record;
    // every op fails with the first failure's error. The epoch published
    // nothing, so no watch decision was ever made.
    for (const EpochOp& op : ops) {
      kernel_.append_audit(op.audit);
      count_failure(op);
    }
    results.assign(n, ops[first_failed].error);
    return results;
  }

  // --- Publish loop -------------------------------------------------------
  // Unsubscribe shifts watch positions, so it only marks the watcher state
  // stale; it is rebuilt before the first walk.
  if (watch_index_stale_) refresh_watchers();
  const bool full_walk =
      tracer_ != nullptr || kernel_.audit_enabled() || rbac().enabled();
  // Every op's span first: their ids precede the ops' `sub.*` spans.
  for (std::size_t i = 0; i < n; ++i) {
    if (tracer_ != nullptr) {
      const std::uint64_t sid = tracer_->begin("de.epoch.op");
      tracer_->annotate(sid, "stage", "S");
      tracer_->annotate(sid, "store", stores[i]->name_);
      tracer_->end(sid);
    }
    if (epoch_metrics_ != nullptr) {
      epoch_metrics_->inc(ops[i].committed ? "de.epoch.committed"
                                           : "de.epoch.failed");
    }
  }
  if (epoch_metrics_ != nullptr) epoch_metrics_->inc("de.epoch.epochs");
  // One commit's notified watchers, in registration order. They are
  // notified after the whole walk, so a commit's `sub.filter` spans take
  // ids before its `sub.deliver` spans.
  struct Hit {
    const Watch* watch = nullptr;
    SharedValue data;   // the payload to deliver (projected when active)
    FieldRule fields;   // the watcher's RBAC field rule
  };
  std::vector<Hit> hits;
  SubscriptionIndex::Positions candidates;  // scratch, reused per op
  SubscriptionIndex::Positions walk;
  for (std::size_t i = 0; i < n; ++i) {
    EpochOp& op = ops[i];
    ObjectStore& store = *stores[i];
    kernel_.append_audit(op.audit);
    if (!op.committed) {
      count_failure(op);
      results.push_back(op.error);
      continue;
    }
    if (op.lineage) kernel_.provenance().record(std::move(*op.lineage));
    // Watch matching: prefix, RBAC (audited at the epoch's `now`), then the
    // subscription's content filter and projection. A commit that misses
    // the subscription's equality key is rejected by the index without
    // running the predicate; a rejected commit costs no slot and no hit.
    const std::string& key = op.obj.key;
    hits.clear();
    if (!store.watchers_.empty()) {
      for (auto& cls : store.classes_) {
        if (common::starts_with(key, cls.prefix)) ++cls.commits;
      }
      store.watch_index_.candidates(op.obj.data, candidates);
      std::span<const std::uint32_t> visit = candidates;
      if (full_walk) {
        walk.resize(store.watchers_.size());
        std::iota(walk.begin(), walk.end(), 0u);
        visit = walk;
      } else {
        unsettled_ = true;
      }
      std::size_t next = 0;  // merge cursor: is this position a candidate?
      for (const std::uint32_t pos : visit) {
        Watch& watch = *store.watchers_[pos];
        while (next < candidates.size() && candidates[next] < pos) ++next;
        const bool candidate =
            next < candidates.size() && candidates[next] == pos;
        if (!common::starts_with(key, watch.prefix)) continue;
        if (watch.deferred) ++deferred_[*watch.deferred].seen;
        Decision wd = kernel_.check_access_at(watch.principal, store.name_,
                                              key, Verb::kWatch, now);
        if (!wd.allowed) continue;
        std::optional<SharedValue> projected;
        if (watch.sub->active()) {
          ++watch.info->matched;
          if (candidate) {
            ++watch.info->evaluated;
            projected = watch.sub->apply(op.obj.data);
          }
          if (!projected.has_value()) {
            ++watch.info->filtered;
            ++stats_.watch_events_filtered;
            note_filtered(watch, key);
            continue;
          }
        }
        hits.push_back(Hit{&watch,
                           projected ? std::move(*projected) : op.obj.data,
                           std::move(wd.fields)});
      }
    }
    for (Hit& hit : hits) {
      const Watch& watch = *hit.watch;
      WatchEvent event{op.type, store.name_, op.obj, op.ctx};
      event.object.data = std::move(hit.data);
      if (!watch.batched) {
        if (!hit.fields.unrestricted() && event.object.data) {
          event.object.data = std::make_shared<const Value>(
              Rbac::filter_fields(*event.object.data, hit.fields));
        }
        schedule_event_delivery(watch, std::move(event));
        continue;
      }
      WatchBuffer& buf = watch_buffers_[watch.id];
      if (coalesce_into(buf, std::move(event), op.ctx.commit_seq,
                        hit.fields)) {
        ++stats_.watch_events_coalesced;
      }
      ++buf.commits;
      if (!buf.flush_scheduled) {
        buf.flush_scheduled = true;
        begin_batch_span(watch, buf);
        sim::SimTime delay =
            watch.window + profile_.watch_notify.sample(kernel_.rng());
        std::uint64_t id = watch.id;
        clock().schedule_after(delay, [this, id]() { flush_watch_batch(id); });
      }
    }
    fire_triggers(store.name_, op.type, op.obj, op.ctx);
    results.push_back(writes[i].remove ? std::uint64_t{0} : op.obj.version);
  }
  if (last != n) maybe_auto_snapshot();
  return results;
}

std::uint64_t ObjectDe::add_subscription(
    ObjectStore& store, const std::string& principal,
    std::shared_ptr<const CompiledSubscription> sub,
    ObjectStore::WatchCallback callback,
    ObjectStore::WatchBatchCallback batch_callback) {
  std::uint64_t id = kernel_.allocate_watch_id();
  Watch w;
  w.id = id;
  w.store = store.name_;
  w.prefix = sub->spec().prefix;
  w.principal = principal;
  w.window = sub->qos().window;
  w.batched = batch_callback != nullptr;
  w.callback = std::move(callback);
  w.batch_callback = std::move(batch_callback);
  Kernel::SubscriptionInfo& info = kernel_.register_subscription(id);
  info.store = w.store;
  info.principal = principal;
  info.filter = sub->spec().filter;
  info.projected = sub->projected();
  info.batched = w.batched;
  info.deadline = sub->qos().deadline;
  info.stage = sub->qos().stage_or_default();
  w.sub = std::move(sub);
  w.info = &info;
  store.watchers_.push_back(&watches_.emplace(id, std::move(w)).first->second);
  // A new watcher takes the last position, so it joins the live state in
  // place; only removals shift positions and need a rebuild.
  if (!watch_index_stale_) {
    enroll_watcher(store,
                   static_cast<std::uint32_t>(store.watchers_.size() - 1));
  }
  return id;
}

void ObjectDe::refresh_watchers() {
  settle();
  deferred_.clear();
  for (auto& [name, store] : stores_) {
    store->classes_.clear();
    store->watch_index_.clear();
    for (std::uint32_t pos = 0; pos < store->watchers_.size(); ++pos) {
      enroll_watcher(*store, pos);
    }
  }
  watch_index_stale_ = false;
}

void ObjectDe::enroll_watcher(ObjectStore& store, std::uint32_t pos) {
  Watch& w = *store.watchers_[pos];
  w.deferred.reset();
  const CompiledSubscription::IndexKey* index_key = w.sub->index_key();
  store.watch_index_.add(pos, index_key);
  if (w.sub->active() && index_key != nullptr) {
    auto cls = std::find_if(
        store.classes_.begin(), store.classes_.end(),
        [&w](const auto& c) { return c.prefix == w.prefix; });
    const std::uint64_t* commits =
        cls != store.classes_.end()
            ? &cls->commits
            : &store.classes_.emplace_back(w.prefix, 0).commits;
    w.deferred = static_cast<std::uint32_t>(deferred_.size());
    // Commits before registration are not its own.
    deferred_.push_back({commits, *commits, w.info});
  }
}

void ObjectDe::settle() {
  if (!unsettled_) return;
  unsettled_ = false;
  std::uint64_t filtered = 0;
  for (Deferred& d : deferred_) {
    const std::uint64_t skipped = *d.class_commits - d.seen;
    d.seen = *d.class_commits;
    d.info->matched += skipped;
    d.info->filtered += skipped;
    filtered += skipped;
  }
  stats_.watch_events_filtered += filtered;
}

void ObjectDe::note_filtered(const Watch& w, const std::string& key) {
  // No "stage" attribute on purpose: a filter rejection is not a latency
  // sample, so it must not feed `stage:` SLO selectors (de/kernel SLOs
  // aggregate any span carrying the attribute).
  if (tracer_ == nullptr) return;
  core::ScopedSpan span(tracer_, "sub.filter");
  span.annotate("subscription", std::to_string(w.id));
  span.annotate("store", w.store);
  span.annotate("key", key);
}

void ObjectDe::begin_batch_span(const Watch& w, WatchBuffer& buf) {
  if (tracer_ == nullptr || w.sub == nullptr || !w.sub->active()) return;
  if (buf.span_id != 0) return;
  buf.span_id = tracer_->begin("sub.deliver");
  tracer_->annotate(buf.span_id, "subscription", std::to_string(w.id));
  tracer_->annotate(buf.span_id, "stage", w.sub->qos().stage_or_default());
  if (w.sub->qos().deadline > 0) {
    tracer_->annotate(buf.span_id, "deadline",
                      std::to_string(w.sub->qos().deadline));
  }
}

void ObjectDe::finish_subscription_delivery(const Watch& w,
                                            std::uint64_t span_id,
                                            std::uint64_t events,
                                            const WatchEvent* sample) {
  if (w.sub == nullptr || !w.sub->active()) return;
  w.info->delivered += events;
  if (span_id != 0 && tracer_ != nullptr) {
    settle();
    char sel[32];
    std::snprintf(sel, sizeof sel, "%.4f", w.info->selectivity());
    tracer_->annotate(span_id, "selectivity", sel);
    tracer_->annotate(span_id, "events", std::to_string(events));
    tracer_->end(span_id);
  }
  // One lineage record per delivery naming the subscription: `knctl
  // explain` walks from the delivered object back through `sub:<id>` to
  // the committing stage.
  if (kernel_.provenance().enabled() && sample != nullptr) {
    core::LineageRecord rec;
    rec.output = {sample->store, sample->object.key, sample->object.version,
                  sample->object.data};
    rec.op = "sub:" + std::to_string(w.id);
    rec.stage = w.sub->qos().stage_or_default();
    rec.trace_id = sample->ctx.trace_id;
    rec.span_id = span_id;
    rec.time = clock().now();
    kernel_.provenance().record(std::move(rec));
  }
}

void ObjectDe::schedule_event_delivery(const Watch& w, WatchEvent event) {
  sim::SimTime delay = profile_.watch_notify.sample(kernel_.rng());
  auto callback = w.callback;
  std::uint64_t id = w.id;
  // Active subscriptions get a `sub.deliver` span opened here — the
  // commit's serial moment — and closed at delivery, so its duration is
  // the notify latency the QoS deadline budgets for.
  std::uint64_t span_id = 0;
  if (w.sub != nullptr && w.sub->active() && tracer_ != nullptr) {
    span_id = tracer_->begin("sub.deliver");
    tracer_->annotate(span_id, "subscription", std::to_string(id));
    tracer_->annotate(span_id, "stage", w.sub->qos().stage_or_default());
    if (w.sub->qos().deadline > 0) {
      tracer_->annotate(span_id, "deadline",
                        std::to_string(w.sub->qos().deadline));
    }
  }
  clock().schedule_after(delay, [this, callback, event = std::move(event), id,
                                 span_id]() {
    // The watch may have been cancelled while the event was in flight.
    if (const Watch* live = find_watch(id)) {
      ++stats_.watch_events;
      finish_subscription_delivery(*live, span_id, 1, &event);
      callback(event);
      return;
    }
    if (span_id != 0 && tracer_ != nullptr) {
      tracer_->annotate(span_id, "cancelled", "true");
      tracer_->end(span_id);
    }
  });
}

bool ObjectDe::coalesce_into(WatchBuffer& buf, WatchEvent&& event,
                             std::uint64_t seq, const FieldRule& fields) {
  auto slot = buf.slots.find(event.object.key);
  if (slot == buf.slots.end()) {
    buf.slots.emplace(event.object.key, buf.events.size());
    buf.events.push_back(BufferedEvent{std::move(event), seq, fields});
    return false;
  }
  // Coalesce into the key's slot. The slot takes the new payload and the
  // new commit sequence (flush orders by it, so a delete superseding a
  // modify keeps its temporal position). Type merge: an object the
  // watcher has never seen stays kAdded through modifies; a delete
  // always survives as kDeleted; a re-create after an unseen delete
  // nets out to kModified (the object still exists, with new data).
  BufferedEvent& be = buf.events[slot->second];
  WatchEventType merged = event.type;
  if (event.type != WatchEventType::kDeleted) {
    if (be.event.type == WatchEventType::kAdded) {
      merged = WatchEventType::kAdded;
    } else if (be.event.type == WatchEventType::kDeleted) {
      merged = WatchEventType::kModified;
    }
  }
  be.event.type = merged;
  be.event.ctx = event.ctx;  // the slot carries its latest commit's context
  be.event.object = std::move(event.object);
  be.seq = seq;
  be.fields = fields;
  return true;
}

void ObjectDe::flush_watch_batch(std::uint64_t watch_id) {
  auto it = watch_buffers_.find(watch_id);
  if (it == watch_buffers_.end()) return;  // unsubscribed while buffering
  WatchBuffer buf = std::move(it->second);
  watch_buffers_.erase(it);
  const Watch* live = find_watch(watch_id);
  if (live == nullptr || buf.events.empty()) {
    if (buf.span_id != 0 && tracer_ != nullptr) {
      tracer_->annotate(buf.span_id, "cancelled", "true");
      tracer_->end(buf.span_id);
    }
    return;
  }

  // Revision-window barrier: coalescing moved each slot's seq to its key's
  // latest commit, so a stable sort by seq restores commit order; then
  // RBAC field filtering.
  std::stable_sort(buf.events.begin(), buf.events.end(),
                   [](const BufferedEvent& a, const BufferedEvent& b) {
                     return a.seq < b.seq;
                   });
  WatchBatch batch;
  batch.store = live->store;
  batch.commits = buf.commits;
  batch.events.reserve(buf.events.size());
  for (BufferedEvent& be : buf.events) {
    if (!be.fields.unrestricted() && be.event.object.data) {
      be.event.object.data = std::make_shared<const Value>(
          Rbac::filter_fields(*be.event.object.data, be.fields));
    }
    batch.events.push_back(std::move(be.event));
  }
  // QoS HISTORY KEEP_LAST: drop the oldest slots past the subscriber's
  // depth.
  if (live->sub != nullptr) {
    const std::size_t depth = live->sub->qos().history_depth;
    if (depth > 0 && batch.events.size() > depth) {
      const std::size_t dropped = batch.events.size() - depth;
      batch.events.erase(
          batch.events.begin(),
          batch.events.begin() + static_cast<std::ptrdiff_t>(dropped));
      stats_.watch_events_dropped += dropped;
      live->info->dropped += dropped;
    }
  }
  ++stats_.watch_batches;
  stats_.watch_events += batch.events.size();
  stats_.watch_batch_sizes.add(batch.events.size());
  finish_subscription_delivery(*live, buf.span_id, batch.events.size(),
                               batch.events.empty() ? nullptr
                                                    : &batch.events.back());
  auto callback = live->batch_callback;  // copy: callback may unsubscribe
  callback(batch);
}

void ObjectDe::fire_triggers(const std::string& store_name,
                             WatchEventType type, const StateObject& obj,
                             const core::TraceContext& ctx) {
  for (const auto& t : triggers_) {
    if (t.store != store_name) continue;
    if (!common::starts_with(obj.key, t.prefix)) continue;
    auto it = udfs_.find(t.udf_name);
    if (it == udfs_.end()) continue;
    // Trigger fires server-side right after commit: only engine latency.
    Value args = Value::object();
    args.set("store", Value(store_name));
    args.set("key", Value(obj.key));
    args.set("event", Value(type == WatchEventType::kDeleted
                                ? "deleted"
                                : (type == WatchEventType::kAdded
                                       ? "added"
                                       : "modified")));
    std::string udf_name = t.udf_name;
    clock().schedule_after(
        profile_.engine_read.sample(kernel_.rng()),
        [this, udf_name, ctx, args = std::move(args)]() {
          // A crash before the trigger ran loses it with the process.
          if (!kernel_.available()) return;
          auto uit = udfs_.find(udf_name);
          if (uit == udfs_.end()) return;
          ++stats_.udf_calls;
          // The triggering commit's context is ambient for the UDF body,
          // so a pushed-down integrator pass inherits the trace.
          kernel_.set_trace_context(ctx);
          UdfContext udf_ctx(*this, uit->second.first);
          auto result = uit->second.second(udf_ctx, args);
          kernel_.clear_trace_context();
          if (!result.ok()) {
            KN_WARN << "trigger udf '" << udf_name
                    << "' failed: " << result.error().to_string();
          }
        });
  }
}

Result<StateObject> ObjectDe::engine_get(const std::string& store,
                                         const std::string& key,
                                         const std::string& principal) {
  ObjectStore* s = this->store(store);
  if (s == nullptr) {
    return Error::not_found("udf: unknown store '" + store + "'");
  }
  Decision d = check_access(principal, store, key, Verb::kGet);
  if (!d.allowed) {
    ++stats_.permission_denials;
    return Error::permission_denied("udf: " + principal + " cannot get " +
                                    store + "/" + key);
  }
  auto found = s->objects_.find(key);
  if (found == s->objects_.end()) {
    return Error::not_found("object: " + store + "/" + key + " not found");
  }
  StateObject obj = found->second;
  if (!d.fields.unrestricted() && obj.data) {
    obj.data =
        std::make_shared<const Value>(Rbac::filter_fields(*obj.data, d.fields));
  }
  return obj;
}

}  // namespace knactor::de
