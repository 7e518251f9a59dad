#include "de/object.h"

#include <algorithm>
#include <cstdio>

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
    const StateObject* found = objects_.find(key);
    if (found == nullptr) {
      done(Error::not_found("object: " + name_ + "/" + key + " not found"));
      return;
    }
    StateObject obj = *found;
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
  de_.clock().schedule_after(
      rt, [this, principal, ctx, write = std::move(write),
           done = std::move(done)]() mutable {
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
    // Prefix scan shard by shard in index order (each RBAC-filtering its
    // matches), then a sort by key — byte-identical to the 1-shard
    // in-order scan.
    std::vector<StateObject> out;
    for (std::size_t i = 0; i < objects_.shard_count(); ++i) {
      for (const auto& [key, obj] : objects_.shard(i)) {
        if (!common::starts_with(key, prefix)) continue;
        StateObject copy = obj;
        if (!d.fields.unrestricted() && copy.data) {
          copy.data = std::make_shared<const Value>(
              Rbac::filter_fields(*copy.data, d.fields));
        }
        out.push_back(std::move(copy));
      }
    }
    std::sort(out.begin(), out.end(),
              [](const StateObject& a, const StateObject& b) {
                return a.key < b.key;
              });
    done(std::move(out));
  });
}

void ObjectStore::put_epoch(const std::string& principal,
                            std::vector<EpochWrite> writes,
                            EpochCallback done) {
  // One write round trip for the whole epoch: batching the exchange is the
  // point of the pipeline (a single-op epoch pays the round trip per write).
  sim::SimTime rt = de_.profile_.write_rt.sample(de_.kernel_.rng());
  core::TraceContext ctx = de_.kernel_.trace_context();
  de_.clock().schedule_after(
      rt, [this, principal, ctx, writes = std::move(writes),
           done = std::move(done)]() mutable {
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
    std::size_t pending = 0;
    for (const auto& queue : it->second.shards) pending += queue.events.size();
    if (pending > 0) {
      if (drain) {
        // Deliver the half-open window now, synchronously, before the watch
        // goes away — same shard sort + cross-shard merge a scheduled flush
        // runs (flush_watch_batch erases the buffer itself).
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
  std::erase_if(de_.watches_,
                [watch_id](const auto& w) { return w.id == watch_id; });
  de_.watch_index_stale_ = true;
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
  std::vector<StateObject> out;
  for (std::size_t i = 0; i < s->objects_.shard_count(); ++i) {
    for (const auto& [key, obj] : s->objects_.shard(i)) {
      if (!common::starts_with(key, prefix)) continue;
      out.push_back(obj);
      if (!d.fields.unrestricted() && obj.data) {
        out.back().data = std::make_shared<const Value>(
            Rbac::filter_fields(*obj.data, d.fields));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StateObject& a, const StateObject& b) {
              return a.key < b.key;
            });
  return out;
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
}

ObjectStore& ObjectDe::create_store(const std::string& name) {
  auto it = stores_.find(name);
  if (it != stores_.end()) return *it->second;
  auto store =
      std::unique_ptr<ObjectStore>(new ObjectStore(*this, name, shards_));
  ObjectStore& ref = *store;
  stores_[name] = std::move(store);
  return ref;
}

ObjectStore* ObjectDe::store(const std::string& name) {
  auto it = stores_.find(name);
  return it == stores_.end() ? nullptr : it->second.get();
}

void ObjectDe::set_shards(std::size_t n) {
  if (n == 0) n = 1;
  shards_ = n;
  for (auto& [name, store] : stores_) {
    store->objects_.set_shard_count(n);
  }
  // Pending watch buffers follow the new partitioning, so the epoch
  // pipeline can stage into every buffer shard-locally. Each key lives in
  // exactly one queue, and flush orders slots by commit seq, so moving
  // them changes nothing observable.
  for (auto& [id, buf] : watch_buffers_) {
    if (buf.shards.empty() || buf.shards.size() == n) continue;
    std::vector<ShardQueue> old = std::move(buf.shards);
    buf.shards.assign(n, ShardQueue{});
    for (ShardQueue& queue : old) {
      for (BufferedEvent& be : queue.events) {
        ShardQueue& dst = buf.shards[shard_of(be.event.object.key, n)];
        dst.slots.emplace(be.event.object.key, dst.events.size());
        dst.events.push_back(std::move(be));
      }
    }
  }
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
  clock().schedule_after(rt, [this, principal, name, args = std::move(args),
                              done = std::move(done)]() mutable {
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
  clock().schedule_after(rt, [this, principal, ctx, ops = std::move(ops),
                              done = std::move(done)]() mutable {
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
  const persist::Image& image = recovered.value();
  core::ScopedSpan span(tracer_, "de.persist.recover");
  for (const auto& store_image : image.stores) {
    ObjectStore& store = create_store(store_image.name);
    for (const auto& obj : store_image.objects) {
      StateObject state;
      state.key = obj.key;
      state.data = obj.data;
      state.version = obj.version;
      state.created_at = obj.created_at;
      state.updated_at = obj.updated_at;
      store.objects_[state.key] = std::move(state);
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
  if (persist_ == nullptr) {
    return Error::failed_precondition("persist: no engine attached");
  }
  persist::Image image;
  image.next_revision = kernel_.peek_next_revision();
  image.commit_seq = kernel_.commit_seq();
  for (const auto& [name, store] : stores_) {  // stores_ is name-sorted
    persist::StoreImage store_image;
    store_image.name = name;
    for (const auto& key : store->objects_.sorted_keys()) {
      const StateObject* obj = store->objects_.find(key);
      persist::ObjectImage object_image;
      object_image.key = obj->key;
      object_image.version = obj->version;
      object_image.created_at = obj->created_at;
      object_image.updated_at = obj->updated_at;
      object_image.data = obj->data;  // shared handle, zero-copy
      store_image.objects.push_back(std::move(object_image));
    }
    image.stores.push_back(std::move(store_image));
  }
  core::ScopedSpan span(tracer_, "de.persist.snapshot");
  span.annotate("objects", std::to_string(image.object_count()));
  auto st = persist_->snapshot(image);
  if (!st.ok()) {
    kernel_.crash();
    return st;
  }
  if (epoch_metrics_ != nullptr) epoch_metrics_->inc("de.persist.snapshots");
  return Status::success();
}

void ObjectDe::maybe_auto_snapshot() {
  if (persist_ == nullptr || persist_->failed()) return;
  const std::uint64_t cadence = persist_->options().snapshot_every;
  if (cadence == 0 || persist_->records_since_snapshot() < cadence) return;
  // Best effort: the triggering commit is already durable and acked; a
  // snapshot crash only takes the DE down, it never un-acks the commit.
  (void)snapshot_now();
}

// ---------------------------------------------------------------------------
// Epoch commit pipeline: the one write path. put/patch/remove and UDF
// writes are single-op epochs, put_epoch a batch, transact an atomic epoch
// across stores.
//
// Phase A (serial): one clock read, stamp pre-assignment (versions and
//   commit seqs reserved up front — op i's stamps are base + index,
//   independent of execution order), partition by key shard.
// Phase B (per shard, shards in index order, each shard's ops in epoch
//   order): RBAC with buffered audit, write validation, version check,
//   merge compute, state insert, journal record encoding, lineage
//   snapshot, watch matching + field filtering, batched-watch staging. No
//   clock reads, no RNG draws, no shared-counter bumps — each op's
//   effects are staged on its EpochOp for Phase C.
// Stamp rule: the epoch then gives back the stamps past its last committed
//   op, so a failed single op consumes nothing and only failures *between*
//   committed ops leave holes.
// Rollback: the chaos fault hook, a torn journal append, or a failed op in
//   an atomic epoch rolls every op back, so neither state, stamps, journal,
//   lineage, nor any notification of the epoch leaks.
// Phase C (merge, global op order): audit splice, lineage records,
//   stats, then per op its watchers in registration order (per-event
//   delivery or batched flush scheduling, each drawing from the RNG
//   exactly where a serial commit would) and its trigger fan-out.
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

  // --- Phase A: prep ------------------------------------------------------
  // (Un)subscribe shifts watch positions, so it only marks the stores'
  // equality indexes stale; they are rebuilt here, before Phase B reads
  // them.
  if (watch_index_stale_) {
    for (auto& [name, store] : stores_) store->watch_index_.clear();
    for (std::size_t w = 0; w < watches_.size(); ++w) {
      stores_.at(watches_[w].store)
          ->watch_index_.add(static_cast<std::uint32_t>(w), *watches_[w].sub);
    }
    watch_index_stale_ = false;
  }
  const sim::SimTime now = clock().now();
  const std::size_t shard_count = shards_;
  std::vector<EpochOp> ops(n);
  std::vector<std::vector<std::size_t>> shard_ops(shard_count);

  // Pre-assign stamps: versions go to puts only (a delete consumes no
  // revision), commit seqs to every op.
  std::uint64_t puts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!writes[i].remove) ++puts;
    ops[i].rev_end = puts;
    shard_ops[shard_of(writes[i].key, shard_count)].push_back(i);
  }
  const std::uint64_t rev_base = kernel_.reserve_revisions(puts);
  for (EpochOp& op : ops) op.rev_end += rev_base;
  const std::uint64_t seq_base = kernel_.reserve_commit_seqs(n);

  // The watchers of every store the epoch touches, in registration order.
  // Batched watchers commit straight into their buffers in Phase B: a
  // buffer's shard queue `s` holds only shard-`s` keys; the shared-counter
  // side (`buf.commits`, coalesce stats, flush scheduling with its RNG
  // draw) is staged as a WatchHit and folded in Phase C.
  struct EpochWatcher {
    std::size_t watch_index = 0;
    WatchBuffer* buffer = nullptr;     // batched watchers only
    std::vector<BatchStageUndo> undo;  // per shard; only with stage_undo
  };
  // Rollback staging (pre-image copies, watch-buffer undo logs) is only
  // consumed when the epoch can roll back — an atomic epoch, the chaos
  // fault hook, or an armed journal fault; otherwise the hot path skips
  // the copies entirely.
  const bool stage_undo = atomic || static_cast<bool>(epoch_fault_hook_) ||
                          (persist_ != nullptr && persist_->fault_armed());
  auto touches = [&](const std::string& store_name) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && stores[i] == stores[i - 1]) continue;  // runs of one store
      if (stores[i]->name_ == store_name) return true;
    }
    return false;
  };
  std::vector<EpochWatcher> watchers;
  std::size_t active_watchers = 0;  // with a filter or projection
  for (std::size_t w = 0; w < watches_.size(); ++w) {
    const Watch& watch = watches_[w];
    if (!touches(watch.store)) continue;
    EpochWatcher& entry = watchers.emplace_back();
    entry.watch_index = w;
    if (watch.sub->active()) ++active_watchers;
    if (!watch.batched) continue;
    WatchBuffer& buf = watch_buffers_[watch.id];
    if (buf.shards.empty()) buf.shards.resize(shard_count);
    entry.buffer = &buf;
    if (stage_undo) {
      entry.undo.resize(shard_count);
      for (std::size_t s = 0; s < shard_count; ++s) {
        entry.undo[s].base_events = buf.shards[s].events.size();
      }
    }
  }

  // --- Phase B: per-shard commit, shards in index order -------------------
  // The epoch's observability sinks: spans and counters are folded into
  // the Tracer/Metrics at the epoch boundary — or dropped whole if the
  // epoch rolls back.
  core::Tracer::SpanBuffer spans;
  core::Metrics::Delta delta;
  SubscriptionIndex::Probe probe;  // scratch for the equality-index lookups
  auto process_op = [&](std::size_t i, std::size_t shard) {
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
      return;
    }
    if (!w.remove) {
      if (auto status = Rbac::validate_write(w.data, d.fields); !status.ok()) {
        op.fail = EpochOp::Fail::kInvalid;
        op.error = status.error();
        return;
      }
    }
    // One ordered walk of the op's map shard serves the lookup, the
    // in-place update, and the hinted insert or erase.
    auto& objects = store.objects_.shard(shard);
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
        return;
      }
    }
    if (w.remove) {
      if (!existed) {
        op.fail = EpochOp::Fail::kNotFound;
        op.error =
            Error::not_found("object: " + store.name_ + "/" + w.key +
                             " not found");
        return;
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
      op.obj.key = std::move(w.key);  // rollback/merge read op.obj.key now
      op.obj.data = std::make_shared<const Value>(std::move(final_data));
      op.obj.version = op.rev_end - 1;
      op.obj.created_at = existed ? existing->created_at : now;
      op.obj.updated_at = now;
      if (existed) {
        *existing = op.obj;  // in place: one shard walk per op, not two
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
        // Serialized in Phase B, reading straight through the
        // committed object's shared payload handle — no Value copy, and
        // the merge is left with a pure concatenation.
        persist::encode_put(op.persist_rec, store.name_, op.obj.key,
                            op.obj.version, op.obj.created_at,
                            op.obj.updated_at, *op.obj.data);
      }
      op.type = existed ? WatchEventType::kModified : WatchEventType::kAdded;
    }
    op.committed = true;
    // Watch matching: prefix + RBAC (audited into the op's sink, in watcher
    // registration order). Batched watchers coalesce the event into their
    // buffer's shard queue right here; per-event watchers get a
    // ready-to-ship event. Either way the op records one WatchHit per
    // watcher for the Phase-C merge.
    if (watchers.empty()) return;
    const std::string& key = op.obj.key;
    if (active_watchers > 0) {
      store.watch_index_.probe(op.obj.data, probe);
      op.sub_matched.reserve(active_watchers);
      op.sub_filtered.reserve(active_watchers);
    }
    for (EpochWatcher& entry : watchers) {
      const std::size_t widx = entry.watch_index;
      const Watch& watch = watches_[widx];
      if (watch.store != store.name_ ||
          !common::starts_with(key, watch.prefix)) {
        continue;
      }
      Decision wd = kernel_.check_access_buffered(
          watch.principal, store.name_, key, Verb::kWatch, now, &op.audit);
      if (!wd.allowed) continue;
      // Subscription content filter + projection: apply() is pure, so it
      // runs right here in Phase B. Accounting is staged on the op and
      // folded in Phase C, like every other counter.
      // A commit that misses the subscription's equality key is rejected
      // by the index without running the predicate.
      std::optional<common::SharedValue> projected;
      if (watch.sub->active()) {
        const auto position = static_cast<std::uint32_t>(widx);
        op.sub_matched.push_back(position);
        if (probe.must_apply(position)) {
          op.sub_evaluated.push_back(position);
          projected = watch.sub->apply(op.obj.data);
        }
        if (!projected.has_value()) {
          op.sub_filtered.push_back(position);
          continue;  // rejected pre-enqueue: no slot, no RBAC filter, no hit
        }
      }
      EpochOp::WatchHit& hit = op.hits.emplace_back();
      hit.watch_index = widx;
      hit.event.type = op.type;
      hit.event.store = store.name_;
      hit.event.object = op.obj;
      if (projected.has_value()) hit.event.object.data = std::move(*projected);
      hit.event.ctx = op.ctx;
      if (entry.buffer != nullptr) {
        hit.staged = true;
        hit.buffer = entry.buffer;
        hit.coalesced = coalesce_into(
            entry.buffer->shards[shard], std::move(hit.event),
            op.ctx.commit_seq, wd.fields,
            stage_undo ? &entry.undo[shard] : nullptr);
      } else if (!wd.fields.unrestricted() && hit.event.object.data) {
        hit.event.object.data = std::make_shared<const Value>(
            Rbac::filter_fields(*hit.event.object.data, wd.fields));
      }
    }
  };
  for (std::size_t s = 0; s < shard_count; ++s) {
    for (std::size_t i : shard_ops[s]) {
      process_op(i, s);
      if (tracer_ != nullptr) {
        const std::uint64_t sid = spans.begin("de.epoch.op", now);
        spans.annotate(sid, "stage", "S");
        spans.annotate(sid, "store", stores[i]->name_);
        spans.end(sid, now);
      }
      if (epoch_metrics_ != nullptr) {
        delta.inc(ops[i].committed ? "de.epoch.committed"
                                   : "de.epoch.failed");
      }
    }
  }

  // --- stamp rule, rollback, journal append -------------------------------
  std::size_t last = n;  // last committed op; n = none
  std::size_t first_failed = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (ops[i].committed) {
      last = i;
    } else if (first_failed == n) {
      first_failed = i;
    }
  }
  // The hook runs first (a process that died between commit and merge
  // never reached the append); the journal append sits in the same
  // all-or-nothing position: one frame carries every committed record in
  // global op order plus the post-epoch counters.
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
      // Un-stage the watch events Phase B coalesced into batched
      // watchers' buffers: restore overwritten pre-epoch slots, then
      // truncate this epoch's appends and their slot-index entries.
      for (EpochWatcher& entry : watchers) {
        if (entry.buffer == nullptr) continue;
        for (std::size_t s = 0; s < shard_count; ++s) {
          BatchStageUndo& u = entry.undo[s];
          ShardQueue& queue = entry.buffer->shards[s];
          for (auto& [idx, prev] : u.saved) {
            queue.events[idx] = std::move(prev);
          }
          queue.events.resize(u.base_events);
          std::erase_if(queue.slots, [&](const auto& kv) {
            return kv.second >= u.base_events;
          });
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
    // Atomic abort: the access decisions and failures stay on the record;
    // every op fails with the first failure's error.
    for (const EpochOp& op : ops) {
      kernel_.append_audit(op.audit);
      count_failure(op);
    }
    results.assign(n, ops[first_failed].error);
    return results;
  }

  // --- Phase C: deterministic merge ---------------------------------------
  // Fold the epoch's observability sinks first (a rolled-back epoch never
  // reaches this point — its buffers are dropped with the stack frame).
  if (tracer_ != nullptr) tracer_->merge(spans);
  if (epoch_metrics_ != nullptr) {
    epoch_metrics_->inc("de.epoch.epochs");
    epoch_metrics_->merge(delta);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EpochOp& op = ops[i];
    kernel_.append_audit(op.audit);
    if (op.fail != EpochOp::Fail::kNone) {
      count_failure(op);
      results.push_back(op.error);
      continue;
    }
    if (op.lineage) kernel_.provenance().record(std::move(*op.lineage));
    // Fold the staged subscription accounting in global op order, and emit
    // the `sub.filter` spans here — span count and order stay independent
    // of the shard count.
    for (std::uint32_t widx : op.sub_matched) ++watches_[widx].info->matched;
    for (std::uint32_t widx : op.sub_evaluated) {
      ++watches_[widx].info->evaluated;
    }
    stats_.watch_events_filtered += op.sub_filtered.size();
    for (std::uint32_t widx : op.sub_filtered) {
      const Watch& w = watches_[widx];
      ++w.info->filtered;
      note_filtered(w, op.obj.key);
    }
    for (EpochOp::WatchHit& hit : op.hits) {
      const Watch& watch = watches_[hit.watch_index];
      if (!hit.staged) {
        schedule_event_delivery(watch, std::move(hit.event));
        continue;
      }
      WatchBuffer& buf = *hit.buffer;
      ++buf.commits;
      if (hit.coalesced) ++stats_.watch_events_coalesced;
      if (!buf.flush_scheduled) {
        buf.flush_scheduled = true;
        begin_batch_span(watch, buf);
        sim::SimTime delay =
            watch.window + profile_.watch_notify.sample(kernel_.rng());
        std::uint64_t id = watch.id;
        clock().schedule_after(delay, [this, id]() { flush_watch_batch(id); });
      }
    }
    fire_triggers(stores[i]->name_, op.type, op.obj, op.ctx);
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
  watches_.push_back(std::move(w));
  watch_index_stale_ = true;
  return id;
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
    for (const auto& live : watches_) {
      if (live.id == id) {
        ++stats_.watch_events;
        finish_subscription_delivery(live, span_id, 1, &event);
        callback(event);
        return;
      }
    }
    if (span_id != 0 && tracer_ != nullptr) {
      tracer_->annotate(span_id, "cancelled", "true");
      tracer_->end(span_id);
    }
  });
}

bool ObjectDe::coalesce_into(ShardQueue& queue, WatchEvent&& event,
                             std::uint64_t seq, const FieldRule& fields,
                             BatchStageUndo* undo) {
  auto slot = queue.slots.find(event.object.key);
  if (slot == queue.slots.end()) {
    queue.slots.emplace(event.object.key, queue.events.size());
    queue.events.push_back(BufferedEvent{std::move(event), seq, fields});
    return false;
  }
  // Coalesce into the key's slot. The slot takes the new payload and the
  // new commit sequence (flush orders by it, so a delete superseding a
  // modify keeps its temporal position). Type merge: an object the
  // watcher has never seen stays kAdded through modifies; a delete
  // always survives as kDeleted; a re-create after an unseen delete
  // nets out to kModified (the object still exists, with new data).
  BufferedEvent& be = queue.events[slot->second];
  if (undo != nullptr && slot->second < undo->base_events) {
    bool saved = false;
    for (const auto& [idx, prev] : undo->saved) {
      if (idx == slot->second) {
        saved = true;
        break;
      }
    }
    if (!saved) undo->saved.emplace_back(slot->second, be);
  }
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
  const Watch* live = nullptr;
  for (const auto& w : watches_) {
    if (w.id == watch_id) {
      live = &w;
      break;
    }
  }
  std::size_t total = 0;
  for (const auto& queue : buf.shards) total += queue.events.size();
  if (live == nullptr || total == 0) {
    if (buf.span_id != 0 && tracer_ != nullptr) {
      tracer_->annotate(buf.span_id, "cancelled", "true");
      tracer_->end(buf.span_id);
    }
    return;
  }

  // Revision-window barrier: each shard's commit queue sorts itself by
  // DE-wide commit seq and applies RBAC field filtering.
  for (auto& queue : buf.shards) {
    std::stable_sort(queue.events.begin(), queue.events.end(),
                     [](const BufferedEvent& a, const BufferedEvent& b) {
                       return a.seq < b.seq;
                     });
    for (BufferedEvent& be : queue.events) {
      if (!be.fields.unrestricted() && be.event.object.data) {
        be.event.object.data = std::make_shared<const Value>(
            Rbac::filter_fields(*be.event.object.data, be.fields));
      }
    }
  }

  // Cross-shard stable merge by commit seq: reproduces the exact event
  // order of the single-shard flush, for any shard count.
  WatchBatch batch;
  batch.store = live->store;
  batch.commits = buf.commits;
  batch.events.reserve(total);
  std::vector<std::size_t> cursor(buf.shards.size(), 0);
  while (batch.events.size() < total) {
    std::size_t best = buf.shards.size();
    std::uint64_t best_seq = 0;
    for (std::size_t i = 0; i < buf.shards.size(); ++i) {
      const ShardQueue& queue = buf.shards[i];
      if (cursor[i] >= queue.events.size()) continue;
      std::uint64_t seq = queue.events[cursor[i]].seq;
      if (best == buf.shards.size() || seq < best_seq) {
        best = i;
        best_seq = seq;
      }
    }
    if (best == buf.shards.size()) break;  // defensive; total bounds us
    batch.events.push_back(
        std::move(buf.shards[best].events[cursor[best]++].event));
  }
  // QoS HISTORY KEEP_LAST: drop the oldest slots past the subscriber's
  // depth, after the merge so "newest N" is exact across shards.
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
  const StateObject* found = s->objects_.find(key);
  if (found == nullptr) {
    return Error::not_found("object: " + store + "/" + key + " not found");
  }
  StateObject obj = *found;
  if (!d.fields.unrestricted() && obj.data) {
    obj.data =
        std::make_shared<const Value>(Rbac::filter_fields(*obj.data, d.fields));
  }
  return obj;
}

}  // namespace knactor::de
