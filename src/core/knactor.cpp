#include "core/knactor.h"

#include "common/logging.h"

namespace knactor::core {

using common::Result;
using common::Value;

void Knactor::bind_object_store(const std::string& label,
                                de::ObjectStore& store,
                                const de::StoreSchema* schema) {
  object_stores_[label] = BoundStore{&store, schema, 0};
}

void Knactor::bind_log_pool(const std::string& label, de::LogPool& pool) {
  log_pools_[label] = &pool;
}

de::ObjectStore* Knactor::object_store(const std::string& label) const {
  auto it = object_stores_.find(label);
  return it == object_stores_.end() ? nullptr : it->second.store;
}

de::LogPool* Knactor::log_pool(const std::string& label) const {
  auto it = log_pools_.find(label);
  return it == log_pools_.end() ? nullptr : it->second;
}

const de::StoreSchema* Knactor::store_schema(const std::string& label) const {
  auto it = object_stores_.find(label);
  return it == object_stores_.end() ? nullptr : it->second.schema;
}

void Knactor::start() {
  if (running_) return;
  running_ = true;
  for (auto& [label, bound] : object_stores_) {
    auto sub = bound.store->subscribe(
        principal(), de::SubscriptionSpec{},
        [this](const de::WatchEvent& event) {
          if (running_ && reconciler_) {
            reconciler_->on_object_event(*this, event);
          }
        });
    if (sub.ok()) {
      bound.watch_id = sub.value();
    } else {
      KN_WARN << "knactor " << name_ << ": watch on store '" << label
              << "' denied";
    }
  }
  if (reconciler_) reconciler_->start(*this);
}

void Knactor::stop() {
  running_ = false;
  for (auto& [label, bound] : object_stores_) {
    if (bound.watch_id != 0) {
      bound.store->unsubscribe(bound.watch_id, /*drain=*/false);
      bound.watch_id = 0;
    }
  }
}

Result<std::size_t> Knactor::resync() {
  if (!reconciler_) return std::size_t{0};
  std::size_t replayed = 0;
  for (auto& [label, bound] : object_stores_) {
    KN_ASSIGN_OR_RETURN(std::vector<de::StateObject> objects,
                        bound.store->list_sync(principal(), ""));
    for (auto& object : objects) {
      de::WatchEvent event;
      event.type = de::WatchEventType::kAdded;
      event.store = bound.store->name();
      event.object = std::move(object);
      reconciler_->on_object_event(*this, event);
      ++replayed;
    }
  }
  return replayed;
}

Result<de::StateObject> Knactor::get_state(const std::string& key) {
  de::ObjectStore* store = object_store("state");
  if (store == nullptr) {
    return common::Error::failed_precondition("knactor " + name_ +
                                              ": no 'state' store bound");
  }
  return store->get_sync(principal(), key);
}

Result<std::uint64_t> Knactor::put_state(const std::string& key, Value data) {
  de::ObjectStore* store = object_store("state");
  if (store == nullptr) {
    return common::Error::failed_precondition("knactor " + name_ +
                                              ": no 'state' store bound");
  }
  return store->put_sync(principal(), key, std::move(data));
}

Result<std::uint64_t> Knactor::patch_state(const std::string& key,
                                           Value fields) {
  de::ObjectStore* store = object_store("state");
  if (store == nullptr) {
    return common::Error::failed_precondition("knactor " + name_ +
                                              ": no 'state' store bound");
  }
  return store->patch_sync(principal(), key, std::move(fields));
}

}  // namespace knactor::core
