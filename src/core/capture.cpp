#include "core/capture.h"

#include "common/logging.h"

namespace knactor::core {

using common::Status;
using common::Value;

ChangeCapture::ChangeCapture(std::string name, de::ObjectStore& store,
                             de::LogPool& pool, Options options)
    : name_(std::move(name)),
      store_(store),
      pool_(pool),
      options_(std::move(options)) {}

ChangeCapture::ChangeCapture(std::string name, de::ObjectStore& store,
                             de::LogPool& pool)
    : ChangeCapture(std::move(name), store, pool, Options{}) {}

Status ChangeCapture::start() {
  if (watch_id_ != 0) return Status::success();
  de::SubscriptionSpec spec;
  spec.prefix = options_.key_prefix;
  auto sub = store_.subscribe(
      principal(), std::move(spec),
      [this](const de::WatchEvent& event) { on_event(event); });
  if (!sub.ok()) {
    return common::Error::permission_denied("capture " + name_ +
                                            ": watch denied");
  }
  watch_id_ = sub.value();
  return Status::success();
}

void ChangeCapture::stop() {
  if (watch_id_ != 0) {
    store_.unsubscribe(watch_id_, /*drain=*/false);
    watch_id_ = 0;
  }
}

void ChangeCapture::on_event(const de::WatchEvent& event) {
  Value record = Value::object();
  record.set("store", Value(event.store));
  record.set("key", Value(event.object.key));
  record.set("event",
             Value(event.type == de::WatchEventType::kAdded
                       ? "added"
                       : event.type == de::WatchEventType::kModified
                             ? "modified"
                             : "deleted"));
  record.set("version", Value(static_cast<std::int64_t>(event.object.version)));
  record.set("t", Value(static_cast<std::int64_t>(event.object.updated_at)));
  if (options_.include_data && event.object.data) {
    record.set("data", *event.object.data);
  }
  ++captured_;
  pool_.append(principal(), std::move(record),
               [this](common::Result<std::uint64_t> r) {
                 if (!r.ok()) {
                   KN_WARN << "capture " << name_
                           << ": append failed: " << r.error().to_string();
                 }
               });
}

}  // namespace knactor::core
