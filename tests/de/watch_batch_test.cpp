// Coalesced watch delivery (ObjectStore::subscribe_batch): a window of commits
// arrives as one WatchBatch, per-key updates coalesce, and — the ordering
// regression this suite pins down — a delete that follows a modify of the
// same key within one window is neither reordered before other keys'
// earlier events nor dropped.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "de/object.h"
#include "sim/clock.h"

namespace knactor::de {
namespace {

using common::Value;

class WatchBatchTest : public ::testing::Test {
 protected:
  WatchBatchTest() : de_(clock_, ObjectDeProfile::instant()) {
    store_ = &de_.create_store("things");
  }

  // Subscribes a batched watcher on `prefix` that records every batch.
  common::Result<std::uint64_t> subscribe_batches(std::string prefix,
                                                  sim::SimTime window) {
    SubscriptionSpec spec;
    spec.prefix = std::move(prefix);
    spec.qos.window = window;
    return store_->subscribe_batch(
        "svc", std::move(spec),
        [this](const WatchBatch& b) { batches_.push_back(b); });
  }

  Value obj(int n) {
    Value v = Value::object();
    v.set("n", Value(static_cast<std::int64_t>(n)));
    return v;
  }

  sim::VirtualClock clock_;
  ObjectDe de_;
  ObjectStore* store_ = nullptr;
  std::vector<WatchBatch> batches_;
};

constexpr sim::SimTime kWindow = 10 * sim::kMillisecond;

TEST_F(WatchBatchTest, BurstArrivesAsOneBatch) {
  ASSERT_TRUE(subscribe_batches("", kWindow).ok());
  (void)store_->put_sync("svc", "a", obj(1));
  (void)store_->put_sync("svc", "b", obj(2));
  (void)store_->put_sync("svc", "c", obj(3));
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].events.size(), 3u);
  EXPECT_EQ(batches_[0].commits, 3u);
  EXPECT_EQ(de_.stats().watch_batches, 1u);
  EXPECT_EQ(de_.stats().watch_events, 3u);
  EXPECT_EQ(de_.stats().watch_batch_sizes.count(), 1u);
  EXPECT_EQ(de_.stats().watch_batch_sizes.max(), 3u);
}

TEST_F(WatchBatchTest, SameKeyCoalescesToLatestPayload) {
  ASSERT_TRUE(subscribe_batches("", kWindow).ok());
  (void)store_->put_sync("svc", "k", obj(1));
  (void)store_->put_sync("svc", "k", obj(2));
  (void)store_->put_sync("svc", "k", obj(3));
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 1u);
  ASSERT_EQ(batches_[0].events.size(), 1u);
  EXPECT_EQ(batches_[0].commits, 3u);
  // An object the watcher has never seen stays kAdded through modifies,
  // carrying the newest payload.
  EXPECT_EQ(batches_[0].events[0].type, WatchEventType::kAdded);
  EXPECT_EQ(batches_[0].events[0].object.data->get("n")->as_int(), 3);
  EXPECT_EQ(de_.stats().watch_events_coalesced, 2u);
}

TEST_F(WatchBatchTest, DeleteAfterModifySurvivesInOrder) {
  // Satellite regression: key exists before the window; within the window
  // it is modified then deleted while another key changes in between. The
  // delete must not vanish and must stay AFTER the other key's event.
  (void)store_->put_sync("svc", "victim", obj(0));
  clock_.run_all();

  ASSERT_TRUE(subscribe_batches("", kWindow).ok());
  (void)store_->put_sync("svc", "victim", obj(1));   // modify
  (void)store_->put_sync("svc", "other", obj(2));    // unrelated commit
  ASSERT_TRUE(store_->remove_sync("svc", "victim").ok());
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 1u);
  const auto& events = batches_[0].events;
  ASSERT_EQ(events.size(), 2u);
  // Flush orders by each key's LATEST commit: other (commit 2) before
  // victim's delete (commit 3).
  EXPECT_EQ(events[0].object.key, "other");
  EXPECT_EQ(events[1].object.key, "victim");
  EXPECT_EQ(events[1].type, WatchEventType::kDeleted);
}

TEST_F(WatchBatchTest, DeleteThenRecreateNetsToModified) {
  (void)store_->put_sync("svc", "k", obj(1));
  clock_.run_all();
  ASSERT_TRUE(subscribe_batches("", kWindow).ok());
  ASSERT_TRUE(store_->remove_sync("svc", "k").ok());
  (void)store_->put_sync("svc", "k", obj(2));
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 1u);
  ASSERT_EQ(batches_[0].events.size(), 1u);
  // The object still exists with new data: a watcher that never saw the
  // intermediate delete observes one modification.
  EXPECT_EQ(batches_[0].events[0].type, WatchEventType::kModified);
  EXPECT_EQ(batches_[0].events[0].object.data->get("n")->as_int(), 2);
}

TEST_F(WatchBatchTest, ZeroWindowDeliversPerCommitBatches) {
  ASSERT_TRUE(subscribe_batches("", 0).ok());
  (void)store_->put_sync("svc", "a", obj(1));
  clock_.run_all();
  (void)store_->put_sync("svc", "b", obj(2));
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 2u);
  EXPECT_EQ(batches_[0].events.size(), 1u);
  EXPECT_EQ(batches_[1].events.size(), 1u);
}

TEST_F(WatchBatchTest, SeparateWindowsSeparateBatches) {
  ASSERT_TRUE(subscribe_batches("", kWindow).ok());
  (void)store_->put_sync("svc", "a", obj(1));
  clock_.run_all();  // flush window 1
  (void)store_->put_sync("svc", "a", obj(2));
  clock_.run_all();  // flush window 2

  ASSERT_EQ(batches_.size(), 2u);
  EXPECT_EQ(batches_[0].events[0].type, WatchEventType::kAdded);
  EXPECT_EQ(batches_[1].events[0].type, WatchEventType::kModified);
}

TEST_F(WatchBatchTest, UnwatchDropsBufferedEvents) {
  auto id = subscribe_batches("", kWindow);
  ASSERT_TRUE(id.ok());
  (void)store_->put_sync("svc", "a", obj(1));
  store_->unsubscribe(id.value(), /*drain=*/false);
  clock_.run_all();
  EXPECT_TRUE(batches_.empty());
}

TEST_F(WatchBatchTest, PrefixFilters) {
  ASSERT_TRUE(subscribe_batches("order/", kWindow).ok());
  (void)store_->put_sync("svc", "order/1", obj(1));
  (void)store_->put_sync("svc", "draft/1", obj(2));
  clock_.run_all();
  ASSERT_EQ(batches_.size(), 1u);
  ASSERT_EQ(batches_[0].events.size(), 1u);
  EXPECT_EQ(batches_[0].events[0].object.key, "order/1");
}

TEST_F(WatchBatchTest, PayloadIsSharedZeroCopy) {
  ASSERT_TRUE(subscribe_batches("", kWindow).ok());
  (void)store_->put_sync("svc", "a", obj(1));
  clock_.run_all();
  ASSERT_EQ(batches_.size(), 1u);
  // Without RBAC field filtering the delivered payload aliases the stored
  // buffer — no deep copy on the batch path.
  EXPECT_EQ(batches_[0].events[0].object.data.get(),
            store_->peek("a")->data.get());
}

TEST_F(WatchBatchTest, BatchAndPerEventWatchesCoexist) {
  std::vector<WatchEvent> singles;
  ASSERT_TRUE(store_
                  ->subscribe("svc", {},
                              [&](const WatchEvent& e) { singles.push_back(e); })
                  .ok());
  ASSERT_TRUE(subscribe_batches("", kWindow).ok());
  (void)store_->put_sync("svc", "a", obj(1));
  (void)store_->put_sync("svc", "a", obj(2));
  clock_.run_all();
  EXPECT_EQ(singles.size(), 2u);  // per-event path unchanged
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].events.size(), 1u);
}

TEST_F(WatchBatchTest, TransactionCommitsArriveInOneBatch) {
  ASSERT_TRUE(subscribe_batches("", kWindow).ok());
  std::vector<ObjectDe::TxnOp> ops;
  for (int i = 0; i < 3; ++i) {
    ObjectDe::TxnOp op;
    op.store = "things";
    op.key = "t" + std::to_string(i);
    op.data = obj(i);
    ops.push_back(std::move(op));
  }
  ASSERT_TRUE(de_.transact_sync("svc", std::move(ops)).ok());
  clock_.run_all();
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].events.size(), 3u);
}

}  // namespace
}  // namespace knactor::de
