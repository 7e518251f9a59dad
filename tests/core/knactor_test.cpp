#include "core/knactor.h"

#include <gtest/gtest.h>

#include "core/trace.h"

namespace knactor::core {
namespace {

using common::Value;

/// Reconciler that records events and optionally reacts by writing back.
class RecordingReconciler : public Reconciler {
 public:
  void start(Knactor&) override { ++started_; }
  void on_object_event(Knactor&, const de::WatchEvent& event) override {
    events_.push_back(event);
  }

  int started_ = 0;
  std::vector<de::WatchEvent> events_;
};

class KnactorTest : public ::testing::Test {
 protected:
  KnactorTest() : de_(clock_, de::ObjectDeProfile::instant()) {}

  sim::VirtualClock clock_;
  de::ObjectDe de_;
};

TEST_F(KnactorTest, PrincipalDerivedFromName) {
  Knactor kn("shipping", std::make_unique<RecordingReconciler>());
  EXPECT_EQ(kn.name(), "shipping");
  EXPECT_EQ(kn.principal(), "knactor:shipping");
}

TEST_F(KnactorTest, StartInvokesReconcilerAndWatches) {
  auto reconciler = std::make_unique<RecordingReconciler>();
  RecordingReconciler* rec = reconciler.get();
  Knactor kn("svc", std::move(reconciler));
  de::ObjectStore& store = de_.create_store("svc-store");
  kn.bind_object_store("state", store);
  kn.start();
  EXPECT_TRUE(kn.running());
  EXPECT_EQ(rec->started_, 1);

  (void)store.put_sync("anyone", "k", Value::object({{"a", 1}}));
  clock_.run_all();
  ASSERT_EQ(rec->events_.size(), 1u);
  EXPECT_EQ(rec->events_[0].object.key, "k");
}

TEST_F(KnactorTest, StartIsIdempotent) {
  auto reconciler = std::make_unique<RecordingReconciler>();
  RecordingReconciler* rec = reconciler.get();
  Knactor kn("svc", std::move(reconciler));
  kn.start();
  kn.start();
  EXPECT_EQ(rec->started_, 1);
}

TEST_F(KnactorTest, StopSilencesEvents) {
  auto reconciler = std::make_unique<RecordingReconciler>();
  RecordingReconciler* rec = reconciler.get();
  Knactor kn("svc", std::move(reconciler));
  de::ObjectStore& store = de_.create_store("svc-store");
  kn.bind_object_store("state", store);
  kn.start();
  kn.stop();
  EXPECT_FALSE(kn.running());
  (void)store.put_sync("anyone", "k", Value::object({}));
  clock_.run_all();
  EXPECT_TRUE(rec->events_.empty());
}

TEST_F(KnactorTest, MultipleStoresAllWatched) {
  auto reconciler = std::make_unique<RecordingReconciler>();
  RecordingReconciler* rec = reconciler.get();
  Knactor kn("svc", std::move(reconciler));
  de::ObjectStore& config = de_.create_store("svc-config");
  de::ObjectStore& status = de_.create_store("svc-status");
  kn.bind_object_store("config", config);
  kn.bind_object_store("status", status);
  kn.start();
  (void)config.put_sync("x", "a", Value::object({}));
  (void)status.put_sync("x", "b", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(rec->events_.size(), 2u);
}

TEST_F(KnactorTest, ResyncReplaysExistingState) {
  // State written before the knactor starts is invisible to watches; a
  // resync replays it (the informer re-list pattern).
  de::ObjectStore& store = de_.create_store("svc-store");
  (void)store.put_sync("x", "pre-1", Value::object({{"n", 1}}));
  (void)store.put_sync("x", "pre-2", Value::object({{"n", 2}}));

  auto reconciler = std::make_unique<RecordingReconciler>();
  RecordingReconciler* rec = reconciler.get();
  Knactor kn("svc", std::move(reconciler));
  kn.bind_object_store("state", store);
  kn.start();
  clock_.run_all();
  EXPECT_TRUE(rec->events_.empty());  // nothing changed since start

  auto replayed = kn.resync();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), 2u);
  ASSERT_EQ(rec->events_.size(), 2u);
  EXPECT_EQ(rec->events_[0].type, de::WatchEventType::kAdded);
  EXPECT_EQ(rec->events_[0].object.key, "pre-1");
}

TEST_F(KnactorTest, ResyncAfterDeRestart) {
  sim::VirtualClock clock;
  de::ObjectDe durable(clock, de::ObjectDeProfile::apiserver());
  de::ObjectStore& store = durable.create_store("svc-store");
  (void)store.put_sync("x", "obj", Value::object({{"n", 7}}));

  auto reconciler = std::make_unique<RecordingReconciler>();
  RecordingReconciler* rec = reconciler.get();
  Knactor kn("svc", std::move(reconciler));
  kn.bind_object_store("state", store);
  kn.start();
  clock.run_all();

  durable.restart();  // state survives the restart, but no events fire
  clock.run_all();
  EXPECT_TRUE(rec->events_.empty());
  auto replayed = kn.resync();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), 1u);
  EXPECT_EQ(rec->events_[0].object.data->get("n")->as_int(), 7);
}

TEST_F(KnactorTest, ResyncCoversAllStores) {
  de::ObjectStore& a = de_.create_store("a");
  de::ObjectStore& b = de_.create_store("b");
  (void)a.put_sync("x", "k", Value::object({}));
  (void)b.put_sync("x", "k", Value::object({}));
  auto reconciler = std::make_unique<RecordingReconciler>();
  RecordingReconciler* rec = reconciler.get();
  Knactor kn("svc", std::move(reconciler));
  kn.bind_object_store("one", a);
  kn.bind_object_store("two", b);
  auto replayed = kn.resync();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), 2u);
  EXPECT_EQ(rec->events_.size(), 2u);
}

TEST_F(KnactorTest, StateHelpersUseDefaultStore) {
  Knactor kn("svc", std::make_unique<RecordingReconciler>());
  de::ObjectStore& store = de_.create_store("svc-store");
  kn.bind_object_store("state", store);
  ASSERT_TRUE(kn.put_state("obj", Value::object({{"a", 1}})).ok());
  ASSERT_TRUE(kn.patch_state("obj", Value::object({{"b", 2}})).ok());
  auto got = kn.get_state("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().data->get("a")->as_int(), 1);
  EXPECT_EQ(got.value().data->get("b")->as_int(), 2);
}

TEST_F(KnactorTest, StateHelpersFailWithoutStore) {
  Knactor kn("svc", std::make_unique<RecordingReconciler>());
  EXPECT_FALSE(kn.put_state("k", Value::object({})).ok());
  EXPECT_FALSE(kn.get_state("k").ok());
  EXPECT_FALSE(kn.patch_state("k", Value::object({})).ok());
}

TEST_F(KnactorTest, LogPoolBinding) {
  sim::VirtualClock clock;
  de::LogDe log_de(clock, de::LogDeProfile::instant());
  de::LogPool& pool = log_de.create_pool("telemetry");
  Knactor kn("svc", std::make_unique<RecordingReconciler>());
  kn.bind_log_pool("telemetry", pool);
  EXPECT_EQ(kn.log_pool("telemetry"), &pool);
  EXPECT_EQ(kn.log_pool("missing"), nullptr);
}

TEST_F(KnactorTest, SchemaAttachedToStore) {
  de::StoreSchema schema;
  schema.id = "T/v1/X";
  Knactor kn("svc", std::make_unique<RecordingReconciler>());
  de::ObjectStore& store = de_.create_store("s");
  kn.bind_object_store("state", store, &schema);
  EXPECT_EQ(kn.store_schema("state"), &schema);
  EXPECT_EQ(kn.store_schema("other"), nullptr);
  EXPECT_EQ(kn.object_store("state"), &store);
  EXPECT_EQ(kn.object_store("other"), nullptr);
}

TEST(Tracer, SpansRecordDurations) {
  sim::VirtualClock clock;
  Tracer tracer(clock);
  std::uint64_t root = tracer.begin("exchange");
  clock.advance(sim::from_ms(5));
  std::uint64_t child = tracer.begin("write", root);
  clock.advance(sim::from_ms(2));
  tracer.end(child);
  tracer.end(root);

  auto exchanges = tracer.by_name("exchange");
  ASSERT_EQ(exchanges.size(), 1u);
  EXPECT_EQ(exchanges[0].duration(), sim::from_ms(7));
  auto writes = tracer.by_name("write");
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].duration(), sim::from_ms(2));
  EXPECT_EQ(writes[0].parent, root);
}

TEST(Tracer, UnfinishedSpansExcluded) {
  sim::VirtualClock clock;
  Tracer tracer(clock);
  tracer.begin("open");
  EXPECT_TRUE(tracer.by_name("open").empty());
  EXPECT_EQ(tracer.total_duration("open"), 0);
}

TEST(Tracer, Annotations) {
  sim::VirtualClock clock;
  Tracer tracer(clock);
  std::uint64_t id = tracer.begin("x");
  tracer.annotate(id, "store", "checkout");
  tracer.end(id);
  EXPECT_EQ(tracer.by_name("x")[0].attributes.at("store"), "checkout");
}

TEST(Tracer, TotalDurationSums) {
  sim::VirtualClock clock;
  Tracer tracer(clock);
  for (int i = 0; i < 3; ++i) {
    std::uint64_t id = tracer.begin("op");
    clock.advance(sim::from_ms(4));
    tracer.end(id);
  }
  EXPECT_EQ(tracer.total_duration("op"), sim::from_ms(12));
  tracer.clear();
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Metrics, CountersAccumulate) {
  Metrics metrics;
  metrics.inc("passes");
  metrics.inc("passes", 4);
  EXPECT_EQ(metrics.get("passes"), 5u);
  EXPECT_EQ(metrics.get("missing"), 0u);
  metrics.clear();
  EXPECT_EQ(metrics.get("passes"), 0u);
}

}  // namespace
}  // namespace knactor::core
