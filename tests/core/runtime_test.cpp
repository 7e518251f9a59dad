#include "core/runtime.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

namespace knactor::core {
namespace {

using common::Value;

class NullReconciler : public Reconciler {};

TEST(Runtime, DesAreNamedAndIdempotent) {
  Runtime rt;
  de::ObjectDe& a = rt.add_object_de("obj", de::ObjectDeProfile::instant());
  de::ObjectDe& b = rt.add_object_de("obj", de::ObjectDeProfile::redis());
  EXPECT_EQ(&a, &b);  // second add returns the existing DE
  EXPECT_EQ(rt.object_de("obj"), &a);
  EXPECT_EQ(rt.object_de("missing"), nullptr);

  de::LogDe& l = rt.add_log_de("log", de::LogDeProfile::instant());
  EXPECT_EQ(rt.log_de("log"), &l);
  EXPECT_EQ(rt.log_de("missing"), nullptr);
}

TEST(Runtime, SharedClockAcrossComponents) {
  Runtime rt;
  de::ObjectDe& de = rt.add_object_de("obj", de::ObjectDeProfile::redis());
  de::ObjectStore& store = de.create_store("s");
  (void)store.put_sync("me", "k", Value::object({}));
  EXPECT_GT(rt.clock().now(), 0);
}

TEST(Runtime, KnactorRegistry) {
  Runtime rt;
  rt.add_knactor(
      std::make_unique<Knactor>("svc", std::make_unique<NullReconciler>()));
  EXPECT_NE(rt.knactor("svc"), nullptr);
  EXPECT_EQ(rt.knactor("ghost"), nullptr);
}

TEST(Runtime, IntegratorRegistryWithTypedLookup) {
  Runtime rt;
  de::ObjectDe& de = rt.add_object_de("obj", de::ObjectDeProfile::instant());
  de::ObjectStore& a = de.create_store("a");
  de::ObjectStore& b = de.create_store("b");
  auto dxg = Dxg::parse("Input:\n  A: a\n  B: b\nDXG:\n  B:\n    x: A.x\n");
  rt.add_integrator(std::make_unique<CastIntegrator>(
      "cast1", de, dxg.take(),
      std::map<std::string, de::ObjectStore*>{{"A", &a}, {"B", &b}}));
  de::LogDe& lde = rt.add_log_de("log", de::LogDeProfile::instant());
  rt.add_integrator(std::make_unique<SyncIntegrator>("sync1", lde));

  EXPECT_NE(rt.integrator("cast1"), nullptr);
  EXPECT_NE(rt.cast("cast1"), nullptr);
  EXPECT_EQ(rt.sync("cast1"), nullptr);  // wrong type
  EXPECT_NE(rt.sync("sync1"), nullptr);
  EXPECT_EQ(rt.cast("ghost"), nullptr);
}

TEST(Runtime, StartAllAndStopAll) {
  Runtime rt;
  de::ObjectDe& de = rt.add_object_de("obj", de::ObjectDeProfile::instant());
  de::ObjectStore& a = de.create_store("a");
  de::ObjectStore& b = de.create_store("b");
  auto knactor =
      std::make_unique<Knactor>("svc", std::make_unique<NullReconciler>());
  knactor->bind_object_store("state", a);
  rt.add_knactor(std::move(knactor));
  auto dxg = Dxg::parse("Input:\n  A: a\n  B: b\nDXG:\n  B:\n    x: A.v\n");
  rt.add_integrator(std::make_unique<CastIntegrator>(
      "c", de, dxg.take(),
      std::map<std::string, de::ObjectStore*>{{"A", &a}, {"B", &b}}));

  ASSERT_TRUE(rt.start_all().ok());
  EXPECT_TRUE(rt.knactor("svc")->running());
  EXPECT_TRUE(rt.integrator("c")->running());

  (void)a.put_sync("svc", "state", Value::object({{"v", 3}}));
  rt.run_until_idle();
  ASSERT_NE(b.peek("state"), nullptr);
  EXPECT_EQ(b.peek("state")->data->get("x")->as_int(), 3);

  rt.stop_all();
  EXPECT_FALSE(rt.knactor("svc")->running());
  EXPECT_FALSE(rt.integrator("c")->running());
}

TEST(Runtime, StartAllPropagatesIntegratorFailure) {
  Runtime rt;
  de::ObjectDe& de = rt.add_object_de("obj", de::ObjectDeProfile::instant());
  de::ObjectStore& a = de.create_store("a");
  // Alias B unbound -> start fails.
  auto dxg = Dxg::parse("Input:\n  A: a\n  B: b\nDXG:\n  B:\n    x: A.v\n");
  rt.add_integrator(std::make_unique<CastIntegrator>(
      "broken", de, dxg.take(),
      std::map<std::string, de::ObjectStore*>{{"A", &a}}));
  EXPECT_FALSE(rt.start_all().ok());
}

TEST(Runtime, RunForAdvancesTime) {
  Runtime rt;
  rt.run_for(5 * sim::kSecond);
  EXPECT_EQ(rt.clock().now(), 5 * sim::kSecond);
}

TEST(Runtime, RunUntilIdleRespectsCap) {
  Runtime rt;
  // A self-rescheduling event would run forever without the cap.
  std::function<void()> loop = [&rt, &loop]() {
    rt.clock().schedule_after(1, loop);
  };
  rt.clock().schedule_after(1, loop);
  std::size_t executed = rt.run_until_idle(100);
  EXPECT_EQ(executed, 100u);
}

TEST(Runtime, RunUntilIdleSurfacesCapHit) {
  Runtime rt;
  std::function<void()> loop = [&rt, &loop]() {
    rt.clock().schedule_after(1, loop);
  };
  rt.clock().schedule_after(1, loop);
  RunResult capped = rt.run_until_idle(100);
  EXPECT_EQ(capped.executed, 100u);
  EXPECT_TRUE(capped.capped);
  EXPECT_EQ(rt.metrics().get("runtime.run_capped"), 1u);

  // A run that drains naturally is not capped — even when it executes
  // exactly zero events.
  Runtime idle;
  RunResult drained = idle.run_until_idle(100);
  EXPECT_EQ(drained.executed, 0u);
  EXPECT_FALSE(drained.capped);
  EXPECT_EQ(idle.metrics().get("runtime.run_capped"), 0u);
}

#ifdef __linux__
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}
#endif

// An epoch commit, a batched-watch flush and a list all run on the calling
// thread. set_workers is accepted and ignored.
TEST(RuntimeTest, RunStartsNoThreads) {
#ifndef __linux__
  GTEST_SKIP() << "counts threads through /proc/self/task";
#else
  const std::size_t before = thread_count();
  Runtime rt;
  rt.set_workers(4);
  de::ObjectDe& de = rt.add_object_de("obj", de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  de::SubscriptionSpec windowed;
  windowed.qos.window = sim::kMillisecond;
  std::size_t batched = 0;
  ASSERT_TRUE(store
                  .subscribe_batch("me", windowed,
                                   [&](const de::WatchBatch& batch) {
                                     batched += batch.events.size();
                                   })
                  .ok());
  std::vector<de::EpochWrite> writes;
  for (int i = 0; i < 16; ++i) {
    de::EpochWrite w;
    w.key = "k-" + std::to_string(i);
    w.data = Value::object({{"v", i}});
    writes.push_back(std::move(w));
  }
  for (const auto& result : store.put_epoch_sync("me", std::move(writes))) {
    ASSERT_TRUE(result.ok());
  }
  rt.run_until_idle();
  EXPECT_EQ(batched, 16u);
  auto listed = store.list_sync("me", "k-");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value().size(), 16u);
  EXPECT_EQ(thread_count(), before);
#endif
}

TEST(Runtime, NetworkLazyInit) {
  Runtime rt;
  net::SimNetwork& n1 = rt.network();
  net::SimNetwork& n2 = rt.network();
  EXPECT_EQ(&n1, &n2);
}

TEST(Runtime, SchemasRegistryShared) {
  Runtime rt;
  ASSERT_TRUE(rt.schemas().add_yaml("schema: T/v1/X\na: int\n").ok());
  EXPECT_NE(rt.schemas().find("T/v1/X"), nullptr);
}

}  // namespace
}  // namespace knactor::core
