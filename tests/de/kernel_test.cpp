#include "de/kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/worker_pool.h"

namespace knactor::de {
namespace {

// --- shard_of: the partition must be platform-stable ------------------------

TEST(ShardOf, GoldenValuesAreStable) {
  // FNV-1a 64 golden values: if these move, N-shard runs stop replaying
  // recorded serial orders across platforms/toolchains.
  EXPECT_EQ(shard_of("order-1", 8), 6060019966333146987ull % 8);
  EXPECT_EQ(shard_of("order-2", 8), 6060021065844775198ull % 8);
  EXPECT_EQ(shard_of("alpha", 8), 6542418319912364133ull % 8);
}

TEST(ShardOf, SingleShardIsAlwaysZero) {
  EXPECT_EQ(shard_of("anything", 1), 0u);
  EXPECT_EQ(shard_of("anything", 0), 0u);
}

TEST(ShardOf, CoversMultipleShards) {
  std::vector<bool> hit(8, false);
  for (int i = 0; i < 64; ++i) {
    hit[shard_of("key-" + std::to_string(i), 8)] = true;
  }
  int used = 0;
  for (bool b : hit) used += b ? 1 : 0;
  EXPECT_GT(used, 4);  // a hash that lumps everything together is broken
}

// --- ShardedMap -------------------------------------------------------------

TEST(ShardedMap, FindInsertEraseAcrossShardCounts) {
  ShardedMap<int> map(4);
  map["a"] = 1;
  map["b"] = 2;
  ASSERT_NE(map.find("a"), nullptr);
  EXPECT_EQ(*map.find("a"), 1);
  EXPECT_EQ(map.find("missing"), nullptr);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.erase("a"));
  EXPECT_FALSE(map.erase("a"));
  EXPECT_EQ(map.size(), 1u);
}

TEST(ShardedMap, RepartitionPreservesEntries) {
  ShardedMap<int> map(1);
  for (int i = 0; i < 20; ++i) map["k" + std::to_string(i)] = i;
  map.set_shard_count(8);
  EXPECT_EQ(map.shard_count(), 8u);
  EXPECT_EQ(map.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    auto* v = map.find("k" + std::to_string(i));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
}

TEST(ShardedMap, SortedKeysMatchSingleShardOrder) {
  ShardedMap<int> one(1);
  ShardedMap<int> many(8);
  for (const char* k : {"zeta", "alpha", "mid", "beta", "omega"}) {
    one[k] = 0;
    many[k] = 0;
  }
  EXPECT_EQ(one.sorted_keys(), many.sorted_keys());
}

// --- Kernel sequence domains ------------------------------------------------

TEST(Kernel, RevisionAndCommitSeqAreSeparateDomains) {
  sim::VirtualClock clock;
  Kernel kernel(clock, 7);
  // Revisions start at 1 (object versions / log seqs).
  EXPECT_EQ(kernel.next_revision(), 1u);
  EXPECT_EQ(kernel.next_revision(), 2u);
  // Commit seqs start at 2 (pre-increment; preserves legacy notify stamps).
  EXPECT_EQ(kernel.next_commit_seq(), 2u);
  EXPECT_EQ(kernel.next_commit_seq(), 3u);
  // Allocating one never advances the other.
  EXPECT_EQ(kernel.next_revision(), 3u);
}

TEST(Kernel, WatchIdsStartAtOne) {
  sim::VirtualClock clock;
  Kernel kernel(clock, 7);
  EXPECT_EQ(kernel.allocate_watch_id(), 1u);
  EXPECT_EQ(kernel.allocate_watch_id(), 2u);
}

// --- availability -----------------------------------------------------------

TEST(Kernel, GuardCountsRejectionsThroughHook) {
  sim::VirtualClock clock;
  Kernel kernel(clock, 7);
  std::uint64_t rejections = 0;
  kernel.set_hooks(Kernel::Hooks{&rejections});
  EXPECT_TRUE(kernel.guard_available());
  EXPECT_EQ(rejections, 0u);
  kernel.crash();
  EXPECT_FALSE(kernel.guard_available());
  EXPECT_FALSE(kernel.guard_available());
  EXPECT_EQ(rejections, 2u);
}

TEST(Kernel, RecoverRunsRestartHookThenMarksUp) {
  sim::VirtualClock clock;
  Kernel kernel(clock, 7);
  std::vector<std::string> order;
  kernel.set_restart_hook([&] {
    order.push_back(kernel.available() ? "up" : "down");
  });
  kernel.crash();
  kernel.recover();
  // The restart hook runs while the kernel is still marked down (recovery
  // must not accept client traffic midway).
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], "down");
  EXPECT_TRUE(kernel.available());
}

// --- RBAC + audit -----------------------------------------------------------

TEST(Kernel, CheckAccessRecordsBoundedAudit) {
  sim::VirtualClock clock;
  Kernel kernel(clock, 7);
  kernel.enable_audit(3);
  for (int i = 0; i < 5; ++i) {
    (void)kernel.check_access("user", "store", "k" + std::to_string(i),
                              Verb::kGet);
  }
  ASSERT_EQ(kernel.audit_log().size(), 3u);  // ring bounded
  EXPECT_EQ(kernel.audit_log().front().key, "k2");
  EXPECT_EQ(kernel.audit_log().back().key, "k4");
  EXPECT_TRUE(kernel.audit_log().back().allowed);  // rbac off => allow
}

TEST(Kernel, DisabledAuditRecordsNothing) {
  sim::VirtualClock clock;
  Kernel kernel(clock, 7);
  (void)kernel.check_access("user", "store", "k", Verb::kGet);
  EXPECT_TRUE(kernel.audit_log().empty());
}

// --- GC hooks ---------------------------------------------------------------

TEST(Kernel, GcHooksRunInRegistrationOrderAndSum) {
  sim::VirtualClock clock;
  Kernel kernel(clock, 7);
  std::vector<int> order;
  kernel.add_gc_hook([&] {
    order.push_back(1);
    return std::size_t{3};
  });
  kernel.add_gc_hook([&] {
    order.push_back(2);
    return std::size_t{4};
  });
  EXPECT_EQ(kernel.run_gc(), 7u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- shard-task execution ---------------------------------------------------

TEST(Kernel, RunShardTasksInlineWithoutPool) {
  sim::VirtualClock clock;
  Kernel kernel(clock, 7);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&order, i] { order.push_back(i); });
  }
  kernel.run_shard_tasks(tasks);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));  // index order inline
}

TEST(Kernel, RunShardTasksOnPoolCompletesAll) {
  sim::VirtualClock clock;
  Kernel kernel(clock, 7);
  common::WorkerPool pool(4);
  kernel.set_worker_pool(&pool);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  kernel.run_shard_tasks(tasks);  // barrier: returns only when all done
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace knactor::de

namespace knactor::common {
namespace {

TEST(WorkerPool, InlineWhenSingleWorker) {
  WorkerPool pool(1);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 3; ++i) tasks.push_back([&order, i] { order.push_back(i); });
  pool.run(tasks);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(pool.stats().inline_runs, 1u);
  EXPECT_EQ(pool.stats().barriers, 0u);
  EXPECT_EQ(pool.stats().tasks, 3u);
}

TEST(WorkerPool, BarrierRunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> counts(100);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&counts, i] { counts[i].fetch_add(1); });
  }
  for (int round = 0; round < 10; ++round) pool.run(tasks);
  for (auto& c : counts) EXPECT_EQ(c.load(), 10);
  EXPECT_EQ(pool.stats().tasks, 1000u);
}

TEST(WorkerPool, ResizeKeepsWorking) {
  WorkerPool pool(1);
  pool.set_workers(4);
  EXPECT_EQ(pool.workers(), 4);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) tasks.push_back([&ran] { ++ran; });
  pool.run(tasks);
  EXPECT_EQ(ran.load(), 16);
  pool.set_workers(1);
  pool.run(tasks);
  EXPECT_EQ(ran.load(), 32);
}

TEST(WorkerPool, EmptyBatchIsANoop) {
  WorkerPool pool(4);
  pool.run({});
  EXPECT_EQ(pool.stats().tasks, 0u);
}

}  // namespace
}  // namespace knactor::common
