#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"

namespace pump::exec {
namespace {

TEST(ExecutorTest, RunsEverySlotExactlyOnce) {
  Executor executor(3);
  std::vector<std::atomic<int>> ran(16);
  executor.Run(16, [&](std::size_t id) { ran[id].fetch_add(1); });
  for (auto& count : ran) EXPECT_EQ(count.load(), 1);
}

TEST(ExecutorTest, SlotZeroRunsOnCallingThread) {
  Executor executor(2);
  const auto caller = std::this_thread::get_id();
  std::thread::id slot0;
  executor.Run(2, [&](std::size_t id) {
    if (id == 0) slot0 = std::this_thread::get_id();
  });
  EXPECT_EQ(slot0, caller);
}

TEST(ExecutorTest, SingleWorkerRunsInline) {
  Executor executor(2);
  const std::uint64_t dispatches_before = executor.dispatches();
  std::size_t seen = 99;
  executor.Run(1, [&](std::size_t id) { seen = id; });
  EXPECT_EQ(seen, 0u);
  // Degenerate dispatches never engage (or count against) the pool.
  EXPECT_EQ(executor.dispatches(), dispatches_before);
}

TEST(ExecutorTest, MatchesParallelForAcrossPhases) {
  // Fork-join equivalence with ParallelFor, reused across phases the way
  // a join uses one pool for build then probe.
  constexpr std::size_t kN = 10000;
  std::vector<std::uint64_t> data(kN);
  std::iota(data.begin(), data.end(), 0);

  std::atomic<std::uint64_t> reference{0};
  ParallelFor(4, [&](std::size_t w) {
    std::uint64_t local = 0;
    for (std::size_t i = w; i < kN; i += 4) local += data[i];
    reference.fetch_add(local);
  });

  Executor executor(4);
  std::atomic<std::uint64_t> sum{0};
  for (int phase = 0; phase < 3; ++phase) {
    std::atomic<std::uint64_t> phase_sum{0};
    executor.Run(4, [&](std::size_t w) {
      std::uint64_t local = 0;
      for (std::size_t i = w; i < kN; i += 4) local += data[i];
      phase_sum.fetch_add(local);
    });
    sum.store(phase_sum.load());
  }
  EXPECT_EQ(sum.load(), reference.load());
}

TEST(ExecutorTest, StatsAccumulateAcrossDispatches) {
  Executor executor(2);
  for (int i = 0; i < 5; ++i) {
    executor.Run(4, [](std::size_t) {});
  }
  EXPECT_EQ(executor.dispatches(), 5u);
  const std::vector<WorkerStats> stats = executor.Stats();
  ASSERT_EQ(stats.size(), 2u);
  std::uint64_t tasks = 0;
  std::uint64_t unparks = 0;
  for (const WorkerStats& s : stats) {
    tasks += s.tasks_run;
    unparks += s.unparks;
  }
  // The caller runs slot 0 of each dispatch; pool threads run the rest.
  EXPECT_EQ(tasks, 5u * 3u);
  EXPECT_GE(unparks, 5u);  // At least one wake-up per dispatch.
}

TEST(ExecutorTest, MoreSlotsThanThreadsStillCovered) {
  Executor executor(1);
  std::vector<std::atomic<int>> ran(64);
  executor.Run(64, [&](std::size_t id) { ran[id].fetch_add(1); });
  for (auto& count : ran) EXPECT_EQ(count.load(), 1);
  // The single pool thread executed 63 slots: 62 beyond its first.
  const std::vector<WorkerStats> stats = executor.Stats();
  EXPECT_EQ(stats[0].tasks_run, 63u);
  EXPECT_EQ(stats[0].steals, 62u);
}

TEST(ExecutorTest, ExceptionPropagatesAfterBarrier) {
  Executor executor(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      executor.Run(8,
                   [&](std::size_t id) {
                     if (id == 3) throw std::runtime_error("slot 3 failed");
                     completed.fetch_add(1);
                   }),
      std::runtime_error);
  // The barrier held: every non-throwing slot still ran.
  EXPECT_EQ(completed.load(), 7);
  // The pool survives and is reusable after an exception.
  std::atomic<int> again{0};
  executor.Run(4, [&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 4);
}

TEST(ExecutorTest, CallerSlotExceptionPropagates) {
  Executor executor(2);
  EXPECT_THROW(executor.Run(4,
                            [](std::size_t id) {
                              if (id == 0) {
                                throw std::runtime_error("caller slot");
                              }
                            }),
               std::runtime_error);
}

TEST(ExecutorTest, NestedRunExecutesInline) {
  Executor executor(2);
  std::atomic<int> inner_runs{0};
  executor.Run(2, [&](std::size_t) {
    // A nested dispatch from inside a slot must not deadlock on the pool;
    // it degrades to sequential execution.
    Executor::Default().Run(3, [&](std::size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 6);
}

TEST(ExecutorTest, DefaultIsProcessWideSingleton) {
  EXPECT_EQ(&Executor::Default(), &Executor::Default());
  EXPECT_EQ(Executor::Default().thread_count(), DefaultWorkerCount());
}

TEST(MorselDispatcherTest, CursorSaturatesAtDrain) {
  // Regression test for unbounded cursor growth: spinning workers polling
  // a dry dispatcher must not creep the cursor past the total.
  MorselDispatcher dispatcher(1000, 64);
  while (dispatcher.Next()) {
  }
  EXPECT_EQ(dispatcher.dispatched(), 1000u);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(dispatcher.Next().has_value());
  }
  EXPECT_EQ(dispatcher.dispatched(), 1000u);
}

}  // namespace
}  // namespace pump::exec
