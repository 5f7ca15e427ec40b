#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "obs/query_context.h"

namespace pump::exec {
namespace {

/// Waits up to two seconds for `flag`. The concurrency tests below wait
/// on each other's slots through this, so a pool that runs one job at a
/// time fails them after the bound instead of hanging.
bool WaitFor(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

/// Slots of one Run, beyond slot 0, that ran on the calling thread.
std::uint64_t CallerHelped(const std::vector<std::thread::id>& ran_on) {
  std::uint64_t helped = 0;
  for (std::size_t id = 1; id < ran_on.size(); ++id) {
    helped += ran_on[id] == std::this_thread::get_id() ? 1 : 0;
  }
  return helped;
}

std::uint64_t PoolTasks(const Executor& executor) {
  std::uint64_t tasks = 0;
  for (const WorkerStats& s : executor.Stats()) tasks += s.tasks_run;
  return tasks;
}

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
    std::vector<std::thread::id> ran_on(4);
    const std::uint64_t tasks_before = PoolTasks(executor);
    executor.Run(4, [&](std::size_t id) {
      ran_on[id] = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    // Slot 0 runs on the caller; each other slot runs once, on a pool
    // thread or, when none claimed it first, on the caller.
    EXPECT_EQ(PoolTasks(executor) - tasks_before + CallerHelped(ran_on), 3u);
  }
  EXPECT_EQ(executor.dispatches(), 5u);
  ASSERT_EQ(executor.Stats().size(), 2u);
}

TEST(ExecutorTest, MoreSlotsThanThreadsStillCovered) {
  Executor executor(1);
  std::vector<std::atomic<int>> ran(64);
  std::vector<std::thread::id> ran_on(64);
  executor.Run(64, [&](std::size_t id) {
    ran[id].fetch_add(1);
    ran_on[id] = std::this_thread::get_id();
  });
  for (auto& count : ran) EXPECT_EQ(count.load(), 1);
  // The pool thread and the helping caller split slots 1..63 between
  // them; the pool thread claims its share in one run of steals after
  // its first slot.
  const WorkerStats stats = executor.Stats()[0];
  EXPECT_EQ(stats.tasks_run + CallerHelped(ran_on), 63u);
  EXPECT_EQ(stats.steals, stats.tasks_run > 0 ? stats.tasks_run - 1 : 0);
}

TEST(ExecutorTest, ConcurrentRunsOverlap) {
  // Two callers' jobs share the pool: each job's slot 1 waits until the
  // other job's slot 1 has started, which needs both jobs running at once.
  Executor executor(2);
  std::atomic<bool> started[2] = {false, false};
  std::atomic<bool> overlapped[2] = {false, false};
  const auto job = [&](int me) {
    executor.Run(2, [&, me](std::size_t slot) {
      if (slot == 0) return;
      started[me].store(true);
      overlapped[me].store(WaitFor(started[1 - me]));
    });
  };
  std::thread other(job, 1);
  job(0);
  other.join();
  EXPECT_TRUE(overlapped[0].load());
  EXPECT_TRUE(overlapped[1].load());
}

TEST(ExecutorTest, SaturatedPoolDoesNotStallAnotherJob) {
  // The only pool thread is held by another job's blocked slot; a second
  // caller's Run(3) runs all its slots itself instead of waiting.
  Executor executor(1);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::atomic<bool> released_in_time{false};
  std::thread::id holder_caller;
  std::thread::id holder_slot_thread;
  std::thread holder([&] {
    holder_caller = std::this_thread::get_id();
    executor.Run(2, [&](std::size_t slot) {
      if (slot == 0) {
        // Busy until slot 1 started, so the pool thread claims it.
        (void)WaitFor(held);
        return;
      }
      holder_slot_thread = std::this_thread::get_id();
      held.store(true);
      released_in_time.store(WaitFor(release));
    });
  });
  EXPECT_TRUE(WaitFor(held));
  std::vector<std::thread::id> ran_on(3);
  executor.Run(3, [&](std::size_t slot) {
    ran_on[slot] = std::this_thread::get_id();
  });
  release.store(true);
  holder.join();
  EXPECT_TRUE(released_in_time.load());
  EXPECT_NE(holder_slot_thread, holder_caller);
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ExecutorTest, ConcurrentJobsKeepTheirExceptionsAndContexts) {
  // Of two overlapping jobs only the one whose slot throws rethrows, and
  // every slot of each job sees its own caller's query context.
  Executor executor(2);
  std::atomic<bool> started[2] = {false, false};
  std::atomic<bool> overlapped[2] = {false, false};
  std::uint64_t seen[2][3] = {};
  bool threw[2] = {false, false};
  const auto job = [&](int me) {
    obs::ScopedQueryContext scope(
        obs::QueryContext{static_cast<std::uint64_t>(me + 1), -1});
    try {
      executor.Run(3, [&, me](std::size_t slot) {
        seen[me][slot] = obs::CurrentQueryContext().query_id;
        if (slot == 1) {
          started[me].store(true);
          overlapped[me].store(WaitFor(started[1 - me]));
        }
        if (me == 0 && slot == 2) throw std::runtime_error("job 0 failed");
      });
    } catch (const std::runtime_error&) {
      threw[me] = true;
    }
  };
  std::thread other(job, 1);
  job(0);
  other.join();
  EXPECT_TRUE(overlapped[0].load());
  EXPECT_TRUE(overlapped[1].load());
  EXPECT_TRUE(threw[0]);
  EXPECT_FALSE(threw[1]);
  for (int me = 0; me < 2; ++me) {
    for (int slot = 0; slot < 3; ++slot) {
      EXPECT_EQ(seen[me][slot], static_cast<std::uint64_t>(me + 1))
          << "job " << me << " slot " << slot;
    }
  }
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
