// The concurrency verifier: schedule-string plumbing and the lock-order
// graph (all builds), the BuildCache failure-propagation and eviction
// race regressions (real threads, all builds), and — when compiled with
// -DPUMP_VERIFY=ON — the explorer itself: deadlock detection, replay
// determinism, and sleep-set pruning on toy models.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cancel.h"
#include "engine/table.h"
#include "gtest/gtest.h"
#include "plan/build_cache.h"
#include "plan/operators.h"
#include "verify/explore.h"
#include "verify/lock_order.h"
#include "verify/sync.h"

namespace pump {
namespace {

// ---------------------------------------------------------------------
// Schedule strings (all builds).

TEST(ScheduleStringTest, RoundTrips) {
  const std::vector<int> choices = {0, 1, 1, 0, 2};
  const std::string text = verify::ScheduleToString(choices);
  EXPECT_EQ(text, "0.1.1.0.2");
  std::vector<int> parsed;
  ASSERT_TRUE(verify::ParseSchedule(text, &parsed));
  EXPECT_EQ(parsed, choices);
}

TEST(ScheduleStringTest, EmptyAndInvalid) {
  std::vector<int> parsed;
  EXPECT_TRUE(verify::ParseSchedule("", &parsed));
  EXPECT_TRUE(parsed.empty());
  EXPECT_TRUE(verify::ParseSchedule("7", &parsed));
  EXPECT_EQ(parsed, std::vector<int>{7});
  EXPECT_FALSE(verify::ParseSchedule("0..1", &parsed));
  EXPECT_FALSE(verify::ParseSchedule("0.x", &parsed));
  EXPECT_FALSE(verify::ParseSchedule(".0", &parsed));
}

// ---------------------------------------------------------------------
// Lock-order graph (all builds).

TEST(LockOrderGraphTest, AcyclicChain) {
  verify::LockOrderGraph graph;
  graph.AddEdge("a", "b");
  graph.AddEdge("b", "c");
  graph.AddEdge("a", "c");
  EXPECT_FALSE(graph.HasCycle(nullptr));
  EXPECT_EQ(graph.node_count(), 3u);
  EXPECT_EQ(graph.edge_count(), 3u);
}

TEST(LockOrderGraphTest, DetectsCycleWithoutDeadlock) {
  // The whole point of class-level lock ordering: a->b in one place and
  // b->a in another is flagged even though no schedule deadlocked.
  verify::LockOrderGraph graph;
  graph.AddEdge("a", "b");
  graph.AddEdge("b", "a");
  std::vector<std::string> cycle;
  EXPECT_TRUE(graph.HasCycle(&cycle));
  EXPECT_GE(cycle.size(), 2u);
}

TEST(LockOrderGraphTest, DedupesEdgesAndSerializes) {
  verify::LockOrderGraph graph;
  graph.AddClass("solo");
  graph.AddEdge("a", "b");
  graph.AddEdge("a", "b");
  EXPECT_EQ(graph.edge_count(), 1u);
  const std::string json = graph.ToJson();
  EXPECT_NE(json.find("\"acyclic\":true"), std::string::npos);
  EXPECT_NE(json.find("\"solo\""), std::string::npos);
  EXPECT_NE(json.find("{\"from\":\"a\",\"to\":\"b\"}"), std::string::npos);
}

// ---------------------------------------------------------------------
// Shim transparency: normal builds must alias the std:: primitives
// exactly (the ≤1% overhead bound holds by construction).

#if !defined(PUMP_VERIFY) || !PUMP_VERIFY
static_assert(std::is_same_v<verify::Mutex, std::mutex>);
static_assert(std::is_same_v<verify::CondVar, std::condition_variable>);
static_assert(std::is_same_v<verify::Atomic<int>, std::atomic<int>>);
static_assert(std::is_same_v<verify::Thread, std::thread>);
#endif

TEST(VerifyShimTest, InvariantMacroCompilesOut) {
  // In normal builds the macro must evaluate nothing at runtime (the
  // condition is only sizeof'd) yet still typecheck it.
  int evaluations = 0;
  auto probe = [&] {
    ++evaluations;
    return true;
  };
#if !defined(PUMP_VERIFY) || !PUMP_VERIFY
  VERIFY_INVARIANT(probe(), "never evaluated in normal builds");
  EXPECT_EQ(evaluations, 0);
#else
  VERIFY_INVARIANT(probe(), "evaluated under the verifier");
  EXPECT_EQ(evaluations, 1);
#endif
}

// ---------------------------------------------------------------------
// BuildCache failure propagation and eviction races (real threads; runs
// in every build — the model checker covers the same protocols
// schedule-exhaustively under PUMP_VERIFY).

plan::BuildPipeline PipelineFor(const engine::Table& dim) {
  plan::BuildPipeline build;
  build.dimension = &dim;
  build.key_column = "pk";
  build.table_kind = plan::HashTableKind::kLinearProbing;
  build.keys.rows = dim.rows();
  build.table_bytes = 64;
  return build;
}

TEST(BuildCacheFailureTest, FailurePropagatesToEveryConcurrentWaiter) {
  engine::Table poison;
  ASSERT_TRUE(poison.AddColumn("pk", {0, 1, 1}).ok());
  const plan::BuildPipeline build = PipelineFor(poison);

  plan::BuildCache cache(1 << 20);
  constexpr int kThreads = 8;
  std::vector<Status> statuses(kThreads, Status::OK());
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        statuses[t] = cache.GetOrBuild(build).status();
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const Status& status : statuses) {
    // Every requester gets the builder's real error — never OK, never
    // the in-flight placeholder.
    EXPECT_EQ(status.code(), StatusCode::kAlreadyExists) << status;
  }
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(BuildCacheFailureTest, FailedBuildClearsSlotForRetry) {
  engine::Table poison;
  ASSERT_TRUE(poison.AddColumn("pk", {0, 0}).ok());
  plan::BuildCache cache(1 << 20);
  const plan::BuildPipeline build = PipelineFor(poison);
  EXPECT_FALSE(cache.GetOrBuild(build).ok());
  // The retry is a fresh single-flight build, not a poisoned hit.
  EXPECT_EQ(cache.GetOrBuild(build).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(BuildCacheEvictionTest, ConcurrentInsertsStayWithinCapacity) {
  // Many distinct keys racing into a cache with room for exactly one
  // entry: every build succeeds, handles stay valid, and residency never
  // exceeds capacity whatever the eviction interleaving.
  constexpr int kTables = 6;
  std::vector<std::unique_ptr<engine::Table>> dims;
  for (int i = 0; i < kTables; ++i) {
    auto dim = std::make_unique<engine::Table>();
    ASSERT_TRUE(
        dim->AddColumn("pk", {i * 10, i * 10 + 1, i * 10 + 2}).ok());
    dims.push_back(std::move(dim));
  }
  plan::BuildCache cache(64);
  std::vector<Result<std::shared_ptr<const plan::DimensionTable>>> results(
      kTables, Status::Internal("unset"));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kTables; ++t) {
      threads.emplace_back([&, t] {
        results[t] = cache.GetOrBuild(PipelineFor(*dims[t]));
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kTables; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status();
    // Evicted or resident, the handle keeps the table alive and usable.
    const std::int64_t key = t * 10;
    std::int64_t value = 0;
    bool found = false;
    EXPECT_EQ(results[t].value()->ProbeBatch(&key, 1, &value, &found), 1u);
  }
  const plan::BuildCache::Stats stats = cache.stats();
  EXPECT_LE(stats.resident_bytes, cache.capacity_bytes());
  EXPECT_LE(stats.entries, 1u);
  EXPECT_GE(stats.evictions, static_cast<std::uint64_t>(kTables) - 1);
}

// ---------------------------------------------------------------------
// Explorer behaviour on toy models (verify builds only).

#if defined(PUMP_VERIFY) && PUMP_VERIFY

TEST(ExplorerTest, FindsAbBaDeadlockAndReplaysIt) {
  auto body = [] {
    verify::Mutex a;
    verify::Mutex b;
    verify::NamedMutex(&a, "toy.a");
    verify::NamedMutex(&b, "toy.b");
    verify::Thread other([&] {
      std::lock_guard<verify::Mutex> lock_b(b);
      std::lock_guard<verify::Mutex> lock_a(a);
    });
    {
      std::lock_guard<verify::Mutex> lock_a(a);
      std::lock_guard<verify::Mutex> lock_b(b);
    }
    other.join();
  };
  verify::ExploreOptions options;
  options.max_schedules = 500;
  verify::LockOrderGraph lock_order;
  verify::ExploreResult result =
      verify::Explore(body, options, &lock_order);
  EXPECT_TRUE(result.failed);
  EXPECT_TRUE(result.deadlocked);
  ASSERT_FALSE(result.failing_schedule.empty());

  // The lock-order graph names the inversion even in schedules that did
  // not deadlock.
  std::vector<std::string> cycle;
  EXPECT_TRUE(lock_order.HasCycle(&cycle));

  // Deterministic replay: the printed schedule reproduces the deadlock.
  verify::RunOutcome replayed =
      verify::Replay(body, result.failing_schedule);
  EXPECT_TRUE(replayed.failed);
  EXPECT_TRUE(replayed.deadlocked);
  EXPECT_EQ(verify::ScheduleToString(replayed.choices),
            result.failing_schedule);
}

TEST(ExplorerTest, ExhaustsTinyTreeAndPrunesIndependentOps) {
  // Two threads touching DIFFERENT atomics commute everywhere: sleep
  // sets must prune at least one of the interleavings.
  auto body = [] {
    verify::Atomic<int> x{0};
    verify::Atomic<int> y{0};
    verify::Thread other([&] { y.store(1); });
    x.store(1);
    other.join();
  };
  verify::ExploreOptions options;
  options.max_schedules = 10'000;
  verify::ExploreResult result = verify::Explore(body, options, nullptr);
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GE(result.schedules_explored, 1u);
  EXPECT_GE(result.schedules_pruned, 1u);
}

TEST(ExplorerTest, DistinguishesDependentOps) {
  // Two writers to the SAME atomic do not commute: both orders must be
  // executed, and the final value depends on the schedule.
  auto body = [] {
    verify::Atomic<int> x{0};
    verify::Thread other([&] { x.store(1); });
    x.store(2);
    other.join();
    const int last = x.load();
    VERIFY_INVARIANT(last == 1 || last == 2, "lost store");
  };
  verify::ExploreOptions options;
  options.max_schedules = 10'000;
  verify::ExploreResult result = verify::Explore(body, options, nullptr);
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GE(result.schedules_explored, 2u);
}

TEST(ExplorerTest, CancelTokenModelExploresBothLatchOrders) {
  auto body = [] {
    CancelToken token;
    verify::Thread other([&] { token.Cancel(); });
    (void)token.Cancelled();
    other.join();
    VERIFY_INVARIANT(token.Cancelled(), "cancel lost");
  };
  verify::ExploreOptions options;
  options.max_schedules = 5'000;
  verify::ExploreResult result = verify::Explore(body, options, nullptr);
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_GE(result.schedules_explored, 2u);
}

#endif  // PUMP_VERIFY

}  // namespace
}  // namespace pump
