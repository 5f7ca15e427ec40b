// The fault-injection subsystem and the three degradation ladders it
// drives: chunk retry in the transfer layer, hybrid-table spill under
// injected device OOM, scheduler group failover, and the engine's CPU
// fallback. The paper's robustness claims (Secs. 5-6) exercised off the
// happy path.

#include <atomic>
#include <cstring>
#include <vector>

#include "engine/executor.h"
#include "engine/ssb.h"
#include "exec/het_scheduler.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "gtest/gtest.h"
#include "hash/hybrid_table.h"
#include "hw/topology.h"
#include "memory/allocator.h"
#include "transfer/executor.h"

namespace pump {
namespace {

using memory::Buffer;
using memory::Extent;
using memory::MemoryKind;
using transfer::TransferMethod;

// ---------------------------------------------------------------------
// FaultInjector: deterministic, seeded, scoped.

std::vector<bool> Schedule(fault::FaultInjector* injector,
                           const std::string& site, int checks,
                           const std::string& scope = "") {
  std::vector<bool> fired;
  for (int i = 0; i < checks; ++i) {
    fired.push_back(!injector->Check(site, scope).ok());
  }
  return fired;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    fault::FaultInjector a(seed);
    fault::FaultInjector b(seed);
    fault::FaultSpec spec;
    spec.probability = 0.3;
    a.Arm(fault::kTransferChunk, spec);
    b.Arm(fault::kTransferChunk, spec);
    EXPECT_EQ(Schedule(&a, fault::kTransferChunk, 200),
              Schedule(&b, fault::kTransferChunk, 200))
        << "seed " << seed;
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiffer) {
  fault::FaultInjector a(1);
  fault::FaultInjector b(2);
  fault::FaultSpec spec;
  spec.probability = 0.5;
  a.Arm(fault::kTransferChunk, spec);
  b.Arm(fault::kTransferChunk, spec);
  EXPECT_NE(Schedule(&a, fault::kTransferChunk, 200),
            Schedule(&b, fault::kTransferChunk, 200));
}

TEST(FaultInjectorTest, UnarmedSitePasses) {
  fault::FaultInjector injector(3);
  EXPECT_TRUE(injector.Check(fault::kTransferChunk).ok());
  EXPECT_EQ(injector.hits(fault::kTransferChunk), 0u);
}

TEST(FaultInjectorTest, AfterHitsTargetsExactHit) {
  fault::FaultInjector injector(4);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.after_hits = 5;
  spec.max_fires = 1;
  injector.Arm(fault::kAllocDevice, spec);
  const std::vector<bool> fired =
      Schedule(&injector, fault::kAllocDevice, 10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[i], i == 5) << "hit " << i;
  }
  EXPECT_EQ(injector.fires(fault::kAllocDevice), 1u);
  EXPECT_EQ(injector.hits(fault::kAllocDevice), 10u);
}

TEST(FaultInjectorTest, MaxFiresBoundsTheBudget) {
  fault::FaultInjector injector(5);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 3;
  injector.Arm(fault::kTransferChunk, spec);
  (void)Schedule(&injector, fault::kTransferChunk, 100);
  EXPECT_EQ(injector.fires(fault::kTransferChunk), 3u);
}

TEST(FaultInjectorTest, ScopesAreIndependentStreams) {
  // The same site checked under two scopes yields per-scope schedules that
  // do not depend on interleaving: checking them alternately or
  // back-to-back gives identical per-scope sequences.
  fault::FaultSpec spec;
  spec.probability = 0.4;

  fault::FaultInjector sequential(11);
  sequential.Arm(fault::kSchedWorkerStall, spec);
  const auto seq_a =
      Schedule(&sequential, fault::kSchedWorkerStall, 50, "CPU");
  const auto seq_b =
      Schedule(&sequential, fault::kSchedWorkerStall, 50, "GPU");

  fault::FaultInjector interleaved(11);
  interleaved.Arm(fault::kSchedWorkerStall, spec);
  std::vector<bool> int_a, int_b;
  for (int i = 0; i < 50; ++i) {
    int_a.push_back(
        !interleaved.Check(fault::kSchedWorkerStall, "CPU").ok());
    int_b.push_back(
        !interleaved.Check(fault::kSchedWorkerStall, "GPU").ok());
  }
  EXPECT_EQ(seq_a, int_a);
  EXPECT_EQ(seq_b, int_b);
  EXPECT_NE(seq_a, seq_b);  // Distinct streams.
}

TEST(FaultInjectorTest, InjectedCodeAndDisarm) {
  fault::FaultInjector injector(6);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kResourceExhausted;
  injector.Arm(fault::kAllocDevice, spec);
  const Status status = injector.Check(fault::kAllocDevice);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  injector.Disarm(fault::kAllocDevice);
  EXPECT_TRUE(injector.Check(fault::kAllocDevice).ok());
}

// ---------------------------------------------------------------------
// Status taxonomy and RetryPolicy.

TEST(RetryClassTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(IsRetryable(StatusCode::kUnavailable));
  EXPECT_FALSE(IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(IsRetryable(StatusCode::kOutOfMemory));
  EXPECT_FALSE(IsRetryable(StatusCode::kInternal));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryable(StatusCode::kOk));
}

TEST(RetryClassTest, NewCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(RetryPolicyTest, BackoffIsExponentialBoundedAndDeterministic) {
  fault::RetryPolicy policy;
  policy.initial_backoff_s = 1e-6;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 4e-6;
  policy.jitter = 0.0;
  Rng rng(0);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1, &rng), 1e-6);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2, &rng), 2e-6);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3, &rng), 4e-6);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(4, &rng), 4e-6);  // Capped.
}

TEST(RetryPolicyTest, JitterStaysWithinBandAndReplays) {
  fault::RetryPolicy policy;
  policy.initial_backoff_s = 1e-3;
  policy.max_backoff_s = 1e-3;
  policy.jitter = 0.25;
  Rng rng1(9);
  Rng rng2(9);
  for (int retry = 1; retry <= 20; ++retry) {
    const double a = policy.BackoffSeconds(retry, &rng1);
    EXPECT_GE(a, 0.75e-3);
    EXPECT_LE(a, 1.25e-3);
    EXPECT_DOUBLE_EQ(a, policy.BackoffSeconds(retry, &rng2));
  }
}

TEST(RetryPolicyTest, SaltedIsDeterministicAndDecorrelated) {
  fault::RetryPolicy policy;
  policy.jitter = 0.5;
  policy.seed = 42;
  const auto backoffs = [](const fault::RetryPolicy& p) {
    Rng rng(p.seed);
    std::vector<double> out;
    for (int retry = 1; retry <= 6; ++retry) {
      out.push_back(p.BackoffSeconds(retry, &rng));
    }
    return out;
  };
  // Same salt, same stream: a fixed engine seed replays exactly.
  EXPECT_EQ(backoffs(policy.Salted(7)), backoffs(policy.Salted(7)));
  // Nearby salts (consecutive query ids) draw independent streams — the
  // lockstep-retry herd is broken even for ids 1, 2, 3...
  EXPECT_NE(backoffs(policy.Salted(1)), backoffs(policy.Salted(2)));
  EXPECT_NE(backoffs(policy.Salted(2)), backoffs(policy.Salted(3)));
  EXPECT_NE(backoffs(policy), backoffs(policy.Salted(1)));
}

TEST(RetryPolicyTest, SaltedChangesOnlyTheSeed) {
  fault::RetryPolicy policy;
  policy.max_attempts = 7;
  policy.initial_backoff_s = 3e-6;
  policy.backoff_multiplier = 1.5;
  policy.max_backoff_s = 9e-6;
  policy.jitter = 0.1;
  policy.seed = 99;
  const fault::RetryPolicy salted = policy.Salted(5);
  EXPECT_EQ(salted.max_attempts, policy.max_attempts);
  EXPECT_DOUBLE_EQ(salted.initial_backoff_s, policy.initial_backoff_s);
  EXPECT_DOUBLE_EQ(salted.backoff_multiplier, policy.backoff_multiplier);
  EXPECT_DOUBLE_EQ(salted.max_backoff_s, policy.max_backoff_s);
  EXPECT_DOUBLE_EQ(salted.jitter, policy.jitter);
  EXPECT_NE(salted.seed, policy.seed);
}

TEST(RunWithRetryTest, SharedPolicyRetriesInLockstepUnlessSalted) {
  // RunWithRetry seeds its jitter stream fresh from policy.seed each
  // invocation: two queries sharing one policy charge *identical*
  // backoff (the herd). Salting by query id decorrelates them.
  fault::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.jitter = 0.5;
  policy.seed = 42;
  const auto total_backoff = [](const fault::RetryPolicy& p) {
    fault::RetryStats stats;
    (void)fault::RunWithRetry(
        p, [] { return Status::Unavailable("always"); }, &stats);
    return stats.backoff_s;
  };
  EXPECT_DOUBLE_EQ(total_backoff(policy), total_backoff(policy));
  EXPECT_NE(total_backoff(policy.Salted(1)), total_backoff(policy.Salted(2)));
}

TEST(RunWithRetryTest, SucceedsAfterTransientFaults) {
  fault::RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  fault::RetryStats stats;
  const Status status = fault::RunWithRetry(
      policy,
      [&]() -> Status {
        ++calls;
        if (calls < 3) return Status::Unavailable("flaky");
        return Status::OK();
      },
      &stats);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_GT(stats.backoff_s, 0.0);
}

TEST(RunWithRetryTest, ExhaustsBudgetOnPersistentTransientFault) {
  fault::RetryPolicy policy;
  policy.max_attempts = 4;
  int calls = 0;
  const Status status = fault::RunWithRetry(policy, [&]() -> Status {
    ++calls;
    return Status::Unavailable("always");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
}

TEST(RunWithRetryTest, NonRetryableErrorReturnsImmediately) {
  fault::RetryPolicy policy;
  policy.max_attempts = 10;
  int calls = 0;
  const Status status = fault::RunWithRetry(policy, [&]() -> Status {
    ++calls;
    return Status::ResourceExhausted("hard");
  });
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------
// Transfer layer: chunk-granular retry.

class TransferFaultTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kBytes = 64 * 1024;
  static constexpr std::uint64_t kChunk = 4 * 1024;

  Buffer MakeSource() {
    Buffer src(kBytes, MemoryKind::kPinned, {Extent{hw::kCpu0, kBytes}});
    for (std::uint64_t i = 0; i < kBytes; ++i) {
      src.data()[i] = static_cast<std::byte>(i * 13 + 5);
    }
    return src;
  }
};

TEST_F(TransferFaultTest, TransientChunkFaultsAreRetriedToCompletion) {
  Buffer src = MakeSource();
  Buffer dst(kBytes, MemoryKind::kDevice, {Extent{hw::kGpu0, kBytes}});
  fault::FaultInjector injector(21);
  fault::FaultSpec spec;
  spec.probability = 0.3;  // Transient kUnavailable faults on many chunks.
  injector.Arm(fault::kTransferChunk, spec);
  transfer::TransferFaultOptions faults;
  faults.injector = &injector;
  faults.retry.max_attempts = 20;  // Ample budget: must always succeed.

  auto stats = transfer::ExecuteTransfer(TransferMethod::kPinnedCopy, src,
                                         &dst, hw::kGpu0, kChunk, 4096,
                                         nullptr, {}, faults);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats.value().faults_injected, 0u);
  EXPECT_EQ(stats.value().retries, stats.value().faults_injected);
  EXPECT_GT(stats.value().modelled_backoff_s, 0.0);
  EXPECT_EQ(stats.value().bytes_copied, kBytes);
  // The payload is bit-identical despite the mid-flight faults.
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), kBytes), 0);
}

TEST_F(TransferFaultTest, FaultScheduleReplaysAcrossRuns) {
  auto run = [&](std::uint64_t seed) {
    Buffer src = MakeSource();
    Buffer dst(kBytes, MemoryKind::kDevice, {Extent{hw::kGpu0, kBytes}});
    fault::FaultInjector injector(seed);
    fault::FaultSpec spec;
    spec.probability = 0.25;
    injector.Arm(fault::kTransferChunk, spec);
    transfer::TransferFaultOptions faults;
    faults.injector = &injector;
    faults.retry.max_attempts = 50;
    auto stats = transfer::ExecuteTransfer(TransferMethod::kPinnedCopy, src,
                                           &dst, hw::kGpu0, kChunk, 4096,
                                           nullptr, {}, faults);
    EXPECT_TRUE(stats.ok());
    return stats.value().faults_injected;
  };
  const std::uint64_t first = run(33);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(run(33), first);  // Identical schedule for the same seed.
}

TEST_F(TransferFaultTest, ExhaustedRetryBudgetNamesTheFailingOffset) {
  Buffer src = MakeSource();
  Buffer dst(kBytes, MemoryKind::kDevice, {Extent{hw::kGpu0, kBytes}});
  fault::FaultInjector injector(22);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.after_hits = 12;  // Chunks 0-11 pass... then every attempt fails.
  injector.Arm(fault::kTransferChunk, spec);
  transfer::TransferFaultOptions faults;
  faults.injector = &injector;
  faults.retry.max_attempts = 3;

  auto stats = transfer::ExecuteTransfer(TransferMethod::kPinnedCopy, src,
                                         &dst, hw::kGpu0, kChunk, 4096,
                                         nullptr, {}, faults);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
  // Chunk 12 starts at offset 12 * 4096.
  EXPECT_NE(stats.status().message().find(std::to_string(12 * 4096)),
            std::string::npos)
      << stats.status();
}

TEST_F(TransferFaultTest, HardFaultIsNotRetried) {
  Buffer src = MakeSource();
  Buffer dst(kBytes, MemoryKind::kDevice, {Extent{hw::kGpu0, kBytes}});
  fault::FaultInjector injector(23);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kInternal;  // Non-retryable class.
  injector.Arm(fault::kTransferChunk, spec);
  transfer::TransferFaultOptions faults;
  faults.injector = &injector;
  faults.retry.max_attempts = 10;

  auto stats = transfer::ExecuteTransfer(TransferMethod::kPinnedCopy, src,
                                         &dst, hw::kGpu0, kChunk, 4096,
                                         nullptr, {}, faults);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  EXPECT_EQ(injector.fires(fault::kTransferChunk), 1u);
}

TEST_F(TransferFaultTest, LinkDegradationIsObservedNotFatal) {
  Buffer src = MakeSource();
  Buffer dst(kBytes, MemoryKind::kDevice, {Extent{hw::kGpu0, kBytes}});
  fault::FaultInjector injector(24);
  fault::FaultSpec spec;
  spec.probability = 0.5;
  injector.Arm(fault::kLinkDegrade, spec);
  transfer::TransferFaultOptions faults;
  faults.injector = &injector;

  auto stats = transfer::ExecuteTransfer(TransferMethod::kPinnedCopy, src,
                                         &dst, hw::kGpu0, kChunk, 4096,
                                         nullptr, {}, faults);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats.value().degraded_chunks, 0u);
  EXPECT_LT(stats.value().degraded_chunks, stats.value().chunks);
  EXPECT_EQ(stats.value().retries, 0u);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), kBytes), 0);
}

// A pulled chunk meets the same checks as a Pinned Copy chunk, so a
// seeded fault schedule replays the same whichever of the two walks the
// bytes.
TEST_F(TransferFaultTest, PullInPlaceReplaysThePinnedCopySchedule) {
  // An odd size leaves a short last chunk.
  constexpr std::uint64_t kOddBytes = kBytes - 100;
  auto arm = [](fault::FaultInjector* injector) {
    fault::FaultSpec chunk;
    chunk.probability = 0.3;
    injector->Arm(fault::kTransferChunk, chunk);
    fault::FaultSpec degrade;
    degrade.probability = 0.5;
    injector->Arm(fault::kLinkDegrade, degrade);
  };
  fault::FaultInjector copy_injector(26);
  arm(&copy_injector);
  transfer::TransferFaultOptions copy_faults;
  copy_faults.injector = &copy_injector;
  copy_faults.retry.max_attempts = 20;
  Buffer src(kOddBytes, MemoryKind::kPinned, {Extent{hw::kCpu0, kOddBytes}});
  Buffer dst(kOddBytes, MemoryKind::kDevice, {Extent{hw::kGpu0, kOddBytes}});
  auto copied = transfer::ExecuteTransfer(TransferMethod::kPinnedCopy, src,
                                          &dst, hw::kGpu0, kChunk, 4096,
                                          nullptr, {}, copy_faults);
  ASSERT_TRUE(copied.ok()) << copied.status();

  fault::FaultInjector pull_injector(26);
  arm(&pull_injector);
  transfer::TransferFaultOptions pull_faults = copy_faults;
  pull_faults.injector = &pull_injector;
  auto pulled =
      transfer::PullInPlace(kOddBytes, hw::kGpu0, kChunk, pull_faults);
  ASSERT_TRUE(pulled.ok()) << pulled.status();

  EXPECT_EQ(pulled.value().chunks, copied.value().chunks);
  EXPECT_EQ(pulled.value().chunks, (kOddBytes + kChunk - 1) / kChunk);
  EXPECT_GT(pulled.value().faults_injected, 0u);
  EXPECT_EQ(pulled.value().faults_injected, copied.value().faults_injected);
  EXPECT_EQ(pulled.value().retries, copied.value().retries);
  EXPECT_GT(pulled.value().degraded_chunks, 0u);
  EXPECT_EQ(pulled.value().degraded_chunks, copied.value().degraded_chunks);
  EXPECT_EQ(pulled.value().modelled_backoff_s,
            copied.value().modelled_backoff_s);
  // Nothing moves: the consumer reads the host bytes in place.
  EXPECT_TRUE(pulled.value().direct_access);
  EXPECT_EQ(pulled.value().bytes_copied, 0u);

  auto zero_chunk = transfer::PullInPlace(kOddBytes, hw::kGpu0,
                                          /*chunk_bytes=*/0, pull_faults);
  ASSERT_FALSE(zero_chunk.ok());
  EXPECT_EQ(zero_chunk.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TransferFaultTest, UmMigrateFaultsAreRetriedToo) {
  Buffer src(kBytes, MemoryKind::kUnified, {Extent{hw::kCpu0, kBytes}});
  memory::UnifiedRegion region(kBytes, 4096, hw::kCpu0);
  fault::FaultInjector injector(25);
  fault::FaultSpec spec;
  spec.probability = 0.3;
  injector.Arm(fault::kUmMigrate, spec);
  transfer::TransferFaultOptions faults;
  faults.injector = &injector;
  faults.retry.max_attempts = 20;

  auto stats = transfer::ExecuteTransfer(TransferMethod::kUmMigration, src,
                                         nullptr, hw::kGpu0, kChunk, 4096,
                                         &region, {}, faults);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats.value().faults_injected, 0u);
  // Every page still migrated exactly once.
  EXPECT_EQ(stats.value().pages_migrated, kBytes / 4096);
  EXPECT_EQ(region.PagesOn(hw::kGpu0), kBytes / 4096);
}

// ---------------------------------------------------------------------
// Hybrid hash table: spill under injected device-allocation failure.

TEST(HybridSpillTest, InjectedDeviceOomSpillsRemainderToCpu) {
  hw::Topology topo = hw::IbmAc922();
  memory::MemoryManager manager(&topo, /*materialize=*/false);
  fault::FaultInjector injector(31);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.after_hits = 8;  // Half the 16 allocation slices land on the GPU.
  spec.code = StatusCode::kResourceExhausted;
  injector.Arm(fault::kAllocDevice, spec);

  const std::size_t capacity = 1 << 20;  // Fits GPU memory comfortably.
  auto table = hash::HybridHashTable<std::int64_t, std::int64_t>::Create(
      &manager, hw::kGpu0, capacity, /*gpu_reserve_bytes=*/0, &injector);
  ASSERT_TRUE(table.ok()) << table.status();
  // The achieved GPU fraction reflects the slices placed before the fault.
  EXPECT_NEAR(table.value().gpu_fraction(), 0.5, 0.01);
  EXPECT_GT(manager.used_bytes(hw::kCpu0), 0u);
  // Accounting is consistent: GPU + CPU extents cover the table.
  std::uint64_t total = 0;
  for (const Extent& extent : table.value().buffer().extents()) {
    total += extent.bytes;
  }
  EXPECT_EQ(total, table.value().buffer().size());
}

TEST(HybridSpillTest, ImmediateDeviceOomYieldsCpuOnlyTable) {
  hw::Topology topo = hw::IbmAc922();
  memory::MemoryManager manager(&topo, /*materialize=*/false);
  fault::FaultInjector injector(32);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kResourceExhausted;
  injector.Arm(fault::kAllocDevice, spec);

  auto table = hash::HybridHashTable<std::int64_t, std::int64_t>::Create(
      &manager, hw::kGpu0, 1 << 18, 0, &injector);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_DOUBLE_EQ(table.value().gpu_fraction(), 0.0);
  EXPECT_EQ(manager.used_bytes(hw::kGpu0), 0u);
}

TEST(HybridSpillTest, SpillScheduleReplaysWithSeed) {
  auto gpu_fraction = [&](std::uint64_t seed) {
    hw::Topology topo = hw::IbmAc922();
    memory::MemoryManager manager(&topo, /*materialize=*/false);
    fault::FaultInjector injector(seed);
    fault::FaultSpec spec;
    spec.probability = 0.2;
    spec.code = StatusCode::kResourceExhausted;
    injector.Arm(fault::kAllocDevice, spec);
    auto table = hash::HybridHashTable<std::int64_t, std::int64_t>::Create(
        &manager, hw::kGpu0, 1 << 20, 0, &injector);
    EXPECT_TRUE(table.ok());
    return table.value().gpu_fraction();
  };
  EXPECT_DOUBLE_EQ(gpu_fraction(77), gpu_fraction(77));
}

// ---------------------------------------------------------------------
// Heterogeneous scheduler: group failover.

TEST(SchedulerFailoverTest, DeadGroupsMorselsFailOverExactlyOnce) {
  constexpr std::size_t kTotal = 50'000;
  std::vector<std::atomic<int>> touched(kTotal);
  auto work = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      touched[i].fetch_add(1, std::memory_order_relaxed);
    }
  };
  fault::FaultInjector injector(41);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.after_hits = 3;  // The GPU group dies on its 4th dispatch.
  spec.max_fires = 1;
  injector.Arm(fault::kSchedWorkerStall, spec);

  std::vector<exec::ProcessorGroup> groups;
  groups.push_back({"CPU", 4, 1, work});
  groups.push_back({"GPU", 1, 8, work});
  const auto stats =
      exec::RunHeterogeneous(kTotal, 100, std::move(groups), &injector);

  // Both groups checked the same failpoint but only one stream fired:
  // whichever group drew the fault is dead, the other survived.
  ASSERT_EQ(stats.size(), 2u);
  int failed_groups = 0;
  std::size_t processed = 0, failover = 0;
  for (const auto& group : stats) {
    failed_groups += group.failed ? 1 : 0;
    processed += group.tuples;
    failover += group.failover_tuples;
  }
  EXPECT_EQ(failed_groups, 1);
  EXPECT_EQ(processed, kTotal);
  EXPECT_GT(failover, 0u);  // The orphaned batch was adopted.
  // Exactly-once coverage despite the mid-run death.
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "tuple " << i;
  }
}

TEST(SchedulerFailoverTest, AllGroupsDeadLeavesTuplesUnprocessed) {
  constexpr std::size_t kTotal = 10'000;
  std::atomic<std::size_t> seen{0};
  auto work = [&](std::size_t begin, std::size_t end) {
    seen.fetch_add(end - begin, std::memory_order_relaxed);
  };
  fault::FaultInjector injector(42);
  fault::FaultSpec spec;
  spec.probability = 1.0;  // Every dispatch of every group stalls.
  injector.Arm(fault::kSchedWorkerStall, spec);

  std::vector<exec::ProcessorGroup> groups;
  groups.push_back({"CPU", 2, 1, work});
  groups.push_back({"GPU", 1, 4, work});
  const auto stats =
      exec::RunHeterogeneous(kTotal, 100, std::move(groups), &injector);

  std::size_t processed = 0;
  for (const auto& group : stats) {
    EXPECT_TRUE(group.failed) << group.name;
    processed += group.tuples;
  }
  EXPECT_EQ(processed, seen.load());
  EXPECT_LT(processed, kTotal);  // Detectable by the caller.
}

TEST(SchedulerFailoverTest, NoInjectorMatchesLegacyBehaviour) {
  constexpr std::size_t kTotal = 20'000;
  std::vector<std::atomic<int>> touched(kTotal);
  auto work = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      touched[i].fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<exec::ProcessorGroup> groups;
  groups.push_back({"CPU", 3, 1, work});
  groups.push_back({"GPU", 1, 8, work});
  const auto stats = exec::RunHeterogeneous(kTotal, 64, std::move(groups));
  std::size_t processed = 0;
  for (const auto& group : stats) {
    EXPECT_FALSE(group.failed);
    EXPECT_EQ(group.failover_tuples, 0u);
    processed += group.tuples;
  }
  EXPECT_EQ(processed, kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) ASSERT_EQ(touched[i].load(), 1);
}

// ---------------------------------------------------------------------
// Engine: the full degradation ladder, verified against the CPU plan.

class EngineDegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = engine::SsbDatabase::Generate(20'000, 13);
    query_ = engine::SsbQ1(db_);
    reference_ = engine::Executor::Run(query_, 2).value();
  }

  engine::SsbDatabase db_;
  engine::Query query_;
  engine::QueryResult reference_;
};

TEST_F(EngineDegradationTest, FaultFreeGpuPlanMatchesCpuPlan) {
  engine::ExecOptions options;
  options.workers = 2;
  options.morsel_tuples = 1'000;
  auto report = engine::Executor::RunResilient(query_, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().used_gpu);
  EXPECT_FALSE(report.value().degraded);
  EXPECT_EQ(report.value().result, reference_);
  EXPECT_DOUBLE_EQ(report.value().hybrid_gpu_fraction, 1.0);
}

TEST_F(EngineDegradationTest, TransientTransferFaultsAreInvisible) {
  engine::ExecOptions options;
  options.workers = 2;
  options.morsel_tuples = 1'000;
  options.chunk_bytes = 8 * 1024;
  fault::FaultInjector injector(51);
  fault::FaultSpec spec;
  spec.probability = 0.2;
  injector.Arm(fault::kTransferChunk, spec);
  options.injector = &injector;
  options.retry.max_attempts = 30;

  auto report = engine::Executor::RunResilient(query_, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().used_gpu);
  EXPECT_GT(report.value().transfer_retries, 0u);
  // Bit-identical to the fault-free run.
  EXPECT_EQ(report.value().result, reference_);
}

TEST_F(EngineDegradationTest, InjectedGpuOomCompletesViaSpill) {
  engine::ExecOptions options;
  options.workers = 2;
  options.morsel_tuples = 1'000;
  fault::FaultInjector injector(52);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kResourceExhausted;
  injector.Arm(fault::kAllocDevice, spec);
  options.injector = &injector;

  auto report = engine::Executor::RunResilient(query_, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().used_gpu);  // Spill, not fallback.
  EXPECT_TRUE(report.value().degraded);
  EXPECT_LT(report.value().hybrid_gpu_fraction, 1.0);
  EXPECT_NE(report.value().degradation_reason.find("spilled"),
            std::string::npos);
  EXPECT_EQ(report.value().result, reference_);
}

TEST_F(EngineDegradationTest, GroupStallFailsOverWithinTheGpuPlan) {
  engine::ExecOptions options;
  options.workers = 2;
  options.morsel_tuples = 500;  // Many dispatches: failover has work left.
  fault::FaultInjector injector(53);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.after_hits = 2;
  spec.max_fires = 1;
  injector.Arm(fault::kSchedWorkerStall, spec);
  options.injector = &injector;

  auto report = engine::Executor::RunResilient(query_, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().used_gpu);
  EXPECT_TRUE(report.value().degraded);
  EXPECT_NE(report.value().degradation_reason.find("stalled"),
            std::string::npos);
  EXPECT_EQ(report.value().result, reference_);
}

TEST_F(EngineDegradationTest, UnrecoverableTransferFaultFallsBackToCpu) {
  engine::ExecOptions options;
  options.workers = 2;
  fault::FaultInjector injector(54);
  fault::FaultSpec spec;
  spec.probability = 1.0;  // Every chunk attempt fails: budget exhausts.
  injector.Arm(fault::kTransferChunk, spec);
  options.injector = &injector;
  options.retry.max_attempts = 3;

  auto report = engine::Executor::RunResilient(query_, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report.value().used_gpu);
  EXPECT_TRUE(report.value().degraded);
  EXPECT_NE(report.value().degradation_reason.find("fell back to CPU"),
            std::string::npos);
  // The fallback answer is the CPU answer, verbatim.
  EXPECT_EQ(report.value().result, reference_);
}

TEST_F(EngineDegradationTest, AllGroupsDeadFallsBackToCpu) {
  engine::ExecOptions options;
  options.workers = 1;
  options.morsel_tuples = 1'000;
  fault::FaultInjector injector(55);
  fault::FaultSpec spec;
  spec.probability = 1.0;  // Both scheduler groups stall immediately.
  injector.Arm(fault::kSchedWorkerStall, spec);
  options.injector = &injector;

  auto report = engine::Executor::RunResilient(query_, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report.value().used_gpu);
  EXPECT_TRUE(report.value().degraded);
  EXPECT_EQ(report.value().result, reference_);
}

TEST_F(EngineDegradationTest, ValidationErrorsAreNotMaskedByFallback) {
  engine::Query bad = query_;
  bad.measure_column = "does_not_exist";
  engine::ExecOptions options;
  auto report = engine::Executor::RunResilient(bad, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace pump
