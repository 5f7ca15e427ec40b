// Execution-runtime microbenches: (1) spawn-per-call vs persistent
// fork-join dispatch latency, (2) morsel claiming from the central
// MorselDispatcher under 1..N workers. The hash probe kernels are timed
// by micro_hashtable's ht_probe_* records.
//
// Hand-rolled harness (no google-benchmark): the fork-join experiment
// times the dispatch primitive itself, and every experiment emits
// machine-readable records via --json=<path> for
// scripts/bench_trajectory.sh. --quick shrinks sizes to smoke-test
// proportions (scripts/check.sh runs that in Release).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/harness.h"
#include "bench_support/json_writer.h"
#include "common/statistics.h"
#include "exec/executor.h"
#include "exec/morsel.h"
#include "exec/parallel.h"

namespace pump {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The pre-executor ParallelFor, reproduced as the spawn-per-call
/// baseline: one thread created and joined per dispatch.
void SpawnParallelFor(std::size_t workers,
                      const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(workers > 0 ? workers - 1 : 0);
  for (std::size_t w = 1; w < workers; ++w) {
    threads.emplace_back([&fn, w] { fn(w); });
  }
  fn(0);
  for (std::thread& thread : threads) thread.join();
}

/// Experiment 1: fork-join dispatch latency. The slot body is trivial, so
/// the measurement isolates the dispatch mechanism (thread create+join vs
/// condition-variable wake of parked workers).
void BenchForkJoin(bench::JsonWriter* json, bool quick) {
  // On single-core hosts DefaultWorkerCount() is 1 and both paths
  // degenerate to an inline call; always dispatch at least 2 slots so the
  // primitive under test is actually exercised.
  const std::size_t workers =
      std::max<std::size_t>(2, exec::DefaultWorkerCount());
  const int dispatches = quick ? 20 : 200;
  const int runs = quick ? 3 : bench::kPaperRuns;
  const std::string config = "workers=" + std::to_string(workers);

  bench::PrintBanner(std::cout, "micro_parallel/fork_join_dispatch",
                     "Per-dispatch latency (us) of a trivial " +
                         std::to_string(workers) +
                         "-slot fork-join: spawn-per-call threads vs the "
                         "persistent parked executor");

  std::atomic<std::uint64_t> sink{0};
  const auto body = [&sink](std::size_t w) {
    sink.fetch_add(w + 1, std::memory_order_relaxed);
  };

  const RunningStats spawn = bench::Repeat(runs, [&] {
    const auto start = Clock::now();
    for (int i = 0; i < dispatches; ++i) SpawnParallelFor(workers, body);
    return SecondsSince(start) * 1e6 / dispatches;
  });
  const RunningStats persistent = bench::Repeat(runs, [&] {
    const auto start = Clock::now();
    for (int i = 0; i < dispatches; ++i) {
      exec::Executor::Default().Run(workers, body);
    }
    return SecondsSince(start) * 1e6 / dispatches;
  });

  std::cout << "  spawn-per-call: " << bench::FormatMeanError(spawn)
            << " us/dispatch\n"
            << "  persistent:     " << bench::FormatMeanError(persistent)
            << " us/dispatch\n";
  const double speedup =
      persistent.mean() > 0.0 ? spawn.mean() / persistent.mean() : 0.0;
  std::printf("  speedup: %.1fx\n", speedup);

  const std::vector<exec::WorkerStats> stats =
      exec::Executor::Default().Stats();
  std::uint64_t tasks = 0, steals = 0, parks = 0, unparks = 0;
  for (const exec::WorkerStats& s : stats) {
    tasks += s.tasks_run;
    steals += s.steals;
    parks += s.parks;
    unparks += s.unparks;
  }
  std::cout << "  executor: " << exec::Executor::Default().dispatches()
            << " dispatches, " << tasks << " slot executions (" << steals
            << " beyond-first-slot), " << parks << " parks, " << unparks
            << " unparks across " << stats.size() << " pool threads\n";

  json->Record("fork_join_dispatch_us", "spawn " + config, spawn);
  json->Record("fork_join_dispatch_us", "persistent " + config, persistent);
  json->Record("fork_join_dispatch_speedup", config, speedup, 0.0, runs);
}

/// Experiment 2: morsel claiming from the central MorselDispatcher (one
/// shared cursor, every morsel a CAS claim) under 1..N workers. Small
/// morsels and near-trivial per-tuple work put the claim path itself on
/// the critical path.
void BenchClaiming(bench::JsonWriter* json, bool quick) {
  const std::size_t total = quick ? (1u << 18) : (1u << 22);
  const std::size_t morsel = 256;
  const std::size_t max_workers =
      std::max<std::size_t>(2, exec::DefaultWorkerCount());
  const int runs = quick ? 3 : bench::kPaperRuns;

  bench::PrintBanner(std::cout, "micro_parallel/morsel_claiming",
                     "Time (ms) to drain " + std::to_string(total) +
                         " tuples in " + std::to_string(morsel) +
                         "-tuple morsels from one global dispatcher");

  for (std::size_t workers = 1; workers <= max_workers; ++workers) {
    std::atomic<std::uint64_t> sink{0};
    const RunningStats global = bench::Repeat(runs, [&] {
      exec::MorselDispatcher dispatcher(total, morsel);
      const auto start = Clock::now();
      exec::ParallelFor(workers, [&](std::size_t) {
        std::uint64_t local = 0;
        while (auto m = dispatcher.Next()) local += m->end - m->begin;
        sink.fetch_add(local, std::memory_order_relaxed);
      });
      return SecondsSince(start) * 1e3;
    });
    const std::string config = "workers=" + std::to_string(workers);
    std::cout << "  " << config
              << "  global: " << bench::FormatMeanError(global, 3)
              << " ms\n";
    json->Record("morsel_claiming_ms", "global " + config, global);
  }
}

}  // namespace
}  // namespace pump

int main(int argc, char** argv) {
  pump::bench::JsonWriter json =
      pump::bench::JsonWriter::FromArgs(&argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  pump::BenchForkJoin(&json, quick);
  pump::BenchClaiming(&json, quick);

  if (!json.Write()) {
    std::cerr << "failed to write " << json.path() << "\n";
    return 1;
  }
  if (json.active()) {
    std::cout << "\nwrote " << json.records().size() << " records to "
              << json.path() << "\n";
  }
  return 0;
}
