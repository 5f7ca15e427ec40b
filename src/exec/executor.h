#ifndef PUMP_EXEC_EXECUTOR_H_
#define PUMP_EXEC_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pump::exec {

/// Per-pool-thread counters, exposed for the micro benches: how many
/// logical worker slots a thread executed, how many of those were claimed
/// beyond its first slot of a dispatch (slot steals — the thread soaked up
/// work another thread never started), and how often it parked on /
/// unparked from the dispatch condition variable.
struct WorkerStats {
  std::uint64_t tasks_run = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  std::uint64_t unparks = 0;
};

/// A persistent fork-join thread pool: the execution runtime beneath every
/// morsel-parallel operator. Workers are spawned once and parked on a
/// condition variable between phases, so a build/probe phase pays a
/// wake-up instead of a thread spawn — the cheap-dispatch assumption of
/// morsel-driven scheduling (Sec. 6.1) that spawn-per-phase fork-join
/// violates by an order of magnitude (bench/micro_parallel.cc).
///
/// Run(workers, fn) is a drop-in replacement for the old spawn-per-call
/// ParallelFor: fn(0) runs on the calling thread, fn(1..workers-1) on pool
/// threads, and Run returns only when every slot finished (the join is the
/// build/probe barrier the hash tables require). When `workers - 1`
/// exceeds the pool size, pool threads execute multiple slots; slots never
/// run twice. Nested Run calls (from inside a slot) degrade to inline
/// sequential execution, and concurrent Run calls from distinct external
/// threads are serialized — the pool is one process-wide resource. A slot
/// is a worker, not a unit of work: every morsel loop hands each slot a
/// loop that claims morsels from one shared MorselDispatcher until it
/// runs dry.
class Executor {
 public:
  /// Spawns `threads` parked worker threads (at least 1).
  explicit Executor(std::size_t threads);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  /// Unparks and joins every worker.
  ~Executor();

  /// Runs `fn(worker_id)` for every id in [0, workers); id 0 on the
  /// calling thread. Blocks until all slots completed. An exception thrown
  /// by any slot is rethrown here (first one wins; the remaining slots
  /// still run to completion so the barrier stays intact).
  void Run(std::size_t workers, const std::function<void(std::size_t)>& fn);

  /// Number of pool threads.
  std::size_t thread_count() const { return threads_.size(); }

  /// Snapshot of the per-thread counters.
  std::vector<WorkerStats> Stats() const;

  /// Fork-join dispatches issued so far (Run calls that engaged the pool).
  std::uint64_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }

  /// The process-wide executor used by ParallelFor and every operator;
  /// sized to DefaultWorkerCount(), created on first use.
  static Executor& Default();

 private:
  struct alignas(64) ThreadCounters {
    std::atomic<std::uint64_t> tasks_run{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> unparks{0};
  };

  void WorkerLoop(std::size_t thread_index);
  /// Runs fn(0..workers-1) sequentially on the calling thread (nested /
  /// degenerate dispatch).
  static void RunInline(std::size_t workers,
                        const std::function<void(std::size_t)>& fn);

  // Dispatch state, all guarded by mutex_. Claiming a slot takes the
  // mutex: dispatches hand out at most `workers` coarse slots, so the
  // claim rate is tiny next to the per-morsel work inside a slot (the
  // fine-grained claiming lives in MorselDispatcher).
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t task_workers_ = 0;
  std::size_t next_worker_ = 0;
  std::size_t completed_ = 0;
  std::size_t pool_slots_ = 0;
  std::exception_ptr first_exception_;
  bool shutdown_ = false;

  /// Serializes external Run calls; never taken by pool threads.
  std::mutex run_mutex_;
  std::atomic<std::uint64_t> dispatches_{0};

  std::vector<ThreadCounters> counters_;
  std::vector<std::thread> threads_;
};

}  // namespace pump::exec

#endif  // PUMP_EXEC_EXECUTOR_H_
