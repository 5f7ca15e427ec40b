#ifndef PUMP_EXEC_EXECUTOR_H_
#define PUMP_EXEC_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "verify/sync.h"

namespace pump::exec {

/// Per-pool-thread counters, exposed for the micro benches: how many
/// logical worker slots a thread executed, how many of those it claimed
/// beyond its first since it last woke (slot steals — the thread kept
/// claiming open slots, of any job, instead of parking), and how often it
/// parked on / was woken from the work condition variable.
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
/// Run(workers, fn) posts a job of `workers` slots: fn(0) runs on the
/// calling thread, fn(1..workers-1) on whichever threads claim them, and
/// Run returns only when every slot of its job finished (the join is the
/// build/probe barrier the hash tables require). The pool serves several
/// jobs at once: concurrent Run calls from distinct threads (the serving
/// engine's session threads) each post their own job, idle pool threads
/// claim the open slots of the oldest job first, and each caller, after
/// slot 0, claims its own job's remaining slots itself, so a saturated
/// pool delays a job but never stalls it. Slots never run twice. Nested
/// Run calls (from inside a slot) degrade to inline sequential execution.
/// A slot is a worker, not a unit of work: every morsel loop hands each
/// slot a loop that claims morsels from one shared MorselDispatcher until
/// it runs dry.
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
  /// by any slot of this job is rethrown here (first one wins; the
  /// remaining slots still run to completion so the barrier stays intact).
  void Run(std::size_t workers, const std::function<void(std::size_t)>& fn);

  /// Number of pool threads.
  std::size_t thread_count() const { return threads_.size(); }

  /// Snapshot of the per-thread counters.
  std::vector<WorkerStats> Stats() const;

  /// Fork-join dispatches issued so far (Run calls that engaged the pool).
  std::uint64_t dispatches() const;

  /// The process-wide executor used by ParallelFor and every operator;
  /// sized to DefaultWorkerCount(), created on first use.
  static Executor& Default();

 private:
  /// One Run call's slots; lives on the calling thread's stack.
  struct Job;

  void WorkerLoop(std::size_t thread_index);
  /// Claims `job`'s next slot; the job leaves the open FIFO with its last
  /// one. Requires mutex_.
  std::size_t ClaimLocked(Job& job);
  /// Runs fn(0..workers-1) sequentially on the calling thread (nested /
  /// degenerate dispatch).
  static void RunInline(std::size_t workers,
                        const std::function<void(std::size_t)>& fn);

  // Pool state, all guarded by mutex_. Claiming a slot takes the mutex:
  // jobs hand out at most `workers` coarse slots, so the claim rate is
  // tiny next to the per-morsel work inside a slot (the fine-grained
  // claiming lives in MorselDispatcher). verify:: primitives are the
  // std:: ones in normal builds; under PUMP_VERIFY the model checker
  // explores the claim/complete/wake protocol (exec.pool.jobs).
  mutable verify::Mutex mutex_;
  verify::CondVar work_cv_;
  /// Jobs with unclaimed slots, oldest first.
  std::vector<Job*> open_;
  /// Parked threads that no Run has woken yet, and wake-ups issued but
  /// not yet taken: a Run wakes at most one thread per open pool slot.
  std::size_t idle_ = 0;
  std::size_t wakes_ = 0;
  bool shutdown_ = false;
  std::uint64_t dispatches_ = 0;
  std::vector<WorkerStats> stats_;

  std::vector<verify::Thread> threads_;
};

}  // namespace pump::exec

#endif  // PUMP_EXEC_EXECUTOR_H_
