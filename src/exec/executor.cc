#include "exec/executor.h"

#include <algorithm>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/query_context.h"

namespace pump::exec {

namespace {

/// Process-wide mirrors of the per-executor counters: the registry view
/// aggregates every Executor instance (tests construct private pools),
/// while Executor::Stats() stays per-instance.
struct ExecMetrics {
  obs::Counter& dispatches;
  obs::Counter& tasks_run;
  obs::Counter& steals;
  obs::Counter& parks;
  obs::Counter& unparks;
};

ExecMetrics& Metrics() {
  static ExecMetrics metrics{
      obs::MetricsRegistry::Instance().GetCounter("exec.dispatches"),
      obs::MetricsRegistry::Instance().GetCounter("exec.tasks_run"),
      obs::MetricsRegistry::Instance().GetCounter("exec.steals"),
      obs::MetricsRegistry::Instance().GetCounter("exec.parks"),
      obs::MetricsRegistry::Instance().GetCounter("exec.unparks")};
  return metrics;
}

/// True on any thread currently inside a Run slot (pool thread or the
/// calling thread of an active dispatch). Nested Run calls observe it and
/// fall back to inline execution instead of deadlocking on the pool.
thread_local bool tls_in_run = false;

class ScopedInRun {
 public:
  ScopedInRun() { tls_in_run = true; }
  ~ScopedInRun() { tls_in_run = false; }
};

}  // namespace

Executor::Executor(std::size_t threads)
    : counters_(std::max<std::size_t>(1, threads)) {
  const std::size_t count = std::max<std::size_t>(1, threads);
  threads_.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    threads_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void Executor::WorkerLoop(std::size_t thread_index) {
  ScopedInRun in_run;  // Nested ParallelFor inside a slot runs inline.
  ThreadCounters& counters = counters_[thread_index];
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    while (!shutdown_ && generation_ == seen_generation) {
      counters.parks.fetch_add(1, std::memory_order_relaxed);
      Metrics().parks.Add();
      work_cv_.wait(lock);
    }
    if (shutdown_) return;
    seen_generation = generation_;
    counters.unparks.fetch_add(1, std::memory_order_relaxed);
    Metrics().unparks.Add();
    bool first_slot = true;
    while (next_worker_ < task_workers_) {
      const std::size_t id = next_worker_++;
      const std::function<void(std::size_t)>* task = task_;
      lock.unlock();
      try {
        (*task)(id);
      } catch (...) {
        std::exception_ptr error = std::current_exception();
        std::lock_guard<std::mutex> error_lock(mutex_);
        if (!first_exception_) first_exception_ = error;
      }
      lock.lock();
      counters.tasks_run.fetch_add(1, std::memory_order_relaxed);
      Metrics().tasks_run.Add();
      if (!first_slot) {
        counters.steals.fetch_add(1, std::memory_order_relaxed);
        Metrics().steals.Add();
      }
      first_slot = false;
      if (++completed_ == pool_slots_) done_cv_.notify_all();
    }
  }
}

void Executor::RunInline(std::size_t workers,
                         const std::function<void(std::size_t)>& fn) {
  for (std::size_t id = 0; id < workers; ++id) fn(id);
}

void Executor::Run(std::size_t workers,
                   const std::function<void(std::size_t)>& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  if (tls_in_run) {
    // Nested dispatch from inside a slot: the pool is busy running us, so
    // execute sequentially. Correct (same slots, same barrier), not
    // parallel — operators dispatch at the top level.
    RunInline(workers, fn);
    return;
  }
  ScopedInRun in_run;
  // Forward the dispatching thread's query context to every pool slot:
  // a slot records trace events under the query that forked the phase
  // (morsel workers, GPU batch slices, shard probes all dispatch here).
  // Only wrap when a context is installed, so untagged dispatches keep
  // the exact pre-context hot path.
  const obs::QueryContext context = obs::CurrentQueryContext();
  const bool tagged = context.query_id != 0 || context.shard >= 0;
  const std::function<void(std::size_t)> wrapped =
      tagged ? std::function<void(std::size_t)>(
                   [&fn, context](std::size_t id) {
                     obs::ScopedQueryContext scope(context);
                     fn(id);
                   })
             : nullptr;
  std::lock_guard<std::mutex> run_lock(run_mutex_);
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  Metrics().dispatches.Add();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = tagged ? &wrapped : &fn;
    task_workers_ = workers;
    next_worker_ = 1;  // Slot 0 belongs to the calling thread.
    completed_ = 0;
    pool_slots_ = workers - 1;
    first_exception_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();

  std::exception_ptr caller_exception;
  try {
    fn(0);
  } catch (...) {
    caller_exception = std::current_exception();
  }

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return completed_ == pool_slots_; });
    task_ = nullptr;
    task_workers_ = 0;
    error = first_exception_ ? first_exception_ : caller_exception;
    first_exception_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

std::vector<WorkerStats> Executor::Stats() const {
  std::vector<WorkerStats> stats(counters_.size());
  for (std::size_t t = 0; t < counters_.size(); ++t) {
    stats[t].tasks_run = counters_[t].tasks_run.load(std::memory_order_relaxed);
    stats[t].steals = counters_[t].steals.load(std::memory_order_relaxed);
    stats[t].parks = counters_[t].parks.load(std::memory_order_relaxed);
    stats[t].unparks = counters_[t].unparks.load(std::memory_order_relaxed);
  }
  return stats;
}

Executor& Executor::Default() {
  static Executor executor(DefaultWorkerCount());
  return executor;
}

}  // namespace pump::exec
