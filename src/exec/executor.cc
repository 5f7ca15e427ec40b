#include "exec/executor.h"

#include <algorithm>
#include <exception>
#include <mutex>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/query_context.h"
#include "verify/mutation.h"

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
/// fall back to inline execution instead of posting a job from a slot.
thread_local bool tls_in_run = false;

class ScopedInRun {
 public:
  ScopedInRun() { tls_in_run = true; }
  ~ScopedInRun() { tls_in_run = false; }
};

/// Runs one slot, returning what it threw.
std::exception_ptr RunSlot(const std::function<void(std::size_t)>& fn,
                           std::size_t slot) {
  try {
    fn(slot);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

struct Executor::Job {
  /// The slot function pool threads call: the caller's, wrapped with its
  /// query context when one is installed.
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t slots = 0;
  /// Next unclaimed slot; slot 0 belongs to the caller.
  std::size_t next_slot = 1;
  /// Slots pool threads claimed, and how many of those finished.
  std::size_t pool_claimed = 0;
  std::size_t pool_done = 0;
  /// First exception thrown by a pool-run slot.
  std::exception_ptr error;
  /// Signalled, under mutex_, when the last pool-run slot finishes.
  verify::CondVar done;

  /// Every slot claimed and every pool-claimed slot finished: the caller
  /// may return and free the job.
  bool Finished() const {
    // Seeded bug (verify builds, armed only): the barrier releases one
    // completion early, so Run can return while a pool thread still runs
    // one of its slots — the exec.pool.jobs model catches it.
    const std::size_t early =
        PUMP_VERIFY_MUTATE("exec.pool.early_release") ? 1 : 0;
    return next_slot == slots && pool_done + early >= pool_claimed;
  }
};

Executor::Executor(std::size_t threads)
    : stats_(std::max<std::size_t>(1, threads)) {
  verify::NamedMutex(&mutex_, "exec.pool");
  const std::size_t count = std::max<std::size_t>(1, threads);
  threads_.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    threads_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

Executor::~Executor() {
  // Under PUMP_VERIFY an aborted model run may deliver RunAborted at any
  // of these sequence points (lock, notify, join); a destructor must not
  // leak it (noexcept -> std::terminate). The pool threads then unwind at
  // their own parked sequence points. In normal builds nothing here
  // throws.
  try {
    {
      std::lock_guard<verify::Mutex> lock(mutex_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (verify::Thread& thread : threads_) thread.join();
  } catch (...) {
  }
}

std::size_t Executor::ClaimLocked(Job& job) {
  const std::size_t slot = job.next_slot++;
  if (job.next_slot == job.slots) {
    open_.erase(std::find(open_.begin(), open_.end(), &job));
  }
  return slot;
}

void Executor::WorkerLoop(std::size_t thread_index) {
  ScopedInRun in_run;  // Nested ParallelFor inside a slot runs inline.
  std::unique_lock<verify::Mutex> lock(mutex_);
  WorkerStats& stats = stats_[thread_index];
  bool first_since_wake = true;
  while (!shutdown_) {
    if (open_.empty()) {
      ++idle_;
      ++stats.parks;
      Metrics().parks.Add();
      work_cv_.wait(lock, [this] { return shutdown_ || wakes_ > 0; });
      if (shutdown_) return;
      --wakes_;
      ++stats.unparks;
      Metrics().unparks.Add();
      first_since_wake = true;
      continue;
    }
    // The oldest open job first, so no job's slots wait behind newer ones.
    Job& job = *open_.front();
    const std::size_t slot = ClaimLocked(job);
    ++job.pool_claimed;
    const std::function<void(std::size_t)>& fn = *job.fn;
    lock.unlock();
    std::exception_ptr error = RunSlot(fn, slot);
    lock.lock();
    if (error && !job.error) job.error = std::move(error);
    ++stats.tasks_run;
    Metrics().tasks_run.Add();
    if (!first_since_wake) {
      ++stats.steals;
      Metrics().steals.Add();
    }
    first_since_wake = false;
    ++job.pool_done;
    // Signalled under mutex_: the caller cannot return, and free the job,
    // before this thread lets go of the lock and with it the job.
    if (job.Finished()) job.done.notify_one();
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
    // Nested dispatch from inside a slot: run sequentially. Correct (same
    // slots, same barrier), not parallel — operators dispatch at the top
    // level.
    RunInline(workers, fn);
    return;
  }
  ScopedInRun in_run;
  // Forward the dispatching thread's query context to every pool slot:
  // a slot records trace events under the query that forked the phase
  // (morsel workers, GPU batch slices, shard probes all dispatch here).
  // Only wrap when a context is installed, so untagged dispatches keep
  // the exact pre-context hot path. Slots the caller runs itself already
  // carry its context.
  const obs::QueryContext context = obs::CurrentQueryContext();
  const bool tagged = context.query_id != 0 || context.shard >= 0;
  const std::function<void(std::size_t)> wrapped =
      tagged ? std::function<void(std::size_t)>(
                   [&fn, context](std::size_t id) {
                     obs::ScopedQueryContext scope(context);
                     fn(id);
                   })
             : nullptr;
  Job job;
  job.fn = tagged ? &wrapped : &fn;
  job.slots = workers;
  std::size_t wakes = 0;
  {
    std::lock_guard<verify::Mutex> lock(mutex_);
    ++dispatches_;
    open_.push_back(&job);
    // One wake-up per open pool slot, and only for threads no other Run
    // has already woken.
    wakes = std::min(workers - 1, idle_);
    idle_ -= wakes;
    wakes_ += wakes;
  }
  Metrics().dispatches.Add();
  for (std::size_t i = 0; i < wakes; ++i) work_cv_.notify_one();

  std::exception_ptr caller_error = RunSlot(fn, 0);
  std::unique_lock<verify::Mutex> lock(mutex_);
  // Help: run the slots no pool thread claimed yet instead of waiting for
  // one to come free.
  while (job.next_slot < job.slots) {
    const std::size_t slot = ClaimLocked(job);
    lock.unlock();
    std::exception_ptr error = RunSlot(fn, slot);
    if (!caller_error) caller_error = std::move(error);
    lock.lock();
  }
  job.done.wait(lock, [&job] { return job.Finished(); });
  std::exception_ptr error = job.error ? job.error : caller_error;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

std::vector<WorkerStats> Executor::Stats() const {
  std::lock_guard<verify::Mutex> lock(mutex_);
  return stats_;
}

std::uint64_t Executor::dispatches() const {
  std::lock_guard<verify::Mutex> lock(mutex_);
  return dispatches_;
}

Executor& Executor::Default() {
  static Executor executor(DefaultWorkerCount());
  return executor;
}

}  // namespace pump::exec
