#ifndef PUMP_SERVER_QUERY_ENGINE_H_
#define PUMP_SERVER_QUERY_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/happens_before.h"
#include "common/status.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "obs/flight_recorder.h"
#include "obs/window.h"
#include "plan/build_cache.h"
#include "plan/compiler.h"
#include "plan/plan.h"
#include "verify/sync.h"

namespace pump::server {

/// Lifecycle of a submitted query: admitted into the bounded queue,
/// picked up by a scheduler thread, resolved. (A shed query never gets a
/// handle — Submit returns kResourceExhausted instead.)
enum class QueryState : std::uint8_t { kQueued, kRunning, kDone };

const char* ToString(QueryState state);

/// The client's view of one admitted query. Handles are shared between
/// the caller and the engine's scheduler; they outlive either side.
/// Every admitted handle resolves — to a result, kCancelled,
/// kDeadlineExceeded, or a contained failure — even across engine
/// shutdown, so a waiting client can never hang forever.
class QueryHandle {
 public:
  QueryHandle(const QueryHandle&) = delete;
  QueryHandle& operator=(const QueryHandle&) = delete;

  std::uint64_t id() const { return id_; }

  /// Requests cooperative cancellation. Idempotent; a query that already
  /// finished (or whose deadline fired first) is unaffected. A running
  /// query stops claiming work within one morsel per worker.
  void Cancel() { token_.Cancel(); }

  QueryState state() const;
  bool Done() const { return state() == QueryState::kDone; }

  /// Blocks until the query resolves and returns the terminal result.
  /// The reference stays valid for the handle's lifetime (the result is
  /// immutable once resolved).
  const Result<engine::ExecReport>& Wait();

 private:
  friend class QueryEngine;

  explicit QueryHandle(std::uint64_t id) : id_(id) {
    verify::NamedMutex(&mutex_, "server.handle");
  }

  void MarkRunning();
  void Resolve(Result<engine::ExecReport> result);

  const std::uint64_t id_;
  CancelToken token_;
  // verify:: primitives = plain std:: in normal builds; under
  // PUMP_VERIFY the model checker explores the resolve/wait handoff.
  mutable verify::Mutex mutex_;
  verify::CondVar cv_;
  QueryState state_ = QueryState::kQueued;
  Result<engine::ExecReport> result_{
      Status::Internal("query not resolved")};
};

/// Engine-wide configuration, fixed at construction.
struct EngineOptions {
  /// Scheduler threads executing admitted queries. Each runs one query
  /// at a time through plan::ExecutePlan; the queries share the
  /// process-wide persistent exec::Executor pool, which runs their
  /// fork-join phases at once — each phase is a job whose caller runs
  /// its own slots when no pool thread is free, so concurrent plans
  /// share the pool's threads rather than oversubscribing the machine
  /// or queueing for the whole pool.
  std::size_t session_threads = 2;
  /// Bound on admitted-but-not-started queries. A Submit that finds the
  /// queue full is shed with kResourceExhausted — load is rejected at
  /// the edge, the queue never grows without bound.
  std::size_t queue_capacity = 8;
  /// Per-device GPU hash-table budget handed to the plan compiler; 0
  /// derives the default from the profile. Every in-flight query charges
  /// its hash-table fragments to the pools of the devices holding them: a
  /// device whose pool reaches the budget takes no new plan, and when
  /// every candidate device is saturated new plans are forced onto the
  /// CPU (graceful degradation) instead of queueing behind device memory.
  std::uint64_t gpu_budget_bytes = 0;
  /// Capacity of the process-wide dimension-table build cache shared by
  /// every query (plan/build_cache.h). 0 disables residency.
  std::uint64_t cache_capacity_bytes = 512ull << 20;
  /// Placement policy requested for submitted queries.
  plan::PlacementPolicy policy = plan::PlacementPolicy::kGpuPreferred;
  /// System profile submitted queries compile against; null uses the
  /// default AC922 testbed. Must outlive the engine (mesh profiles come
  /// from hw::NvlinkRingProfile & friends).
  const hw::SystemProfile* profile = nullptr;
  /// Candidate GPU devices to shard submitted plans across (see
  /// plan::CompileOptions::shard_devices). Empty keeps the classic
  /// single-device layout. Each candidate draws from its own per-device
  /// budget pool; a saturated device is dropped from a new plan's shard
  /// set before the whole plan degrades to CPU.
  plan::DeviceSet shard_devices;
  /// Engine-level injector probing the `server.admission` failpoint on
  /// Submit and `server.cancel` before each query starts (scoped by the
  /// submit tag). Distinct from SubmitOptions::injector, which is
  /// threaded into the query's own execution.
  fault::FaultInjector* injector = nullptr;
  /// Base retry policy. Each query executes under
  /// `retry.Salted(query id)` so concurrent retry streams are
  /// decorrelated yet deterministic for a fixed engine history.
  fault::RetryPolicy retry;
  /// Test/model seam: when set, the scheduler calls this instead of
  /// plan::ExecutePlan. The concurrency-verifier models drive the
  /// admission queue, budget accounting and handle resolution through a
  /// stub runner so explored schedules never entangle the process-wide
  /// persistent executor pool.
  std::function<Result<engine::ExecReport>(const plan::PhysicalPlan&,
                                           const engine::ExecOptions&)>
      runner_for_test;
  /// SLO targets evaluated over the engine's 60 s sliding window (0 = not
  /// configured): the windowed p99 latency ceiling and the windowed
  /// throughput floor. Snapshot() reports the verdict; servebench's
  /// --slo-* flags turn a violation into a nonzero exit.
  double slo_p99_us = 0.0;
  double slo_min_qps = 0.0;
};

/// Per-query knobs.
struct SubmitOptions {
  /// CPU probe workers for this query.
  std::size_t workers = 2;
  /// Wall-clock deadline measured from Submit (queue wait counts against
  /// it, like any SLO). 0 = none. An expired deadline cancels the query
  /// cooperatively and resolves the handle with kDeadlineExceeded.
  double deadline_s = 0.0;
  /// Fault injector for this query's execution (transfer chunks, device
  /// allocation, scheduler groups, plan pipelines). Null uses the
  /// engine's injector. Per-query injectors keep one query's fault
  /// schedule independent of its siblings'.
  fault::FaultInjector* injector = nullptr;
  /// Scope string for the engine's server.admission / server.cancel
  /// failpoint streams (deterministic per-tag schedules).
  std::string tag;
};

/// Point-in-time engine statistics (single-engine scope; the obs
/// registry carries the process-wide `server.*` mirrors).
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  /// Rejected at admission: queue full or server.admission fired.
  std::uint64_t shed = 0;
  /// Rejected synchronously because the query failed to compile
  /// (invalid shape). Not a shed — the queue had room.
  std::uint64_t compile_rejected = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  /// Plans forced onto the CPU because in-flight footprints saturated
  /// every candidate device's pool.
  std::uint64_t degraded_to_cpu = 0;
  std::uint64_t completed = 0;
  /// Contained failures: the query's fault ladder exhausted, its handle
  /// resolved with the error, nothing shared was poisoned.
  std::uint64_t failed = 0;
  /// Modelled GPU bytes charged by queued + running queries, per device:
  /// each shard of a sharded plan charges only its own device's pool, so
  /// one busy device never blocks admission onto its idle peers.
  std::map<hw::DeviceId, std::uint64_t> device_inflight_bytes;
  std::size_t queue_depth = 0;
  std::size_t running = 0;
};

/// One live (queued or running) query in an engine snapshot.
struct QueryRow {
  std::uint64_t id = 0;
  QueryState state = QueryState::kQueued;
  std::string tag;
  /// Seconds since Submit.
  double age_s = 0.0;
};

/// Point-in-time introspection of a live engine: everything `pumpstat`
/// exposes (see server/introspect.h for the JSON / Prometheus
/// renderings). Cheap to take — a handful of mutex-held copies, no
/// query-path stalls.
struct EngineSnapshot {
  EngineStats stats;
  /// Queued + running queries (resolved queries leave the table).
  std::vector<QueryRow> queries;
  plan::BuildCache::Stats cache;
  /// Resident cache entries, most recently used first.
  std::vector<plan::BuildCache::ContentsEntry> cache_contents;
  /// hits / (hits + misses); 0 when no lookups yet.
  double cache_hit_ratio = 0.0;
  /// Windowed latency distribution (us) and qps over the engine's
  /// sliding window.
  obs::SlidingWindow::Aggregate latency_us;
  /// Per-exchange-route byte gauges ("d<src>_d<dst>" -> bytes moved),
  /// from the process-wide plan.exchange.route.* counters.
  std::vector<std::pair<std::string, std::uint64_t>> exchange_route_bytes;
  obs::FlightRecorder::Stats incidents;
  /// SLO verdict over the window; slo_ok stays true when no target is
  /// configured.
  bool slo_configured = false;
  bool slo_ok = true;
  std::string slo_violation;
  double slo_p99_us = 0.0;
  double slo_min_qps = 0.0;
};

/// A long-running serving front end over the plan IR: Submit admits a
/// query into a bounded queue (or sheds it), scheduler threads compile-
/// time-placed plans through plan::ExecutePlan on the shared persistent
/// executor, and every admitted query resolves exactly once.
///
/// Robustness contract (DESIGN.md Sec. 12):
///  * Bounded admission — a full queue sheds with kResourceExhausted.
///  * Graceful degradation — in-flight GPU footprints feed back into
///    compilation; saturation forces CPU placement, never an unbounded
///    wait for device memory.
///  * Cooperative cancellation — Cancel / deadlines stop a running
///    query within one morsel per worker and release its threads.
///  * Crash containment — a query whose fault ladder exhausts resolves
///    its own handle with the error; the executor pool, the shared
///    build cache and sibling queries are untouched, and completed
///    siblings return results bit-identical to solo execution.
///
/// The fact and dimension tables referenced by a submitted query must
/// outlive its handle's resolution (the query struct itself is copied).
class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Admits `query` or rejects it: kResourceExhausted when the queue is
  /// full (shed), the injected status when `server.admission` fires, a
  /// compile error for an invalid query, kUnavailable after Shutdown.
  /// On success the returned handle resolves asynchronously.
  Result<std::shared_ptr<QueryHandle>> Submit(
      const engine::Query& query, const SubmitOptions& options = {});

  /// Stops the schedulers from starting new queries (running ones
  /// finish). Tests use Pause/Resume to fill the admission queue
  /// deterministically. Shutdown overrides a pause so draining cannot
  /// hang.
  void Pause();
  void Resume();

  /// Rejects further submissions, drains every queued query (each still
  /// resolves — possibly with its deadline or cancellation status) and
  /// joins the scheduler threads. Idempotent; the destructor calls it.
  void Shutdown();

  EngineStats stats() const;
  /// Full introspection snapshot (queue, per-query states, pools, cache
  /// contents, windowed latency/qps, exchange routes, incidents, SLO
  /// verdict) — the data behind tools/pumpstat.
  EngineSnapshot Snapshot() const;
  plan::BuildCache& build_cache() { return cache_; }
  /// The engine's incident ring: one bounded artifact per abnormal
  /// resolution (fault-ladder exhaustion, deadline, cancellation).
  const obs::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }

 private:
  struct Task;

  void SchedulerLoop();
  void RunTask(std::unique_ptr<Task> task);

  const EngineOptions options_;
  plan::BuildCache cache_;
  obs::FlightRecorder flight_recorder_;
  obs::SlidingWindow latency_window_;

  mutable verify::Mutex mutex_;
  verify::CondVar queue_cv_;
  std::deque<std::unique_ptr<Task>> queue_;
  EngineStats stats_;
  /// Live queries by id (inserted at admission, state flipped when the
  /// scheduler picks the task up, erased at resolution) — the per-query
  /// rows of Snapshot().
  struct ActiveQuery {
    QueryState state = QueryState::kQueued;
    std::string tag;
    std::chrono::steady_clock::time_point submitted_at;
  };
  std::map<std::uint64_t, ActiveQuery> active_;
  std::uint64_t next_id_ = 1;
  /// Per-device in-flight pools, charged at admission and released when
  /// the task resolves — the engine's only GPU-pressure signal. Fed into
  /// compilation so new plans shed saturated devices shard-by-shard.
  std::map<hw::DeviceId, std::uint64_t> device_inflight_bytes_;
  bool paused_ = false;
  bool shutdown_ = false;

  /// Happens-before ledger of the admission path (debug builds only):
  /// every dequeue must follow an admission, every resolution a
  /// dequeue — a scheduler running a task that was never admitted (or
  /// resolving one it never dequeued) trips the epoch asserts.
  hb::EpochCounter hb_admitted_;
  hb::EpochCounter hb_dequeued_;
  hb::EpochCounter hb_resolved_;

  std::vector<verify::Thread> threads_;
};

inline const char* ToString(QueryState state) {
  switch (state) {
    case QueryState::kQueued:
      return "queued";
    case QueryState::kRunning:
      return "running";
    case QueryState::kDone:
      return "done";
  }
  return "?";
}

}  // namespace pump::server

#endif  // PUMP_SERVER_QUERY_ENGINE_H_
