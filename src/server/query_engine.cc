#include "server/query_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "obs/query_context.h"
#include "obs/trace.h"
#include "plan/dump.h"
#include "plan/executor.h"
#include "server/introspect.h"
#include "verify/mutation.h"

namespace pump::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Incidents the flight recorder retains (oldest evicted beyond this
/// bound) and the trace-tail length captured per incident.
constexpr std::size_t kIncidentCapacity = 32;
constexpr std::size_t kIncidentTraceTail = 256;
/// Width of the sliding latency/qps window behind Snapshot()'s p50/p99/
/// qps gauges and the SLO evaluation.
constexpr std::uint64_t kWindowNs = 60'000'000'000;

std::uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

struct ServerMetrics {
  obs::Counter& submitted;
  obs::Counter& admitted;
  obs::Counter& shed;
  obs::Counter& cancelled;
  obs::Counter& deadline_exceeded;
  obs::Counter& degraded_to_cpu;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Histogram& queue_depth;
  obs::Histogram& queue_wait_us;
  obs::Histogram& query_latency_us;
};

ServerMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Instance();
  static ServerMetrics metrics{
      registry.GetCounter("server.submitted"),
      registry.GetCounter("server.admitted"),
      registry.GetCounter("server.shed"),
      registry.GetCounter("server.cancelled"),
      registry.GetCounter("server.deadline_exceeded"),
      registry.GetCounter("server.degraded_to_cpu"),
      registry.GetCounter("server.completed"),
      registry.GetCounter("server.failed"),
      registry.GetHistogram("server.queue_depth"),
      registry.GetHistogram("server.queue_wait_us"),
      registry.GetHistogram("server.query_latency_us")};
  return metrics;
}

}  // namespace

QueryState QueryHandle::state() const {
  std::lock_guard<verify::Mutex> lock(mutex_);
  return state_;
}

const Result<engine::ExecReport>& QueryHandle::Wait() {
  std::unique_lock<verify::Mutex> lock(mutex_);
  cv_.wait(lock, [this] { return state_ == QueryState::kDone; });
  return result_;
}

void QueryHandle::MarkRunning() {
  std::lock_guard<verify::Mutex> lock(mutex_);
  state_ = QueryState::kRunning;
}

void QueryHandle::Resolve(Result<engine::ExecReport> result) {
  if (PUMP_VERIFY_MUTATE("server.handle.notify_before_done")) {
    // Seeded bug: broadcast before the terminal state is visible. A
    // client that decided to wait but has not blocked yet misses the
    // only notify — lost wakeup, reported by the checker as a deadlock.
    cv_.notify_all();
    std::lock_guard<verify::Mutex> lock(mutex_);
    result_ = std::move(result);
    state_ = QueryState::kDone;
    return;
  }
  {
    std::lock_guard<verify::Mutex> lock(mutex_);
    result_ = std::move(result);
    state_ = QueryState::kDone;
  }
  cv_.notify_all();
}

/// One admitted query: the engine owns a copy of the query struct (so
/// the plan's internal pointer stays valid whatever the caller does with
/// its copy) plus the plan compiled against it under admission-time
/// GPU pressure.
struct QueryEngine::Task {
  std::shared_ptr<QueryHandle> handle;
  engine::Query query;
  plan::PhysicalPlan plan;
  SubmitOptions options;
  /// The modelled GPU footprint per device — the exact bytes each
  /// per-device pool was charged at admission and must release on
  /// resolution.
  std::map<hw::DeviceId, std::uint64_t> footprint_per_device;
  Clock::time_point submitted_at;
};

QueryEngine::QueryEngine(EngineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity_bytes),
      flight_recorder_(kIncidentCapacity, kIncidentTraceTail),
      latency_window_(kWindowNs) {
  verify::NamedMutex(&mutex_, "server.engine.mutex");
  const std::size_t threads =
      std::max<std::size_t>(1, options_.session_threads);
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { SchedulerLoop(); });
  }
}

QueryEngine::~QueryEngine() {
  // Under PUMP_VERIFY an aborted model run may deliver RunAborted at any
  // of Shutdown's sequence points (lock, notify, join); a destructor
  // must not leak it (noexcept → std::terminate). After the swallow the
  // raw-mode shims make the remaining member teardown safe, and in
  // normal builds Shutdown does not throw at all.
  try {
    Shutdown();
  } catch (...) {
  }
}

Result<std::shared_ptr<QueryHandle>> QueryEngine::Submit(
    const engine::Query& query, const SubmitOptions& options) {
  Metrics().submitted.Add();
  auto task = std::make_unique<Task>();
  task->query = query;
  task->options = options;
  task->submitted_at = Clock::now();

  std::shared_ptr<QueryHandle> handle;
  {
    std::unique_lock<verify::Mutex> lock(mutex_);
    ++stats_.submitted;
    if (shutdown_) {
      return Status::Unavailable("query engine is shutting down");
    }
    if (options_.injector != nullptr) {
      Status admission =
          options_.injector->Check(fault::kServerAdmission, options.tag);
      if (!admission.ok()) {
        ++stats_.shed;
        Metrics().shed.Add();
        return admission;
      }
    }
    if (queue_.size() >= options_.queue_capacity) {
      ++stats_.shed;
      Metrics().shed.Add();
      PUMP_TRACE_INSTANT(obs::TraceCategory::kPlan, "server.shed",
                         static_cast<double>(queue_.size()));
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_.size()) + "/" +
          std::to_string(options_.queue_capacity) + " queued); query shed");
    }

    // Compile under the admission lock so the in-flight GPU pressure the
    // plan sees is exactly the pressure its own footprint will join.
    plan::CompileOptions compile_options;
    compile_options.policy = options_.policy;
    compile_options.gpu_budget_bytes = options_.gpu_budget_bytes;
    compile_options.profile = options_.profile;
    compile_options.shard_devices = options_.shard_devices;
    compile_options.device_budget_in_use = &device_inflight_bytes_;
    Result<plan::PhysicalPlan> compiled =
        plan::Compile(task->query, compile_options);
    if (!compiled.ok()) {
      ++stats_.compile_rejected;
      return compiled.status();
    }
    task->plan = std::move(compiled).value();
    if (task->plan.forced_cpu_by_pressure) {
      ++stats_.degraded_to_cpu;
      Metrics().degraded_to_cpu.Add();
      PUMP_TRACE_INSTANT(obs::TraceCategory::kPlan, "server.degrade");
    }
    task->footprint_per_device =
        plan::EstimatedGpuFootprintPerDevice(task->plan);
    for (const auto& [device, bytes] : task->footprint_per_device) {
      device_inflight_bytes_[device] += bytes;
    }

    handle = std::shared_ptr<QueryHandle>(new QueryHandle(next_id_++));
    if (options.deadline_s > 0.0) {
      handle->token_.SetDeadlineAfter(options.deadline_s);
    }
    task->handle = handle;
    active_.emplace(handle->id(),
                    ActiveQuery{QueryState::kQueued, options.tag,
                                task->submitted_at});
    ++stats_.admitted;
    Metrics().admitted.Add();
    queue_.push_back(std::move(task));
    hb_admitted_.Bump();
    Metrics().queue_depth.Record(queue_.size());
  }
  queue_cv_.notify_one();
  return handle;
}

void QueryEngine::Pause() {
  std::lock_guard<verify::Mutex> lock(mutex_);
  paused_ = true;
}

void QueryEngine::Resume() {
  {
    std::lock_guard<verify::Mutex> lock(mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void QueryEngine::Shutdown() {
  {
    std::lock_guard<verify::Mutex> lock(mutex_);
    shutdown_ = true;
    // Draining beats pausing: a paused engine that shuts down must still
    // resolve every queued handle.
    paused_ = false;
  }
  queue_cv_.notify_all();
  for (verify::Thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

EngineStats QueryEngine::stats() const {
  std::lock_guard<verify::Mutex> lock(mutex_);
  EngineStats snapshot = stats_;
  snapshot.queue_depth = queue_.size();
  snapshot.device_inflight_bytes = device_inflight_bytes_;
  return snapshot;
}

EngineSnapshot QueryEngine::Snapshot() const {
  EngineSnapshot snapshot;
  {
    std::lock_guard<verify::Mutex> lock(mutex_);
    snapshot.stats = stats_;
    snapshot.stats.queue_depth = queue_.size();
    snapshot.stats.device_inflight_bytes = device_inflight_bytes_;
    const Clock::time_point now = Clock::now();
    snapshot.queries.reserve(active_.size());
    for (const auto& [id, active] : active_) {
      QueryRow row;
      row.id = id;
      row.state = active.state;
      row.tag = active.tag;
      row.age_s =
          std::chrono::duration<double>(now - active.submitted_at).count();
      snapshot.queries.push_back(std::move(row));
    }
  }
  snapshot.cache = cache_.stats();
  snapshot.cache_contents = cache_.Contents();
  const double lookups = static_cast<double>(snapshot.cache.hits) +
                         static_cast<double>(snapshot.cache.misses);
  snapshot.cache_hit_ratio =
      lookups > 0.0 ? static_cast<double>(snapshot.cache.hits) / lookups
                    : 0.0;
  snapshot.latency_us = latency_window_.Aggregated();
  // The per-route exchange gauges live in the process-wide registry as
  // dynamically named counters; scan them out by prefix.
  static constexpr char kRoutePrefix[] = "plan.exchange.route.";
  static constexpr char kBytesSuffix[] = ".bytes";
  for (const auto& [name, value] :
       obs::MetricsRegistry::Instance().Counters()) {
    if (name.rfind(kRoutePrefix, 0) != 0) continue;
    std::string route = name.substr(sizeof(kRoutePrefix) - 1);
    const std::size_t suffix_len = sizeof(kBytesSuffix) - 1;
    if (route.size() > suffix_len &&
        route.compare(route.size() - suffix_len, suffix_len,
                      kBytesSuffix) == 0) {
      route.resize(route.size() - suffix_len);
    }
    snapshot.exchange_route_bytes.emplace_back(std::move(route), value);
  }
  snapshot.incidents = flight_recorder_.stats();
  snapshot.slo_p99_us = options_.slo_p99_us;
  snapshot.slo_min_qps = options_.slo_min_qps;
  snapshot.slo_configured =
      options_.slo_p99_us > 0.0 || options_.slo_min_qps > 0.0;
  // SLO verdict over the window. An empty window is vacuously healthy —
  // a watchdog scraping an idle engine must not page anyone.
  if (snapshot.slo_configured && snapshot.latency_us.count > 0) {
    if (options_.slo_p99_us > 0.0 &&
        static_cast<double>(snapshot.latency_us.p99) >
            options_.slo_p99_us) {
      snapshot.slo_ok = false;
      snapshot.slo_violation =
          "windowed p99 " + std::to_string(snapshot.latency_us.p99) +
          "us exceeds slo_p99_us " + std::to_string(options_.slo_p99_us);
    } else if (options_.slo_min_qps > 0.0 &&
               snapshot.latency_us.rate_per_s < options_.slo_min_qps) {
      snapshot.slo_ok = false;
      snapshot.slo_violation =
          "windowed qps " + std::to_string(snapshot.latency_us.rate_per_s) +
          " below slo_min_qps " + std::to_string(options_.slo_min_qps);
    }
  }
  return snapshot;
}

void QueryEngine::SchedulerLoop() {
  for (;;) {
    std::unique_ptr<Task> task;
    {
      std::unique_lock<verify::Mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      hb_dequeued_.Bump();
      // Admission enqueue -> scheduler dequeue edge: a dequeue without a
      // preceding admission means the queue was corrupted (both epochs
      // bump under mutex_, so the ledger comparison is exact).
      PUMP_HB_ASSERT(hb_dequeued_.Load() <= hb_admitted_.Load(),
                     "scheduler dequeued a task that was never admitted");
      auto active = active_.find(task->handle->id());
      if (active != active_.end()) {
        active->second.state = QueryState::kRunning;
      }
      ++stats_.running;
    }
    RunTask(std::move(task));
    {
      std::lock_guard<verify::Mutex> lock(mutex_);
      --stats_.running;
    }
  }
}

void QueryEngine::RunTask(std::unique_ptr<Task> task) {
  QueryHandle& handle = *task->handle;
  // Tag this scheduler thread (and, transitively, every pool worker the
  // execution forks — exec::Executor::Run forwards the context) with the
  // query id, so all spans/instants below carry it.
  obs::ScopedQueryContext query_scope(
      obs::QueryContext{handle.id(), -1});
  handle.MarkRunning();
  const std::uint64_t queue_wait_us = MicrosSince(task->submitted_at);
  Metrics().queue_wait_us.Record(queue_wait_us);

  // Deterministic cancellation pressure: the engine injector may cancel
  // the query here exactly as a client calling handle.Cancel() would.
  if (options_.injector != nullptr &&
      !options_.injector->Check(fault::kServerCancel, task->options.tag)
           .ok()) {
    handle.token_.Cancel();
  }

  engine::ExecOptions exec;
  exec.workers = task->options.workers;
  exec.injector = task->options.injector != nullptr
                      ? task->options.injector
                      : options_.injector;
  // Decorrelate concurrent retry streams: identical base policies would
  // otherwise back off in lockstep (see RetryPolicy::Salted).
  exec.retry = options_.retry.Salted(handle.id());
  exec.cancel = &handle.token_;
  exec.build_cache = &cache_;
  exec.query_id = handle.id();
  // The mirror keeps the failed attempt's pipeline rows for the flight
  // recorder — the Result return path drops the report on errors.
  engine::ExecReport partial;
  exec.partial_report = &partial;

  // Counter baseline for the incident's metrics delta. Cheap (one sorted
  // copy of a few dozen counters) relative to running a query.
  const auto counters_before = obs::MetricsRegistry::Instance().Counters();

  Result<engine::ExecReport> result = [&] {
    // The per-query umbrella span: tracedump's per-query coverage is the
    // fraction of this span covered by the query's plan.execute span.
    PUMP_TRACE_SPAN(obs::TraceCategory::kEngine, "server.query",
                    static_cast<double>(handle.id()), 0.0);
    return options_.runner_for_test
               ? options_.runner_for_test(task->plan, exec)
               : plan::ExecutePlan(task->plan, exec);
  }();
  const std::uint64_t latency_us = MicrosSince(task->submitted_at);
  Metrics().query_latency_us.Record(latency_us);
  latency_window_.Record(latency_us);

  {
    std::lock_guard<verify::Mutex> lock(mutex_);
    active_.erase(handle.id());
    bool first_device = true;
    for (const auto& [device, bytes] : task->footprint_per_device) {
      if (first_device &&
          PUMP_VERIFY_MUTATE("server.budget.leak_on_release")) {
        // Seeded bug: the first device's pool is never drained, so its
        // in-flight bytes leak and eventually saturate admission — the
        // budget model kills this by checking all pools return to zero.
        first_device = false;
        continue;
      }
      first_device = false;
      device_inflight_bytes_[device] -= bytes;
    }
    if (result.ok()) {
      ++stats_.completed;
      Metrics().completed.Add();
    } else {
      switch (result.status().code()) {
        case StatusCode::kCancelled:
          ++stats_.cancelled;
          Metrics().cancelled.Add();
          break;
        case StatusCode::kDeadlineExceeded:
          ++stats_.deadline_exceeded;
          Metrics().deadline_exceeded.Add();
          break;
        default:
          // Contained failure: the fault ladder exhausted inside this
          // query; its handle carries the error, shared state does not.
          ++stats_.failed;
          Metrics().failed.Add();
          break;
      }
    }
  }
  if (!result.ok()) {
    // Flight-recorder capture, outside the engine lock (serializing the
    // plan and diffing counters must not stall admission). Every abnormal
    // resolution leaves exactly one bounded, self-contained artifact.
    obs::Incident incident;
    incident.query_id = handle.id();
    switch (result.status().code()) {
      case StatusCode::kCancelled:
        incident.kind = "cancelled";
        break;
      case StatusCode::kDeadlineExceeded:
        incident.kind = "deadline_expired";
        break;
      default:
        incident.kind = "fault_ladder_exhausted";
        break;
    }
    incident.status = result.status().ToString();
    incident.tag = task->options.tag;
    incident.plan_json = plan::ToJson(
        task->plan,
        task->options.tag.empty() ? "query" : task->options.tag);
    incident.report_json = ReportJson(partial);
    const auto counters_after = obs::MetricsRegistry::Instance().Counters();
    // Counters() is sorted by name and counters are never removed, so
    // the baseline is a (not necessarily contiguous) subsequence.
    std::size_t before_index = 0;
    for (const auto& [name, value] : counters_after) {
      std::uint64_t base = 0;
      while (before_index < counters_before.size() &&
             counters_before[before_index].first < name) {
        ++before_index;
      }
      if (before_index < counters_before.size() &&
          counters_before[before_index].first == name) {
        base = counters_before[before_index].second;
      }
      if (value != base) {
        incident.metrics_delta.emplace_back(
            name, static_cast<std::int64_t>(value - base));
      }
    }
    incident.latency_us = latency_us;
    incident.queue_wait_us = queue_wait_us;
    flight_recorder_.Capture(std::move(incident));
  }
  // Resolve outside the engine lock: a waiter woken by Resolve must
  // never contend with the scheduler's bookkeeping.
  hb_resolved_.Bump();
  PUMP_HB_ASSERT(hb_resolved_.Load() <= hb_dequeued_.Load(),
                 "scheduler resolved a query it never dequeued");
  handle.Resolve(std::move(result));
}

}  // namespace pump::server
