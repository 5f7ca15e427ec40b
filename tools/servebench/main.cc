// servebench: closed/open-loop driver for the serving layer
// (server::QueryEngine). Two modes:
//
//  * Throughput (default): N closed-loop clients submit the SSB mix
//    back to back; reports qps, p50/p99 latency, shed/cancel counters
//    and the build-cache hit rate, emitted as `servebench_*` records
//    (--json=<path>) which scripts/bench_trajectory.sh merges into
//    BENCH_micro.json.
//
//  * --soak: the robustness gate. Sweeps worker counts x fault
//    probabilities, submitting bursts of concurrent queries from
//    multiple threads under seeded injectors (transfer faults, group
//    stalls, pipeline faults, server.admission sheds, server.cancel
//    cancellations, tight deadlines) with a watchdog. It checks that
//    every Submit resolves (no hung or lost query), the engine's
//    accounting balances, every completed query's result is
//    bit-identical to its solo run, and the per-device GPU budget
//    (twice the largest query's hash tables) forces at least one query
//    of the sweep onto the CPU.
//
// --quick shrinks the workload for CI smoke use (check.sh runs the soak
// under TSan).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/harness.h"
#include "bench_support/json_writer.h"
#include "engine/executor.h"
#include "engine/ssb.h"
#include "fault/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "plan/compiler.h"
#include "server/introspect.h"
#include "server/query_engine.h"

namespace pump {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Config {
  bool quick = false;
  bool soak = false;
  std::size_t clients = 4;
  std::size_t queries_per_client = 8;
  std::size_t workers = 2;
  std::uint64_t seed = 42;
  /// Windowed SLO targets for the throughput mode (0 = not configured):
  /// a violated target exits 3 — the watchdog half of the regression
  /// gate (scripts/bench_check.py is the trend half).
  double slo_p99_us = 0.0;
  double slo_min_qps = 0.0;
  /// --soak: collect every cell's flight-recorder artifacts into one
  /// JSON array at this path.
  std::string incidents_out;
};

struct MixCase {
  std::string name;
  engine::Query query;
  engine::QueryResult expected;
};

/// Solo reference results: the bit-identity baseline for every
/// concurrent completion.
std::vector<MixCase> BuildMix(const engine::SsbDatabase& db) {
  std::vector<MixCase> mix;
  for (const engine::NamedQuery& named : engine::SsbSuite(db)) {
    Result<engine::QueryResult> solo = engine::Executor::Run(named.query, 2);
    if (!solo.ok()) {
      std::cerr << "FATAL: solo run of " << named.name
                << " failed: " << solo.status().ToString() << "\n";
      std::exit(1);
    }
    mix.push_back({named.name, named.query, solo.value()});
  }
  return mix;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return samples[idx];
}

/// Waits for every handle with a wall-clock bound; a query that fails to
/// resolve is a hung query — the exact failure mode the serving layer
/// exists to prevent — and aborts the bench.
void AwaitAll(
    const std::vector<std::shared_ptr<server::QueryHandle>>& handles,
    double timeout_s, const std::string& context) {
  const auto start = Clock::now();
  for (const auto& handle : handles) {
    while (!handle->Done()) {
      if (SecondsSince(start) > timeout_s) {
        std::cerr << "FATAL: " << context << ": query " << handle->id()
                  << " hung (> " << timeout_s << "s)\n";
        std::exit(2);
      }
      std::this_thread::yield();
    }
  }
}

int RunThroughput(bench::JsonWriter* json, const engine::SsbDatabase& db,
                  const Config& config) {
  const std::vector<MixCase> mix = BuildMix(db);

  server::EngineOptions engine_options;
  engine_options.session_threads = 4;
  engine_options.queue_capacity = 2 * config.clients;
  engine_options.slo_p99_us = config.slo_p99_us;
  engine_options.slo_min_qps = config.slo_min_qps;
  server::QueryEngine engine(engine_options);

  std::vector<std::vector<double>> latencies(config.clients);
  std::atomic<std::uint64_t> mismatches{0};
  const auto start = Clock::now();
  {
    std::vector<std::thread> clients;
    clients.reserve(config.clients);
    for (std::size_t c = 0; c < config.clients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t q = 0; q < config.queries_per_client; ++q) {
          const MixCase& mix_case = mix[(c + q) % mix.size()];
          server::SubmitOptions submit;
          submit.workers = config.workers;
          const auto submit_at = Clock::now();
          Result<std::shared_ptr<server::QueryHandle>> handle =
              engine.Submit(mix_case.query, submit);
          if (!handle.ok()) continue;  // shed under burst; accounted below
          const Result<engine::ExecReport>& report = handle.value()->Wait();
          latencies[c].push_back(SecondsSince(submit_at) * 1e6);
          if (report.ok() &&
              !(report.value().result == mix_case.expected)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  const double wall_s = SecondsSince(start);

  const server::EngineStats stats = engine.stats();
  const plan::BuildCache::Stats cache = engine.build_cache().stats();
  if (mismatches.load() != 0) {
    std::cerr << "FATAL: " << mismatches.load()
              << " concurrent results diverged from solo execution\n";
    return 1;
  }

  std::vector<double> all;
  for (const auto& client : latencies) {
    all.insert(all.end(), client.begin(), client.end());
  }
  const double qps =
      wall_s > 0.0 ? static_cast<double>(stats.completed) / wall_s : 0.0;
  const double p50 = Percentile(all, 0.50);
  const double p99 = Percentile(all, 0.99);
  const std::uint64_t cache_lookups = cache.hits + cache.misses;
  const double cache_hit_pct =
      cache_lookups > 0
          ? 100.0 * static_cast<double>(cache.hits) /
                static_cast<double>(cache_lookups)
          : 0.0;

  const std::string config_str =
      "ssb clients=" + std::to_string(config.clients) +
      " workers=" + std::to_string(config.workers);
  std::cout << "  " << config_str << "\n"
            << "    completed: " << stats.completed << "/"
            << stats.submitted << " in " << wall_s << " s (" << qps
            << " qps)\n"
            << "    latency: p50 " << p50 << " us, p99 " << p99 << " us\n"
            << "    shed " << stats.shed << ", cancelled "
            << stats.cancelled << ", deadline " << stats.deadline_exceeded
            << ", failed " << stats.failed << "\n"
            << "    build cache: " << cache.hits << " hits / "
            << cache_lookups << " lookups (" << cache_hit_pct << "%)\n";

  json->Record("servebench_qps", config_str, qps, 0.0, 1);
  json->Record("servebench_p50_us", config_str, p50, 0.0,
               static_cast<int>(all.size()));
  json->Record("servebench_p99_us", config_str, p99, 0.0,
               static_cast<int>(all.size()));
  json->Record("servebench_cache_hit_pct", config_str, cache_hit_pct, 0.0,
               1);
  json->Record("servebench_shed", config_str,
               static_cast<double>(stats.shed), 0.0, 1);
  json->Record("servebench_cancelled", config_str,
               static_cast<double>(stats.cancelled), 0.0, 1);
  json->Record("servebench_deadline_exceeded", config_str,
               static_cast<double>(stats.deadline_exceeded), 0.0, 1);

  // SLO watchdog: the engine's own windowed verdict over the run. Exit 3
  // keeps the failure distinguishable from correctness failures (1).
  const server::EngineSnapshot snapshot = engine.Snapshot();
  if (snapshot.slo_configured) {
    std::cout << "    slo: windowed p99 " << snapshot.latency_us.p99
              << " us, qps " << snapshot.latency_us.rate_per_s << " -> "
              << (snapshot.slo_ok ? "ok" : snapshot.slo_violation) << "\n";
    if (!snapshot.slo_ok) {
      std::cerr << "FATAL: SLO violated: " << snapshot.slo_violation
                << "\n";
      return 3;
    }
  }
  return 0;
}

/// A query whose build must fail (duplicate dimension keys trip the
/// hash-table uniqueness check at execution time, past compilation):
/// the deterministic contained-failure probe of the soak. Its handle
/// resolves with kAlreadyExists while siblings are untouched.
struct PoisonFixture {
  engine::Table dim;
  engine::Query query;
};

std::unique_ptr<PoisonFixture> MakePoison(const engine::SsbDatabase& db) {
  auto fixture = std::make_unique<PoisonFixture>();
  if (!fixture->dim.AddColumn("pk", {0, 1, 2, 2}).ok()) std::exit(1);
  fixture->query.fact = &db.lineorder;
  fixture->query.measure_column = "lo_revenue";
  engine::JoinClause join;
  join.fact_key_column = "lo_custkey";
  join.dimension = &fixture->dim;
  join.dim_key_column = "pk";
  fixture->query.joins.push_back(join);
  return fixture;
}

/// The soak's per-device GPU budget: twice the largest GPU charge of one
/// mix query under the engine's default placement (its hash tables), so
/// a few in-flight queries saturate it and the degrade-to-CPU path runs
/// under pressure at every scale.
std::uint64_t SoakGpuBudget(const std::vector<MixCase>& mix) {
  plan::CompileOptions gpu;
  gpu.policy = plan::PlacementPolicy::kGpuPreferred;
  std::uint64_t largest = 0;
  for (const MixCase& mix_case : mix) {
    Result<plan::PhysicalPlan> plan = plan::Compile(mix_case.query, gpu);
    if (!plan.ok()) {
      std::cerr << "FATAL: compile of " << mix_case.name
                << " failed: " << plan.status().ToString() << "\n";
      std::exit(1);
    }
    std::uint64_t charge = 0;
    for (const auto& [device, bytes] :
         plan::EstimatedGpuFootprintPerDevice(plan.value())) {
      charge += bytes;
    }
    largest = std::max(largest, charge);
  }
  return 2 * largest;
}

/// One soak cell: a burst of concurrent queries from several submitter
/// threads under a seeded fault cocktail. Returns false on any violated
/// invariant (the caller exits nonzero); adds the cell's queries forced
/// onto the CPU by GPU pressure to `*degraded`.
bool SoakCell(const std::vector<MixCase>& mix,
              const PoisonFixture& poison, std::size_t workers,
              double fault_p, std::uint64_t seed, double timeout_s,
              std::uint64_t gpu_budget_bytes, std::uint64_t* degraded,
              std::string* incidents_json) {
  // Fresh rings per cell: incident trace tails stay cell-local, and the
  // rings never get close to wrapping mid-capture (a mid-run Snapshot
  // only races a writer when the ring wraps). Quiescent here — the
  // previous cell's engine is destroyed, pool threads are idle.
  obs::TraceRecorder::Instance().Clear();

  fault::FaultInjector exec_faults(seed);
  fault::FaultInjector server_faults(seed ^ 0x5eed);
  if (fault_p > 0.0) {
    exec_faults.Arm(fault::kTransferChunk,
                    {fault_p, 0, 1'000'000, StatusCode::kUnavailable});
    exec_faults.Arm(fault::kSchedWorkerStall,
                    {fault_p / 2, 0, 1'000'000, StatusCode::kUnavailable});
    exec_faults.Arm(fault::kPlanPipeline,
                    {fault_p / 2, 1, 1'000'000, StatusCode::kUnavailable});
    exec_faults.Arm(fault::kAllocDevice,
                    {fault_p, 0, 1'000'000, StatusCode::kResourceExhausted});
    server_faults.Arm(fault::kServerAdmission,
                      {fault_p / 4, 0, 1'000'000,
                       StatusCode::kResourceExhausted});
    server_faults.Arm(fault::kServerCancel,
                      {fault_p / 2, 0, 1'000'000, StatusCode::kCancelled});
  }

  server::EngineOptions engine_options;
  engine_options.session_threads = 4;
  engine_options.queue_capacity = 8;
  engine_options.gpu_budget_bytes = gpu_budget_bytes;
  engine_options.injector = &server_faults;
  server::QueryEngine engine(engine_options);

  const std::size_t kSubmitters = 4;
  const std::size_t kPerSubmitter = 4;  // >= 8 concurrent queries total
  struct Submitted {
    std::shared_ptr<server::QueryHandle> handle;
    bool poisoned = false;
  };
  std::vector<std::vector<Submitted>> per_thread(kSubmitters);
  std::atomic<std::uint64_t> sync_rejects{0};
  {
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t q = 0; q < kPerSubmitter; ++q) {
          const std::size_t n = t * kPerSubmitter + q;
          // Every seventh submission is the poison query: a contained
          // failure that must not disturb its siblings.
          const bool poisoned = n % 7 == 6;
          server::SubmitOptions submit;
          submit.workers = workers;
          submit.injector = &exec_faults;
          submit.tag = poisoned ? "poison" : mix[n % mix.size()].name;
          // A tight deadline on every fourth query exercises the
          // deadline path; the rest run to completion.
          if (n % 4 == 3) submit.deadline_s = 1e-5;
          Result<std::shared_ptr<server::QueryHandle>> handle =
              engine.Submit(
                  poisoned ? poison.query : mix[n % mix.size()].query,
                  submit);
          if (!handle.ok()) {
            sync_rejects.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // Client-side cancellation pressure on every fifth query.
          if (n % 5 == 4) handle.value()->Cancel();
          per_thread[t].push_back({handle.value(), poisoned});
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
  }

  std::vector<Submitted> handles;
  for (auto& thread_handles : per_thread) {
    handles.insert(handles.end(), thread_handles.begin(),
                   thread_handles.end());
  }
  const std::string context = "soak workers=" + std::to_string(workers) +
                              " p=" + std::to_string(fault_p);
  std::vector<std::shared_ptr<server::QueryHandle>> raw_handles;
  for (const Submitted& submitted : handles) {
    raw_handles.push_back(submitted.handle);
  }
  AwaitAll(raw_handles, timeout_s, context);

  // Invariant 1: accounting balances — nothing lost. Every submission
  // either rejected synchronously or admitted; every admitted handle
  // resolved to exactly one terminal state.
  const server::EngineStats stats = engine.stats();
  if (stats.submitted !=
      stats.admitted + stats.shed + stats.compile_rejected) {
    std::cerr << "FATAL: " << context << ": submitted " << stats.submitted
              << " != admitted " << stats.admitted << " + shed "
              << stats.shed << " + compile_rejected "
              << stats.compile_rejected << "\n";
    return false;
  }
  const std::uint64_t resolved = stats.completed + stats.cancelled +
                                 stats.deadline_exceeded + stats.failed;
  if (resolved != stats.admitted) {
    std::cerr << "FATAL: " << context << ": resolved " << resolved
              << " != admitted " << stats.admitted << " (lost queries)\n";
    return false;
  }
  if (stats.shed != sync_rejects.load()) {
    std::cerr << "FATAL: " << context << ": engine shed " << stats.shed
              << " but clients saw " << sync_rejects.load()
              << " rejections\n";
    return false;
  }

  // Invariant 2: completed results are bit-identical to solo execution,
  // whatever faults hit the siblings — and the poison query never
  // completes (its build must fail, be cancelled, or time out).
  for (const Submitted& submitted : handles) {
    const Result<engine::ExecReport>& report = submitted.handle->Wait();
    if (!report.ok()) continue;
    if (submitted.poisoned) {
      std::cerr << "FATAL: " << context << ": poison query "
                << submitted.handle->id()
                << " completed; its build must fail\n";
      return false;
    }
    bool matched = false;
    for (const MixCase& mix_case : mix) {
      if (report.value().result == mix_case.expected) matched = true;
    }
    if (!matched) {
      std::cerr << "FATAL: " << context << ": completed query "
                << submitted.handle->id() << " returned rows="
                << report.value().result.rows
                << " sum=" << report.value().result.sum
                << ", matching no solo result\n";
      return false;
    }
  }

  // Invariant 3: the flight recorder holds exactly one artifact per
  // abnormal resolution — zero failed/cancelled/expired queries without
  // an artifact, zero artifacts for successful ones. (Cell totals stay
  // below the ring capacity, so captured == retained.)
  const obs::FlightRecorder::Stats incidents =
      engine.flight_recorder().stats();
  auto kind_count = [&incidents](const char* kind) -> std::uint64_t {
    auto it = incidents.captured_by_kind.find(kind);
    return it == incidents.captured_by_kind.end() ? 0 : it->second;
  };
  const std::uint64_t abnormal =
      stats.cancelled + stats.deadline_exceeded + stats.failed;
  if (incidents.captured != abnormal ||
      kind_count("fault_ladder_exhausted") != stats.failed ||
      kind_count("cancelled") != stats.cancelled ||
      kind_count("deadline_expired") != stats.deadline_exceeded) {
    std::cerr << "FATAL: " << context << ": flight recorder captured "
              << incidents.captured << " incidents ("
              << kind_count("fault_ladder_exhausted") << " exhausted, "
              << kind_count("cancelled") << " cancelled, "
              << kind_count("deadline_expired")
              << " deadline) but the engine resolved " << stats.failed
              << " failed, " << stats.cancelled << " cancelled, "
              << stats.deadline_exceeded << " deadline\n";
    return false;
  }
  // Invariant 4: every artifact is self-contained — query id, kind, the
  // compiled plan, and the failed attempt's report rows are all present.
  for (const obs::Incident& incident : engine.flight_recorder().Incidents()) {
    if (incident.query_id == 0 || incident.kind.empty() ||
        incident.plan_json.empty() || incident.report_json.empty()) {
      std::cerr << "FATAL: " << context << ": incident for query "
                << incident.query_id << " (" << incident.kind
                << ") is missing its plan or report payload\n";
      return false;
    }
    if (incidents_json != nullptr) {
      if (!incidents_json->empty()) *incidents_json += ",\n";
      *incidents_json += obs::FlightRecorder::IncidentJson(incident);
    }
  }

  std::cout << "  " << context << ": " << stats.completed << " completed, "
            << stats.shed << " shed, " << stats.cancelled << " cancelled, "
            << stats.deadline_exceeded << " deadline, " << stats.failed
            << " failed, " << stats.degraded_to_cpu << " degraded to cpu, "
            << incidents.captured << " incidents\n";
  *degraded += stats.degraded_to_cpu;
  return true;
}

int RunSoak(const engine::SsbDatabase& db, const Config& config) {
  const std::vector<MixCase> mix = BuildMix(db);
  const std::unique_ptr<PoisonFixture> poison = MakePoison(db);
  const double timeout_s = config.quick ? 60.0 : 180.0;
  const double probabilities[] = {0.0, 0.01, 0.05};
  const std::uint64_t gpu_budget_bytes = SoakGpuBudget(mix);
  std::cout << "  per-device GPU budget " << gpu_budget_bytes
            << " bytes (twice the largest query's hash tables)\n";
  std::uint64_t degraded = 0;
  // Tracing on for the whole sweep so every incident artifact carries
  // its query's trace tail.
  obs::TraceRecorder::Instance().Enable();
  std::string incidents_json;
  bool ok = true;
  for (std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    for (double p : probabilities) {
      ok = SoakCell(mix, *poison, workers, p, config.seed + workers,
                    timeout_s, gpu_budget_bytes, &degraded,
                    &incidents_json) &&
           ok;
    }
  }
  obs::TraceRecorder::Instance().Disable();
  if (!config.incidents_out.empty()) {
    std::ofstream file(config.incidents_out);
    if (!file) {
      std::cerr << "FATAL: cannot write " << config.incidents_out << "\n";
      return 1;
    }
    file << "[" << incidents_json << "]\n";
  }
  if (!ok) return 1;
  if (degraded == 0) {
    std::cerr << "FATAL: no query degraded to the CPU across the sweep; "
                 "the budget no longer exercises the degrade path\n";
    return 1;
  }
  std::cout << "  soak passed: zero hung/lost queries across the sweep, "
               "every abnormal resolution left a flight-recorder "
               "artifact\n";
  return 0;
}

}  // namespace
}  // namespace pump

int main(int argc, char** argv) {
  pump::bench::JsonWriter json =
      pump::bench::JsonWriter::FromArgs(&argc, argv);
  pump::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.quick = true;
    } else if (arg == "--soak") {
      config.soak = true;
    } else if (arg.rfind("--clients=", 0) == 0) {
      config.clients = std::stoul(arg.substr(10));
    } else if (arg.rfind("--queries=", 0) == 0) {
      config.queries_per_client = std::stoul(arg.substr(10));
    } else if (arg.rfind("--workers=", 0) == 0) {
      config.workers = std::stoul(arg.substr(10));
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--slo-p99-us=", 0) == 0) {
      config.slo_p99_us = std::stod(arg.substr(13));
    } else if (arg.rfind("--slo-min-qps=", 0) == 0) {
      config.slo_min_qps = std::stod(arg.substr(14));
    } else if (arg.rfind("--incidents-out=", 0) == 0) {
      config.incidents_out = arg.substr(16);
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: servebench [--quick] [--soak] [--clients=N] "
                   "[--queries=N] [--workers=N] [--seed=N] [--json=path] "
                   "[--slo-p99-us=X] [--slo-min-qps=Y] "
                   "[--incidents-out=path]\n";
      return 1;
    }
  }

  const std::size_t rows = config.quick ? 20'000 : 200'000;
  pump::bench::PrintBanner(
      std::cout, config.soak ? "servebench/soak" : "servebench/throughput",
      config.soak
          ? "Concurrent SSB queries x seeded fault sweep through "
            "server::QueryEngine; asserts zero hung/lost queries and "
            "solo-identical results"
          : "Closed-loop SSB clients against server::QueryEngine (" +
                std::to_string(rows) + " fact rows)");
  const pump::engine::SsbDatabase db =
      pump::engine::SsbDatabase::Generate(rows, /*seed=*/42);

  if (config.soak) return pump::RunSoak(db, config);

  const int rc = pump::RunThroughput(&json, db, config);
  if (rc != 0) return rc;
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
