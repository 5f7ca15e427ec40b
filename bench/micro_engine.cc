// Engine-path microbench: compiling a query to the physical-plan IR and
// executing it (plan::Compile + plan::ExecutePlan), per SSB query and
// TPC-H Q6, with the trace recorder off (`plan_ir`) and on (`traced`).
// Built with -DPUMP_TRACE=OFF, its `plan_ir` numbers are the
// uninstrumented baseline that scripts/check.sh compares the default
// build's against (compiled-in but disabled spans may cost <= 5%).
// Records are merged into BENCH_micro.json by scripts/bench_trajectory.sh.
//
// Hand-rolled harness (no google-benchmark): compile time is measured
// separately from execution, and records are emitted via --json=<path>.
// --quick shrinks the fact table to smoke-test proportions. Every timed
// run must return the first untraced run's result; checking results
// against an independent reference is tests/plan_test.cc's job.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/harness.h"
#include "bench_support/json_writer.h"
#include "common/statistics.h"
#include "data/tpch.h"
#include "engine/ssb.h"
#include "obs/trace.h"
#include "plan/compiler.h"
#include "plan/executor.h"
#include "plan/q6_bridge.h"

namespace pump {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BenchCase {
  std::string name;
  engine::Query query;
};

double Mean(const std::vector<double>& samples) {
  RunningStats stats;
  for (double sample : samples) stats.Add(sample);
  return stats.mean();
}

void BenchQuery(bench::JsonWriter* json, const BenchCase& bench_case,
                std::size_t workers, int runs) {
  const std::string config =
      bench_case.name + " workers=" + std::to_string(workers);

  // Compile once outside the timed region (plans are reusable), then time
  // execution; compile cost is reported as its own metric.
  const auto compile_start = Clock::now();
  Result<plan::PhysicalPlan> physical = plan::Compile(bench_case.query);
  const double compile_us = SecondsSince(compile_start) * 1e6;
  if (!physical.ok()) {
    std::cerr << "FATAL: " << config
              << ": compile failed: " << physical.status().ToString() << "\n";
    std::exit(1);
  }
  engine::ExecOptions options;
  options.workers = workers;
  Result<engine::ExecReport> first =
      plan::ExecutePlan(physical.value(), options);
  if (!first.ok()) {
    std::cerr << "FATAL: " << config
              << ": execution failed: " << first.status().ToString() << "\n";
    std::exit(1);
  }
  const engine::QueryResult expected = first.value().result;
  const auto timed_run = [&] {
    const auto start = Clock::now();
    Result<engine::ExecReport> got =
        plan::ExecutePlan(physical.value(), options);
    const double us = SecondsSince(start) * 1e6;
    if (!got.ok() || !(got.value().result == expected)) std::exit(1);
    return us;
  };
  const std::vector<double> plan_ir =
      bench::RepeatSamples(runs, bench::kDefaultWarmup, timed_run);

  // Same plan with the trace recorder runtime-enabled: the full span
  // recording cost, reported alongside the disabled-state numbers. The
  // rings wrap silently, so long runs stay bounded.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Instance();
  recorder.Clear();
  recorder.Enable();
  const std::vector<double> traced =
      bench::RepeatSamples(runs, bench::kDefaultWarmup, timed_run);
  recorder.Disable();
  recorder.Clear();

  const double plan_ir_mean = Mean(plan_ir);
  const double traced_mean = Mean(traced);
  const double trace_overhead_pct =
      plan_ir_mean > 0.0
          ? (traced_mean - plan_ir_mean) / plan_ir_mean * 100.0
          : 0.0;
  std::cout << "  " << config << "\n"
            << "    plan IR: " << plan_ir_mean << " us/query (compile "
            << compile_us << " us, once)\n"
            << "    traced:  " << traced_mean
            << " us/query (recorder enabled)\n";
  std::printf("    tracing enabled: %+.2f%% over disabled\n",
              trace_overhead_pct);

  json->RecordSamples("engine_query_us", "plan_ir " + config, plan_ir);
  json->RecordSamples("engine_query_us", "traced " + config, traced);
  json->Record("engine_plan_compile_us", config, compile_us, 0.0, 1);
  json->Record("engine_trace_overhead_pct", config, trace_overhead_pct, 0.0,
               runs);
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

  const std::size_t rows = quick ? 50'000 : 2'000'000;
  // Bumped from 3/kPaperRuns: scripts/check.sh gates a <=5% tracing
  // overhead on these samples, and without warmup + extra runs the
  // stderr was comparable to the ceiling itself.
  const int runs = quick ? 5 : 15;
  // A fixed 2 workers: the morsel dispatch path is genuinely concurrent,
  // and the records are keyed `workers=2` on every host, so the baseline
  // in BENCH_micro.json compares like with like.
  const std::size_t workers = 2;

  pump::bench::PrintBanner(
      std::cout, "micro_engine/plan_ir",
      "Per-query latency (us) over " + std::to_string(rows) +
          " fact rows through the compiled physical-plan IR (CPU "
          "placement, " +
          std::to_string(workers) + " workers), recorder off and on");

  const pump::engine::SsbDatabase db =
      pump::engine::SsbDatabase::Generate(rows, /*seed=*/42);
  std::vector<pump::BenchCase> cases;
  for (const pump::engine::NamedQuery& named : pump::engine::SsbSuite(db)) {
    cases.push_back({named.name, named.query});
  }
  const pump::plan::Q6PlanInput q6 =
      pump::plan::Q6PlanInput::From(pump::data::GenerateLineitemQ6(rows, 7));
  cases.push_back({"q6", q6.MakeQuery()});

  for (const pump::BenchCase& bench_case : cases) {
    pump::BenchQuery(&json, bench_case, workers, runs);
  }

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
