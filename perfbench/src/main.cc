// perfbench: the serving benchmark. Drives server::QueryEngine with
// closed-loop clients on one named workload, checks every result against
// an independent oracle, and prints a report ending in one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-dir <dir>] [--corrupt-oracle]
//
// --trace 0 prints the end-to-end metrics of one timed phase. --trace 1
// runs an untraced and a traced phase of half the time each, then the
// layer passes, writes the spans file and prints the per-layer metrics.
// --corrupt-oracle changes one expected result after the cold runs have
// been checked, so that the served queries must be rejected (self-test).
// Exit codes: 0 ok, 2 usage or set-up error, 3 a result differed from
// the oracle (or a query failed).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "layers.h"
#include "loop.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace pe = pump::engine;

/// vCPU warm-up before anything is timed.
constexpr double kWarmCpuSeconds = 1.0;
/// Set-up repeats at least kSetupReps times and until this much set-up
/// time is measured (at most kMaxSetupReps times), so the median of cheap
/// set-ups rests on enough samples.
constexpr int kSetupReps = 5;
constexpr double kMinSetupSeconds = 1.0;
constexpr int kMaxSetupReps = 40;
/// The untimed warm-up phase lasts a fifth of the timed phase, at most
/// this long.
constexpr double kMaxWarmupSeconds = 2.0;
/// Seed offset of the warm-up phase's query order.
constexpr std::uint64_t kWarmupScheduleSalt = 0x5eed;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir = ".";
  bool corrupt_oracle = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-dir <dir>] [--corrupt-oracle]\n"
               "workloads:";
  for (const WorkloadSpec& spec : Workloads()) std::cerr << " " << spec.name;
  std::cerr << "\n";
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--spans-dir") {
        args.spans_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

double Now(Clock::time_point origin) {
  return SecondsBetween(origin, Clock::now());
}

std::string Fixed(double value, int digits) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << value;
  return out.str();
}

/// Ends the run on a result that differs from the oracle: prints the
/// result line with "correct": false and exits 3.
[[noreturn]] void FailOracle(std::uint64_t attempted,
                             const std::string& detail) {
  std::cout << "{\"correct\": false, \"attempted\": " << attempted
            << ", \"failed\": 0, \"metrics\": {}}" << std::endl;
  std::cerr << "perfbench: " << detail << "\n";
  std::exit(3);
}

/// Shed or failed queries are counted in `failed`; a wrong result ends
/// the run.
void CheckPhase(const PhaseResult& phase, const char* what) {
  if (phase.mismatches == 0) return;
  FailOracle(phase.after.engine.submitted - phase.before.engine.submitted,
             std::string(what) + ": " + std::to_string(phase.mismatches) +
                 " result(s) differ from the oracle; first: " +
                 phase.first_mismatch);
}

// ---------------------------------------------------------------------------
// Set-up: table load + engine construction + the cold run of each distinct
// query, repeated; the last repetition's tables and engine serve the run.

struct Setup {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<pump::server::QueryEngine> engine;
  std::vector<double> total_s, load_s, cold_s;
  /// Cold results of every repetition, checked once the oracle is known.
  std::vector<std::vector<pe::QueryResult>> cold_results;
};

Setup RunSetup(const WorkloadSpec& spec, const Args& args, SpanLog* spans,
               Clock::time_point origin) {
  Setup setup;
  double measured_s = 0.0;
  for (int rep = 0; rep < kSetupReps ||
                    (measured_s < kMinSetupSeconds && rep < kMaxSetupReps);
       ++rep) {
    setup.engine.reset();
    setup.data.reset();
    const Clock::time_point start = Clock::now();
    const std::int64_t root = spans->Add("setup", Now(origin), 0.0, -1);
    setup.data = Dataset::Load(spec, args.seed);
    const Clock::time_point loaded = Clock::now();
    spans->Add("engine.load", SecondsBetween(origin, start),
               SecondsBetween(origin, loaded), root);
    setup.engine = std::make_unique<pump::server::QueryEngine>(
        EngineOptionsFor(spec));
    const Clock::time_point constructed = Clock::now();
    spans->Add("server.construct", SecondsBetween(origin, loaded),
               SecondsBetween(origin, constructed), root);
    pump::server::SubmitOptions submit;
    submit.workers = spec.workers;
    std::vector<pe::QueryResult> results;
    for (const QueryType& type : setup.data->types()) {
      const double begin = Now(origin);
      auto handle = setup.engine->Submit(type.query, submit);
      if (!handle.ok()) {
        std::cerr << "perfbench: cold run of " << type.name
                  << " rejected: " << handle.status().ToString() << "\n";
        std::exit(3);
      }
      const auto& report = handle.value()->Wait();
      if (!report.ok()) {
        std::cerr << "perfbench: cold run of " << type.name
                  << " failed: " << report.status().ToString() << "\n";
        std::exit(3);
      }
      spans->Add("plan.cold_query", begin, Now(origin), root,
                 handle.value()->id());
      results.push_back(report.value().result);
    }
    const Clock::time_point end = Clock::now();
    spans->SetEnd(root, SecondsBetween(origin, end));
    setup.total_s.push_back(SecondsBetween(start, end));
    measured_s += setup.total_s.back();
    setup.load_s.push_back(SecondsBetween(start, loaded));
    setup.cold_s.push_back(SecondsBetween(constructed, end));
    setup.cold_results.push_back(std::move(results));
  }
  return setup;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Per-layer metrics only: the end-to-end metric the layer should move,
  /// and the workloads it should move it on.
  const char* moves = "";
  const char* on = "";
};

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

std::uint64_t Failures(const PhaseResult& phase) {
  return phase.rejected + phase.errored;
}

std::uint64_t Submitted(const PhaseResult& phase) {
  return phase.after.engine.submitted - phase.before.engine.submitted;
}

std::size_t Completed(const PhaseResult& phase) {
  return phase.samples.size();
}

std::vector<double> Latencies(const PhaseResult& phase) {
  std::vector<double> latencies;
  latencies.reserve(phase.samples.size());
  for (const Sample& sample : phase.samples) {
    latencies.push_back(sample.latency_s);
  }
  return latencies;
}

/// Per-slice values of the timed span; the end-to-end metrics are their
/// medians, so host interference in fewer than half of the slices does
/// not move them. Slices without completions give no latency or CPU
/// share.
std::vector<double> SliceQps(const PhaseResult& phase) {
  std::vector<double> qps;
  for (const Slice& slice : phase.slices) {
    qps.push_back(static_cast<double>(slice.completed) / slice.seconds);
  }
  return qps;
}

std::vector<double> SliceP50s(const PhaseResult& phase) {
  std::vector<double> p50s;
  for (const Slice& slice : phase.slices) {
    if (slice.completed > 0) p50s.push_back(slice.p50_s);
  }
  return p50s;
}

std::vector<double> SliceCpuPerQuery(const PhaseResult& phase) {
  std::vector<double> cpu;
  for (const Slice& slice : phase.slices) {
    if (slice.completed > 0) {
      cpu.push_back(slice.cpu_s / static_cast<double>(slice.completed));
    }
  }
  return cpu;
}

double Qps(const PhaseResult& phase) { return Median(SliceQps(phase)); }

/// "<label> median <m>: <v1> <v2> ..." of per-slice values, scaled; shows
/// whether the host slowed the whole phase or a few slices.
std::string SliceLine(const char* label, const std::vector<double>& values,
                      double scale, int digits) {
  std::string line = std::string("    slice ") + label + " median " +
                     Fixed(Median(values) * scale, digits) + ":";
  for (double value : values) line += " " + Fixed(value * scale, digits);
  return line + "\n";
}

double RssMiB(const Counters& counters) {
  return static_cast<double>(counters.max_rss_kib) / 1024.0;
}

/// Accounting of one phase: counts, samples, clients and the mix.
void PrintAccounting(const WorkloadSpec& spec, const Dataset& data,
                     const PhaseResult& phase, const char* label) {
  const Counters& a = phase.after;
  const Counters& b = phase.before;
  const std::uint64_t submitted = Submitted(phase);
  const std::vector<double> latencies = Latencies(phase);
  const double completions = static_cast<double>(Completed(phase));
  const double cpu_s = (a.user_s - b.user_s) + (a.sys_s - b.sys_s);
  const double p99 = Percentile(latencies, 0.99);
  std::size_t beyond = 0;
  for (double latency : latencies) beyond += latency > p99 ? 1 : 0;
  std::cout << "  " << label << " phase: " << Fixed(phase.wall_s, 3)
            << " s, clients " << spec.clients << " (nproc "
            << sysconf(_SC_NPROCESSORS_ONLN) << "), workers/query "
            << spec.workers << "\n"
            << "    queries: submitted " << submitted << ", completed "
            << (a.engine.completed - b.engine.completed) << ", shed "
            << (a.engine.shed - b.engine.shed) << ", failed "
            << (a.engine.failed - b.engine.failed) << ", cancelled "
            << (a.engine.cancelled - b.engine.cancelled)
            << ", deadline-expired "
            << (a.engine.deadline_exceeded - b.engine.deadline_exceeded)
            << ", compile-rejected "
            << (a.engine.compile_rejected - b.engine.compile_rejected)
            << "; failed_pct "
            << Fixed(submitted > 0 ? 100.0 * static_cast<double>(
                                                 Failures(phase)) /
                                         static_cast<double>(submitted)
                                   : 0.0,
                     3)
            << " %\n"
            << "    latency samples " << latencies.size() << ": p50 "
            << Fixed(Median(latencies) * 1e3, 3) << " ms, p90 "
            << Fixed(Percentile(latencies, 0.90) * 1e3, 3) << " ms, p99 "
            << Fixed(p99 * 1e3, 3) << " ms with " << beyond
            << " samples beyond it"
            << (beyond < 10 ? " (fewer than 10: p99 unresolved)" : "")
            << "\n    whole phase: " << Fixed(completions / phase.wall_s, 2)
            << " qps, " << Fixed(cpu_s * 1e3 / completions, 4)
            << " ms CPU per query\n"
            << SliceLine("qps", SliceQps(phase), 1.0, 1)
            << SliceLine("p50 ms", SliceP50s(phase), 1e3, 3)
            << SliceLine("CPU ms per query", SliceCpuPerQuery(phase), 1e3, 3)
            << "    peak RSS " << Fixed(RssMiB(b), 2)
            << " MiB before the phase, " << Fixed(RssMiB(a), 2)
            << " MiB at its end\n    mix:";
  for (std::size_t t = 0; t < data.types().size(); ++t) {
    std::cout << " " << data.types()[t].name << " "
              << Fixed(100.0 * static_cast<double>(phase.per_type[t]) /
                           std::max(1.0, completions),
                       2)
              << "%";
  }
  std::cout << "\n";
}

std::vector<Metric> EndToEnd(const PhaseResult& phase, const Setup& setup) {
  return {
      {"qps", Qps(phase), "1/s"},
      {"p50_ms", Median(SliceP50s(phase)) * 1e3, "ms"},
      {"cpu_ms_per_query", Median(SliceCpuPerQuery(phase)) * 1e3, "ms"},
      {"setup_s", Median(setup.total_s), "s"},
      {"rss_mb", RssMiB(phase.after), "MiB"},
  };
}

/// Adds one span tree per query of a traced phase: `query` from Submit to
/// the return of Wait, with children `server.submit` and the report's
/// pipeline rows. The report carries durations, not timestamps, so the
/// pipeline spans are laid back to back ending where Wait returned.
void AddQuerySpans(const PhaseResult& phase, double phase_start,
                   SpanLog* spans) {
  for (const QueryRecord& record : phase.records) {
    const double start = phase_start + record.submit_start;
    const double done = phase_start + record.done;
    const std::int64_t query =
        spans->Add("query", start, done, -1, record.id);
    spans->Add("server.submit", start, phase_start + record.submit_end,
               query, record.id);
    double cursor = done - record.pipelines_s;
    for (const PipelineTime& row : record.pipelines) {
      spans->Add("plan." + row.name, cursor, cursor + row.seconds, query,
                 record.id);
      cursor += row.seconds;
    }
  }
}

template <typename T>
double PerQuery(T delta, const PhaseResult& phase) {
  return static_cast<double>(delta) /
         static_cast<double>(std::max<std::size_t>(1, Completed(phase)));
}

/// The per-layer metrics of a traced run, each with the end-to-end metric
/// and the workloads it should move.
std::vector<Metric> PerLayer(const Setup& setup, const PhaseResult& traced,
                             const LayerPass& pass) {
  const Counters& a = traced.after;
  const Counters& b = traced.before;
  std::vector<double> submit, outside, probe;
  std::vector<std::vector<double>> probe_by_type(setup.data->types().size());
  std::size_t built = 0;
  for (const QueryRecord& record : traced.records) {
    submit.push_back(record.submit_end - record.submit_start);
    outside.push_back(record.latency() - record.pipelines_s);
    probe.push_back(record.probe_s);
    probe_by_type[record.type].push_back(record.probe_s);
    built += record.tables_built;
  }
  std::vector<double> contention;
  for (std::size_t t = 0; t < probe_by_type.size(); ++t) {
    contention.push_back(Median(probe_by_type[t]) / pass.solo_probe_s[t]);
  }
  const double hits = static_cast<double>(a.cache.hits - b.cache.hits);
  const double lookups =
      hits + static_cast<double>(a.cache.misses - b.cache.misses);
  const double cache_hit_ratio = lookups > 0.0 ? hits / lookups : 0.0;
  const double stage_gib_s =
      pass.stage_us > 0.0
          ? pass.stage_bytes / (pass.stage_us * 1e-6) / double(1ull << 30)
          : 0.0;
  return {
      {"engine.load_s", Median(setup.load_s), "s", "setup_s", "all"},
      {"plan.cold_pass_s", Median(setup.cold_s), "s", "setup_s",
       "all; largest on adhoc-build"},
      {"server.submit_us", Median(submit) * 1e6, "us", "p50_ms, p99",
       "adhoc-build, short-queries (flat on hot-probe)"},
      {"server.outside_pipeline_us", Median(outside) * 1e6, "us",
       "p50_ms, qps", "short-queries (flat on hot-probe)"},
      {"server.shed",
       static_cast<double>((a.engine.shed - b.engine.shed) +
                           (a.engine.failed - b.engine.failed)),
       "count", "failed_pct", "all (0 expected)"},
      {"plan.compile_us", pass.compile_us, "us", "p50_ms",
       "adhoc-build (flat on hot-probe)"},
      {"plan.cache_hit_ratio", cache_hit_ratio, "ratio", "qps",
       "adhoc-build; stays 1.0 on the other three"},
      {"plan.cache_evictions",
       static_cast<double>(a.cache.evictions - b.cache.evictions), "count",
       "qps, rss_mb", "adhoc-build"},
      {"plan.builds_per_query", PerQuery(built, traced), "count", "qps",
       "adhoc-build; 0 elsewhere"},
      {"plan.build_us", pass.build_us, "us", "qps, p50_ms", "adhoc-build"},
      {"plan.probe_us", Median(probe) * 1e6, "us", "qps, p50_ms",
       "hot-probe"},
      {"plan.probe_ns_per_row", pass.probe_ns_per_row, "ns",
       "qps, cpu_ms_per_query",
       "hot-probe; minor on staged-probe and adhoc-build"},
      {"exec.speedup_2w", pass.solo_1w_us / pass.solo_us, "x",
       "qps, p50_ms", "hot-probe"},
      {"exec.contention", Mean(contention), "x", "qps, p99",
       "hot-probe, short-queries"},
      {"exec.dispatches_per_query",
       PerQuery(a.dispatches - b.dispatches, traced), "count", "p50_ms",
       "short-queries"},
      {"exec.parks_per_query", PerQuery(a.parks - b.parks, traced), "count",
       "p50_ms, cpu_ms_per_query", "short-queries"},
      {"transfer.bytes_per_query",
       PerQuery(a.transfer_bytes - b.transfer_bytes, traced), "B",
       "qps, cpu_ms_per_query", "staged-probe; 0 elsewhere"},
      {"transfer.stage_us", pass.stage_us, "us", "qps, p50_ms",
       "staged-probe"},
      {"transfer.stage_gib_s", stage_gib_s, "GiB/s", "qps", "staged-probe"},
      {"memory.faults_per_query",
       PerQuery(a.minor_faults - b.minor_faults, traced), "count",
       "cpu_ms_per_query, qps", "staged-probe (~2,050); small elsewhere"},
  };
}

/// Where a traced query's time goes, as shares of its mean latency, from
/// the span self times: the query span's own time (queue wait, handoff,
/// resolve), Submit split into compile (its layer pass) and admission,
/// the builds, and the probe row split into staging and the probe proper
/// by staging's share of the solo probe row (its layer pass). A share,
/// not the idle staging time, so that waiting under load is split in
/// proportion rather than charged to the probe alone.
void PrintSelfTimeSplit(const WorkloadSpec& spec, std::size_t queries,
                        const LayerPass& pass, const SpanLog& spans,
                        double untraced_p50_s) {
  const double n = static_cast<double>(std::max<std::size_t>(1, queries));
  double query = 0.0, submit = 0.0, builds = 0.0, probe = 0.0;
  for (const auto& [name, seconds] : spans.SelfTimeByName()) {
    if (name == "query") query = seconds / n;
    if (name == "server.submit") submit = seconds / n;
    if (name.rfind("plan.build[", 0) == 0) builds += seconds / n;
    if (name == "plan.probe") probe = seconds / n;
  }
  const double latency = query + submit + builds + probe;
  const double compile = std::min(pass.compile_us * 1e-6, submit);
  const double staging = probe * pass.stage_share;

  struct Part {
    const char* name;
    double seconds;
  };
  const std::vector<Part> parts = {
      {"query self (queue, handoff, resolve)", query},
      {"server.submit minus compile (admission)", submit - compile},
      {"plan.compile", compile},
      {"plan.build", builds},
      {"transfer.stage", staging},
      {"plan.probe minus staging", probe - staging},
  };
  std::cout << "  self-time split of the mean traced query ("
            << Fixed(latency * 1e3, 3) << " ms):\n";
  const Part* dominant = &parts.front();
  for (const Part& part : parts) {
    std::cout << "    " << std::left << std::setw(42) << part.name
              << std::right << std::setw(10) << Fixed(part.seconds * 1e3, 3)
              << " ms " << std::setw(7)
              << Fixed(100.0 * part.seconds / latency, 1) << " %\n";
    if (part.seconds > dominant->seconds) dominant = &part;
  }
  std::cout << "    dominant: " << dominant->name << "; build + compile "
            << Fixed(100.0 * (builds + compile) / latency, 1)
            << " %; untraced p50 / solo ExecutePlan at " << spec.workers
            << " workers = " << Fixed(untraced_p50_s * 1e3, 3) << " / "
            << Fixed(pass.solo_us * 1e-3, 3) << " ms = "
            << Fixed(untraced_p50_s / (pass.solo_us * 1e-6), 2)
            << "\n    design: " << spec.design << "\n";
}

int Run(const Args& args) {
  const WorkloadSpec* spec_ptr = FindWorkload(args.workload);
  if (spec_ptr == nullptr) Usage("unknown workload '" + args.workload + "'");
  // Never more client threads than online CPUs.
  WorkloadSpec spec = *spec_ptr;
  spec.clients = std::min<std::size_t>(
      spec.clients,
      static_cast<std::size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))));
  const Clock::time_point origin = Clock::now();
  SpanLog spans;

  std::cout << "perfbench " << spec.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "  engine: policy=" << pump::plan::ToString(spec.policy)
            << " session_threads=" << spec.session_threads
            << " queue_capacity=" << spec.queue_capacity
            << " cache_capacity=" << (spec.cache_capacity_bytes >> 20)
            << " MiB; clients=" << spec.clients
            << " workers=" << spec.workers << "\n";

  WarmCpus(kWarmCpuSeconds);
  Setup setup = RunSetup(spec, args, &spans, origin);
  const std::vector<QueryType>& types = setup.data->types();

  // The oracle, outside every timed section.
  std::vector<pe::QueryResult> expected;
  for (const QueryType& type : types) {
    expected.push_back(OracleResult(type.query));
  }
  for (const auto& results : setup.cold_results) {
    for (std::size_t t = 0; t < types.size(); ++t) {
      if (results[t] == expected[t]) continue;
      FailOracle(types.size(),
                 "cold run of " + types[t].name +
                     " differs from the oracle: rows=" +
                     std::to_string(results[t].rows) +
                     " sum=" + std::to_string(results[t].sum) +
                     ", oracle rows=" + std::to_string(expected[t].rows) +
                     " sum=" + std::to_string(expected[t].sum));
    }
  }
  std::cout << "  set-up: " << setup.total_s.size() << " reps, median "
            << Fixed(Median(setup.total_s), 4) << " s (load "
            << Fixed(Median(setup.load_s), 4) << " s, cold pass "
            << Fixed(Median(setup.cold_s), 4) << " s); oracle checked "
            << types.size() << " distinct queries\n";

  if (args.corrupt_oracle) ++expected.front().sum;

  pump::server::QueryEngine& engine = *setup.engine;
  CheckPhase(RunPhase(engine, spec, types, expected,
                      args.seed ^ kWarmupScheduleSalt,
                      std::min(kMaxWarmupSeconds, args.seconds / 5), false),
             "warm-up phase");

  if (!args.trace) {
    const PhaseResult timed =
        RunPhase(engine, spec, types, expected, args.seed, args.seconds,
                 false);
    CheckPhase(timed, "timed phase");
    PrintAccounting(spec, *setup.data, timed, "timed");
    PrintJson(true, Submitted(timed), Failures(timed),
              EndToEnd(timed, setup));
    return 0;
  }

  const PhaseResult untraced =
      RunPhase(engine, spec, types, expected, args.seed, args.seconds / 2,
               false);
  CheckPhase(untraced, "untraced phase");
  const double traced_start = Now(origin);
  const PhaseResult traced = RunPhase(engine, spec, types, expected,
                                      args.seed, args.seconds / 2, true);
  CheckPhase(traced, "traced phase");
  AddQuerySpans(traced, traced_start, &spans);
  const std::int64_t pass_root = spans.Add("layer_pass", Now(origin), 0.0, -1);
  const LayerPass pass =
      RunLayerPasses(spec, *setup.data, &spans, pass_root, origin);
  spans.SetEnd(pass_root, Now(origin));

  PrintAccounting(spec, *setup.data, untraced, "untraced");
  PrintAccounting(spec, *setup.data, traced, "traced");
  std::cout << "  tracing overhead: traced qps " << Fixed(Qps(traced), 2)
            << " vs untraced qps " << Fixed(Qps(untraced), 2) << "\n";
  const std::vector<Metric> metrics = PerLayer(setup, traced, pass);
  std::cout << "  per-layer metrics (should move <metric> on <workloads>):\n";
  for (const Metric& metric : metrics) {
    std::cout << "    " << std::left << std::setw(28) << metric.name
              << std::right << std::setw(14) << Fixed(metric.value, 4) << " "
              << std::left << std::setw(6) << metric.unit << std::right
              << " moves " << metric.moves << " on " << metric.on << "\n";
  }
  PrintSelfTimeSplit(spec, Completed(traced), pass, spans,
                     Median(SliceP50s(untraced)));
  const std::string path = args.spans_dir + "/spans-" + spec.name + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (!spans.Write(path)) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return 2;
  }
  std::cout << "  spans: " << spans.spans().size() << " written to " << path
            << "\n";
  PrintJson(true, Submitted(traced), Failures(traced), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::Parse(argc, argv));
}
