#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "engine/executor.h"
#include "hw/topology.h"
#include "memory/buffer.h"
#include "plan/build_cache.h"
#include "plan/executor.h"
#include "plan/operators.h"
#include "stats.h"
#include "transfer/executor.h"

namespace perfbench {

namespace pp = pump::plan;

namespace {

using Tables = std::vector<std::shared_ptr<const pp::DimensionTable>>;

constexpr int kReps = 5;
/// Solo executions per query and worker count: at least kReps rounds and
/// at least this long, back to back, so the pool stays busy throughout.
constexpr double kSoloSecondsPerQuery = 0.1;

/// Exits on a failed layer call: every workload is built so none fails.
template <typename T>
T Check(pump::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::cerr << "perfbench: " << what
              << " failed: " << result.status().ToString() << "\n";
    std::exit(2);
  }
  return std::move(result).value();
}

/// Build identity: the fields that make two builds produce the same table.
std::string BuildKey(const pp::BuildPipeline& build) {
  std::string key = std::to_string(
      reinterpret_cast<std::uintptr_t>(build.dimension));
  key += "/" + build.key_column + "/" + pp::ToString(build.table_kind);
  if (build.has_dim_filter) {
    key += "/" + build.dim_filter.column + pp::ToString(build.dim_filter.op) +
           std::to_string(build.dim_filter.literal);
  }
  return key;
}

class PassTimer {
 public:
  PassTimer(SpanLog* spans, std::int64_t root, Clock::time_point origin)
      : spans_(spans), root_(root), origin_(origin) {}

  /// Runs `fn` under a span named `name`; returns its seconds.
  template <typename Fn>
  double Time(const char* name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    spans_->Add(name, SecondsBetween(origin_, start),
                SecondsBetween(origin_, end), root_);
    return SecondsBetween(start, end);
  }

 private:
  SpanLog* spans_;
  std::int64_t root_;
  Clock::time_point origin_;
};

}  // namespace

LayerPass RunLayerPasses(const WorkloadSpec& spec, const Dataset& data,
                         SpanLog* spans, std::int64_t root,
                         Clock::time_point origin) {
  PassTimer timer(spans, root, origin);
  const std::vector<QueryType>& types = data.types();
  const pump::engine::Table& fact = data.fact();
  const pp::CompileOptions compile_options = CompileOptionsFor(spec);
  LayerPass pass;

  // plan: the compiler alone.
  std::vector<pp::PhysicalPlan> plans;
  std::vector<double> compile_s;
  for (const QueryType& type : types) {
    std::vector<double> times;
    for (int r = 0; r < kReps; ++r) {
      pp::PhysicalPlan plan;
      times.push_back(timer.Time("pass.compile", [&] {
        plan = Check(pp::Compile(type.query, compile_options), "compile");
      }));
      if (r == 0) plans.push_back(std::move(plan));
    }
    compile_s.push_back(Median(times));
  }
  pass.compile_us = Mean(compile_s) * 1e6;

  // plan: builds, then the probe loop on one thread over the host
  // columns, then staging of the probe columns. Staging is timed for
  // every plan, also where the engine places the probe on the CPU and
  // stages nothing, so transfer.stage_us is a measured cost on every
  // workload; only GPU placements count towards the staging share.
  const pp::ColumnSource host_columns =
      [&fact](const std::string& name) -> pump::Result<const std::int64_t*> {
    PUMP_ASSIGN_OR_RETURN(const auto* column, fact.Column(name));
    return column->data();
  };
  std::map<std::string, double> build_s;
  std::vector<double> probe_ns, stage_s, stage_bytes;
  double stage_total_s = 0.0;
  for (const pp::PhysicalPlan& plan : plans) {
    Tables tables;
    for (const pp::BuildPipeline& build : plan.builds) {
      const std::string key = BuildKey(build);
      const int reps = build_s.count(key) > 0 ? 1 : kReps;
      std::vector<double> times;
      std::shared_ptr<const pp::DimensionTable> table;
      for (int r = 0; r < reps; ++r) {
        times.push_back(timer.Time("pass.build", [&] {
          table = std::make_shared<const pp::DimensionTable>(
              Check(pp::DimensionTable::Build(build), "build"));
        }));
      }
      if (reps == kReps) build_s[key] = Median(times);
      tables.push_back(std::move(table));
    }

    const pp::BoundProbe bound =
        Check(pp::BindProbe(plan, tables, host_columns), "bind");
    std::vector<double> times;
    for (int r = 0; r < kReps; ++r) {
      std::uint64_t rows = 0;
      std::int64_t sum = 0;
      times.push_back(timer.Time("pass.probe", [&] {
        pp::ProcessRange(bound, 0, fact.rows(), &rows, &sum);
      }));
    }
    probe_ns.push_back(
        Median(times) * 1e9 /
        static_cast<double>(std::max<std::size_t>(1, fact.rows())));

    std::vector<double> stage_times;
    double bytes = 0.0;
    for (int r = 0; r < kReps; ++r) {
      std::vector<pump::memory::Buffer> staged;
      double seconds = 0.0;
      bytes = 0.0;
      const pp::ColumnSource stage =
          [&](const std::string& name) -> pump::Result<const std::int64_t*> {
        PUMP_ASSIGN_OR_RETURN(const auto* column, fact.Column(name));
        const std::uint64_t column_bytes =
            column->size() * sizeof(std::int64_t);
        pump::Result<pump::memory::Buffer> device =
            pump::Status::Internal("column not staged");
        seconds += timer.Time("pass.stage", [&] {
          const pump::engine::ExecOptions defaults;
          device = pump::transfer::StageToDevice(
              column->data(), column_bytes, pump::hw::kGpu0,
              defaults.chunk_bytes, defaults.os_page_bytes);
        });
        PUMP_RETURN_NOT_OK(device.status());
        bytes += static_cast<double>(column_bytes);
        staged.push_back(std::move(device).value());
        return staged.back().as<const std::int64_t>();
      };
      Check(pp::BindProbe(plan, tables, stage), "staged bind");
      stage_times.push_back(seconds);
    }
    stage_s.push_back(Median(stage_times));
    if (plan.probe.placement != pp::PipelinePlacement::kCpu) {
      stage_total_s += stage_s.back();
    }
    stage_bytes.push_back(bytes);
  }
  std::vector<double> distinct_builds;
  for (const auto& [key, seconds] : build_s) distinct_builds.push_back(seconds);
  pass.build_us = Mean(distinct_builds) * 1e6;
  pass.probe_ns_per_row = Mean(probe_ns);
  pass.stage_us = Mean(stage_s) * 1e6;
  pass.stage_bytes = Mean(stage_bytes);

  // exec: solo plan::ExecutePlan at 1 worker and at the workload's
  // worker count, alternating back to back, builds served from a warm
  // private cache so only the probe and its fork-join phases remain.
  std::vector<double> solo_1w_s, solo_s;
  for (const pp::PhysicalPlan& plan : plans) {
    pp::BuildCache cache(1ull << 40);
    pump::engine::ExecOptions options;
    options.gpu_plan = plan.UsesGpu();
    options.build_cache = &cache;
    Check(pp::ExecutePlan(plan, options), "warm solo run");
    std::vector<double> one, many, probe;
    const Clock::time_point start = Clock::now();
    while (one.size() < static_cast<std::size_t>(kReps) ||
           SecondsBetween(start, Clock::now()) < kSoloSecondsPerQuery) {
      options.workers = 1;
      one.push_back(timer.Time("pass.execute_1w", [&] {
        Check(pp::ExecutePlan(plan, options), "solo run");
      }));
      options.workers = spec.workers;
      pump::engine::ExecReport report;
      many.push_back(timer.Time("pass.execute", [&] {
        report = Check(pp::ExecutePlan(plan, options), "solo run");
      }));
      probe.push_back(report.pipelines.back().measured_s);
    }
    solo_1w_s.push_back(Median(one));
    solo_s.push_back(Median(many));
    pass.solo_probe_s.push_back(Median(probe));
  }
  pass.solo_1w_us = Mean(solo_1w_s) * 1e6;
  pass.solo_us = Mean(solo_s) * 1e6;
  const double solo_probe_total_s = Mean(pass.solo_probe_s) *
                                    static_cast<double>(plans.size());
  if (solo_probe_total_s > 0.0) {
    pass.stage_share = std::min(1.0, stage_total_s / solo_probe_total_s);
  }
  return pass;
}

}  // namespace perfbench
