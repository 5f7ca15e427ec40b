// Layer passes of the traced run: direct public calls into one layer at
// a time (compiler, build, probe, staging, executor) on each distinct
// query of a workload, with the engine idle.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "loop.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

struct LayerPass {
  /// Means over the distinct queries (whose shares are equal) of each
  /// query's median call time.
  double compile_us = 0.0;
  double probe_ns_per_row = 0.0;
  /// Staging of the query's probe columns, timed whether or not the
  /// engine places its probe on a GPU.
  double stage_us = 0.0;
  double stage_bytes = 0.0;
  /// Solo plan::ExecutePlan latency at 1 worker and at the workload's
  /// worker count.
  double solo_1w_us = 0.0;
  double solo_us = 0.0;
  /// Mean over distinct builds of the median DimensionTable::Build time.
  double build_us = 0.0;
  /// Per query type: median probe-row measured_s of the solo runs at the
  /// workload's worker count.
  std::vector<double> solo_probe_s;
  /// Staging's share of the solo probe row: the distinct queries' summed
  /// staging time over their summed solo probe-row time.
  double stage_share = 0.0;
};

/// Runs every pass on `data`; each call gets a span under `root`, with
/// times measured from `origin`.
LayerPass RunLayerPasses(const WorkloadSpec& spec, const Dataset& data,
                         SpanLog* spans, std::int64_t root,
                         Clock::time_point origin);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
