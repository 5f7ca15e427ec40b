#ifndef PUMP_PLAN_EXECUTOR_H_
#define PUMP_PLAN_EXECUTOR_H_

#include "common/status.h"
#include "engine/executor.h"
#include "plan/plan.h"

namespace pump::plan {

/// Executes a compiled plan under the fault model, morsel-wise through
/// the exec layer. The degradation ladder operates per pipeline:
///
///  * Build pipelines run exactly once; their hash tables are cached and
///    reused by every later rung (a GPU-side probe failure no longer
///    discards completed builds). A GPU-placed build that loses its
///    device placement (plan.pipeline failpoint, or hybrid allocation
///    failure) is re-placed on the CPU; a partial device allocation
///    spills (rung 2) and is reported via hybrid_gpu_fraction.
///  * A GPU/heterogeneous probe pipeline pulls the fact columns in
///    place, chunk-wise with per-chunk retry (rung 1), and schedules
///    CPU+GPU groups with failover; on an unrecoverable fault it is
///    re-placed on the CPU (rung 3), probing the cached tables.
///
/// The result is bit-identical across every rung — that is the contract
/// the golden equivalence suite pins down.
Result<engine::ExecReport> ExecutePlan(const PhysicalPlan& plan,
                                       const engine::ExecOptions& options);

}  // namespace pump::plan

#endif  // PUMP_PLAN_EXECUTOR_H_
