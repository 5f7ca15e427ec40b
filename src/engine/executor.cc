#include "engine/executor.h"

#include "plan/compiler.h"
#include "plan/executor.h"

namespace pump::engine {

// The executor is a thin shim over the plan IR: queries compile once
// (validation with query-shape diagnostics happens there) and execute
// through plan::ExecutePlan's per-pipeline ladder. No query-shape-
// specific kernel code lives here — operators do.

Result<QueryResult> Executor::Run(const Query& query, std::size_t workers) {
  plan::CompileOptions compile_options;
  compile_options.policy = plan::PlacementPolicy::kCpuOnly;
  PUMP_ASSIGN_OR_RETURN(const plan::PhysicalPlan physical,
                        plan::Compile(query, compile_options));
  ExecOptions options;
  options.workers = workers;
  PUMP_ASSIGN_OR_RETURN(const ExecReport report,
                        plan::ExecutePlan(physical, options));
  return report.result;
}

Result<ExecReport> Executor::RunResilient(const Query& query,
                                          const ExecOptions& options) {
  plan::CompileOptions compile_options;
  compile_options.policy = options.gpu_plan
                               ? plan::PlacementPolicy::kGpuPreferred
                               : plan::PlacementPolicy::kCpuOnly;
  PUMP_ASSIGN_OR_RETURN(const plan::PhysicalPlan physical,
                        plan::Compile(query, compile_options));
  return plan::ExecutePlan(physical, options);
}

}  // namespace pump::engine
