#ifndef PUMP_PLAN_COMPILER_H_
#define PUMP_PLAN_COMPILER_H_

#include <cstdint>
#include <map>

#include "common/status.h"
#include "engine/query.h"
#include "hw/system_profile.h"
#include "plan/plan.h"

namespace pump::plan {

/// How the compiler assigns pipeline placements.
enum class PlacementPolicy : std::uint8_t {
  /// Every pipeline on the CPU — the reference plan.
  kCpuOnly,
  /// GPU-side placements wherever the budget allows: hash tables GPU-
  /// placed, probe heterogeneous. The degradation ladder (retry -> spill
  /// -> per-pipeline CPU re-placement) recovers from faults at runtime.
  kGpuPreferred,
  /// Per-pipeline placement chosen by engine::Advisor / join::CostModel:
  /// the probe pipeline runs where the modelled time is lowest and each
  /// hash table follows the Fig. 11 placement rules of the winning
  /// device. Decides per *step*, not per query.
  kCostModel
};

const char* ToString(PlacementPolicy policy);

/// Compile-time knobs.
struct CompileOptions {
  PlacementPolicy policy = PlacementPolicy::kCpuOnly;
  /// GPU memory available for hash tables, per device. 0 derives it from
  /// the profile's (or the default AC922's) GPU capacity minus a 1 GiB
  /// working-space reserve. A device whose in-flight pool already holds
  /// this much takes no part in the plan; a GPU-placed dense table that
  /// exceeds the smallest remainder among the others becomes hybrid.
  std::uint64_t gpu_budget_bytes = 0;
  /// System profile for the cost-model policy; null uses hw::Ac922Profile.
  const hw::SystemProfile* profile = nullptr;
  /// Cardinality scale factor fed to the cost model (model the same query
  /// shape at paper scale without materializing the data).
  double scale = 1.0;
  /// Candidate GPU devices to shard the plan across (hash-partitioned
  /// build side, all-to-all exchange, parallel shard probes). Every id
  /// must be a GPU of `profile`'s topology. Empty keeps the classic
  /// single-device layout. Under kCpuOnly this is ignored (any other
  /// policy validates it); under kGpuPreferred every unsaturated
  /// candidate becomes a shard; under kCostModel the compiler scores
  /// candidate device sets by modelled per-shard probe time plus
  /// exchange cost and keeps the cheapest.
  DeviceSet shard_devices;
  /// Per-device in-flight bytes of concurrently running queries (the
  /// serving layer's pools), the only GPU-pressure signal. A candidate
  /// device whose pool holds the whole budget is dropped (admission
  /// degrades shard-by-shard); with every candidate saturated the plan
  /// is forced onto the CPU. Null treats every pool as idle.
  const std::map<hw::DeviceId, std::uint64_t>* device_budget_in_use =
      nullptr;
};

/// Compiles `query` into a physical plan: validates the query exactly
/// once (errors carry the offending query shape), derives key statistics
/// per dimension, assigns placements per the policy, then selects each
/// build pipeline's hash-table kind to fit its placement. The query and
/// its tables must outlive the returned plan.
Result<PhysicalPlan> Compile(const engine::Query& query,
                             const CompileOptions& options = {});

/// Structural self-check of a compiled plan (used by tools/plandump and
/// the test suite): probe operators non-empty and well-ordered (filters,
/// then probes, then exactly one trailing aggregate), every probe
/// operator references an existing build pipeline, every build pipeline
/// references an existing join clause, and hash-table kinds are
/// consistent with the key statistics. Returns the first violation.
Status ValidatePlan(const PhysicalPlan& plan);

/// Modelled GPU bytes `plan` occupies per device while executing as
/// placed: GPU-resident hash tables plus the fact columns a GPU or
/// heterogeneous probe reads. A sharded plan divides them evenly across
/// the shard devices; a single-device plan charges everything to its one
/// device. Empty for a CPU-only plan. The server's admission controller
/// charges it to the per-device pools and feeds them back through
/// CompileOptions::device_budget_in_use.
///
/// The probe pulls its columns in place, so their bytes never occupy
/// device memory; the column charge is kept all the same. Dropping it
/// would change which queries the pools admit and where the compiler
/// places them: an admission-policy change, separate from how the bytes
/// move. Meanwhile the charge over-states a GPU-side probe's footprint,
/// which errs towards degrading plans to fewer devices or the CPU early.
std::map<hw::DeviceId, std::uint64_t> EstimatedGpuFootprintPerDevice(
    const PhysicalPlan& plan);

inline const char* ToString(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kCpuOnly:
      return "cpu";
    case PlacementPolicy::kGpuPreferred:
      return "gpu";
    case PlacementPolicy::kCostModel:
      return "cost";
  }
  return "?";
}

}  // namespace pump::plan

#endif  // PUMP_PLAN_COMPILER_H_
