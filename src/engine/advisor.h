#ifndef PUMP_ENGINE_ADVISOR_H_
#define PUMP_ENGINE_ADVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/query.h"
#include "hw/system_profile.h"
#include "join/cost_model.h"
#include "transfer/transfer_model.h"

namespace pump::engine {

/// Size statistics of a query at target (paper) scale — the planner input
/// a catalog would provide. `FromQuery` derives them from functional
/// tables, optionally scaled up.
struct QueryStats {
  /// Fact-table cardinality.
  double fact_rows = 0;
  /// Bytes per fact row the query touches (filters + keys + measure).
  double fact_bytes_per_row = 0;
  /// Combined selectivity of the fact filters.
  double filter_selectivity = 1.0;
  /// Per-join dimension cardinalities (post dimension-filter).
  std::vector<double> dimension_rows;
};

/// Derives stats from a functional query, scaling cardinalities by
/// `scale` (e.g. model the behaviour of the same query at 1000x the
/// sample data).
QueryStats StatsFromQuery(const Query& query, double scale = 1.0);

/// The advisor's output: which processor runs the query, how data moves,
/// where each join's hash table lives, and the predicted runtime.
struct PlanChoice {
  hw::DeviceId device = hw::kInvalidDevice;
  transfer::TransferMethod method = transfer::TransferMethod::kCoherence;
  std::vector<join::HashTablePlacement> join_placements;
  /// Modelled time to build each join's hash table on `device` under its
  /// placement, in join order (part of `predicted_seconds`).
  std::vector<Seconds> join_build_seconds;
  Seconds predicted_seconds;
  std::string rationale;
};

/// Model-driven physical planner: evaluates the query on every processor
/// of the profile (CPU sockets and GPUs, with the appropriate transfer
/// method and the Fig. 11 placement rules per join) and returns the
/// cheapest plan. This is the piece a database optimizer would call —
/// the paper's decision tree (Fig. 11), generalized to whole queries.
class Advisor {
 public:
  explicit Advisor(const hw::SystemProfile* profile);

  /// Bytes of `gpu`'s memory the Fig. 11 placement lets hash tables use:
  /// its capacity minus a 1 GiB working-space reserve (0 when smaller).
  static std::uint64_t GpuHashTableBudget(const hw::Topology& topology,
                                          hw::DeviceId gpu);

  /// Recommends a plan for `stats`; data is assumed to live in the CPU
  /// memory node `data_location`.
  Result<PlanChoice> Recommend(const QueryStats& stats,
                               hw::MemoryNodeId data_location) const;

  /// Predicts the runtime of `stats` on a specific device/method (used by
  /// Recommend; exposed for tests and what-if exploration). When given,
  /// `placements` and `build_seconds` receive each join's hash-table
  /// placement and modelled build time.
  Result<Seconds> Predict(const QueryStats& stats, hw::DeviceId device,
                         transfer::TransferMethod method,
                         hw::MemoryNodeId data_location,
                         std::vector<join::HashTablePlacement>* placements =
                             nullptr,
                         std::vector<Seconds>* build_seconds = nullptr) const;

 private:
  const hw::SystemProfile* profile_;
  join::NopaJoinModel nopa_;
  transfer::TransferModel transfer_model_;
};

}  // namespace pump::engine

#endif  // PUMP_ENGINE_ADVISOR_H_
