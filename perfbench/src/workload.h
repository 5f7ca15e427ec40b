// Workload definitions of the serving benchmark: engine settings, the
// seeded input tables, each workload's distinct queries, and the result
// oracle every completed query is checked against.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/query.h"
#include "engine/ssb.h"
#include "engine/table.h"
#include "plan/compiler.h"
#include "server/query_engine.h"

namespace perfbench {

enum class DataKind { kSsb, kAdhocJoin };

/// One closed-loop workload: the inputs, the engine settings and the
/// client load. Every field is fixed; only the seed varies between runs.
struct WorkloadSpec {
  const char* name;
  /// The layer the workload is built to load, as the traced run's
  /// self-time split should show it.
  const char* design;
  DataKind data;
  /// Fact rows (SSB lineorder, or the ad-hoc fact table).
  std::size_t fact_rows;
  pump::plan::PlacementPolicy policy;
  std::size_t session_threads;
  std::size_t queue_capacity;
  std::uint64_t cache_capacity_bytes;
  /// Closed-loop client threads (never more than nproc).
  std::size_t clients;
  /// CPU probe workers per query (SubmitOptions::workers).
  std::size_t workers;
};

const std::vector<WorkloadSpec>& Workloads();
/// Null when no workload has that name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Engine settings of `spec`.
pump::server::EngineOptions EngineOptionsFor(const WorkloadSpec& spec);
/// The compile options the engine uses for `spec` (layer passes compile
/// exactly as admission does, minus the in-flight GPU pressure).
pump::plan::CompileOptions CompileOptionsFor(const WorkloadSpec& spec);

/// One distinct query of a workload's mix.
struct QueryType {
  std::string name;
  pump::engine::Query query;
};

/// The seeded tables of one workload and its distinct queries. Queries
/// point into the tables, so a dataset never moves.
class Dataset {
 public:
  /// Generates the inputs of `spec` from `seed` (same seed, same tables).
  static std::unique_ptr<Dataset> Load(const WorkloadSpec& spec,
                                       std::uint64_t seed);

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  const std::vector<QueryType>& types() const { return types_; }
  /// The fact table every query scans.
  const pump::engine::Table& fact() const { return *types_.front().query.fact; }

 private:
  Dataset() = default;

  pump::engine::SsbDatabase ssb_;
  pump::engine::Table fact_;
  pump::engine::Table dim_;
  std::vector<QueryType> types_;
};

/// Reference result of `query`: qualifying rows and the measure sum,
/// computed with plain loops over the columns (sorted key vectors for
/// the semi-joins) and no plan/ops/hash code, so it shares nothing with
/// the program under test.
pump::engine::QueryResult OracleResult(const pump::engine::Query& query);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
