#ifndef PUMP_PLAN_PLAN_H_
#define PUMP_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query.h"
#include "engine/table.h"
#include "hw/device.h"
#include "ops/scan.h"

namespace pump::hw {
struct SystemProfile;
}  // namespace pump::hw

namespace pump::plan {

/// Where a pipeline executes. Placements are modelled (the GPU is
/// simulated): kGpu pulls the referenced fact columns in place over the
/// interconnect (chunk by chunk through the transfer failpoints, no
/// device copy) and drives a GPU proxy scheduler group; kHeterogeneous
/// adds the CPU worker group next to the GPU proxy (the paper's Sec. 6.1
/// scheme); kCpu runs the plain host morsel loop.
enum class PipelinePlacement : std::uint8_t { kCpu, kGpu, kHeterogeneous };

/// Which hash table implements a build pipeline's dimension table.
/// Selection matrix (see DESIGN.md Sec. 10), chosen after placement:
///   dense keys, CPU-placed or fits the GPU headroom   -> kPerfect
///   dense keys, GPU-placed, exceeds the GPU headroom
///     (or split across memories by the cost model)    -> kHybrid
///   sparse or negative keys                           -> kLinearProbing
enum class HashTableKind : std::uint8_t {
  kPerfect,
  kLinearProbing,
  kHybrid
};

/// Operator kinds of a probe pipeline. A pipeline is a short vector of
/// operators executed per tuple within a morsel: conjunctive filters,
/// semi-join probes against built dimension tables, and the aggregate.
enum class OpKind : std::uint8_t { kScanFilter, kProbe, kAggregate };

const char* ToString(PipelinePlacement placement);
const char* ToString(HashTableKind kind);
const char* ToString(OpKind kind);
const char* ToString(ops::CompareOp op);

/// Which devices carry a GPU-side pipeline: placement by device set, not
/// by side. Empty for CPU placements; one entry for classic single-GPU
/// plans; several entries when the plan is sharded across a mesh.
using DeviceSet = std::vector<hw::DeviceId>;

/// What a GPU-placed hash table of `table_bytes` holds on device `index`
/// of its `devices`-device set: an even share, with the remainder on the
/// first device. The probe pulls fact columns in place, so these
/// fragments are all a plan holds in device memory; compile headroom,
/// the admission footprint and the executor's modelled placement all
/// count them.
inline std::uint64_t FragmentBytes(std::uint64_t table_bytes,
                                   std::size_t devices, std::size_t index) {
  const std::uint64_t share = table_bytes / devices;
  return index == 0 ? table_bytes - share * (devices - 1) : share;
}

/// How a GPU-side plan is sharded across its device set. Shard `s` owns
/// every fact tuple whose first probe key hashes to `s` modulo
/// `devices.size()` (hash partitioning; a join-free plan partitions by
/// row range instead). The build side is hash-partitioned the same way,
/// so probes are shard-local after the all-to-all exchange.
struct ShardDescriptor {
  DeviceSet devices;

  std::size_t shard_count() const { return devices.size(); }
  /// Sharding only changes execution when more than one device shares
  /// the plan; a one-device "shard" is the classic single-GPU layout.
  bool active() const { return devices.size() > 1; }
};

/// One routed peer path of the exchange stage: partitions from the shard
/// on `src` destined for the shard on `dst`, over the minimum-hop route
/// of the modelled topology.
struct ExchangeRoute {
  hw::DeviceId src = hw::kInvalidDevice;
  hw::DeviceId dst = hw::kInvalidDevice;
  /// Interconnect hops of the route (1 = direct peer link; more means a
  /// bounce through host sockets on AC922-style meshes).
  std::size_t hops = 0;
  /// True for a single-hop NVLink/NVSwitch/P2P peer route.
  bool direct = false;
  /// Sequential bandwidth of the narrowest link on the route, GiB/s.
  double bottleneck_gib_s = 0.0;
};

/// The all-to-all partition exchange between shards: every (src, dst)
/// pair with src != dst, routed over the mesh. `modelled_cost_s` is the
/// exchange's predicted wall time — the busiest link's transfer time
/// plus the longest route's hop latency — which is what the cost-model
/// policy scores candidate device sets by.
struct ExchangeStage {
  std::vector<ExchangeRoute> routes;
  double modelled_cost_s = 0.0;
};

/// One operator of a probe pipeline. Only the fields of the given kind
/// are meaningful: kScanFilter uses {column, op, literal}; kProbe uses
/// {column (the fact key), build_index}; kAggregate uses {column}.
struct Operator {
  OpKind kind = OpKind::kScanFilter;
  std::string column;
  ops::CompareOp op = ops::CompareOp::kEq;
  std::int64_t literal = 0;
  /// Index into PhysicalPlan::builds of the table this probe consumes.
  std::size_t build_index = 0;
};

/// Key-domain statistics of one dimension join key, read at compile time
/// from the key column's memoized range (engine::Table::Range); they
/// drive the hash-table choice.
struct KeyStats {
  std::int64_t min_key = 0;
  std::int64_t max_key = -1;
  std::size_t rows = 0;
  /// rows / (max_key + 1); 1.0 means a dense [0, rows) key domain. 0 when
  /// the dimension is empty or holds negative keys.
  double density = 0.0;
};

/// A build pipeline: scan one dimension table (optionally filtered) and
/// build its semi-join hash table. One per join clause, independent of
/// the other builds — the build stage of the pipeline DAG.
struct BuildPipeline {
  /// Index of the source join clause in the query.
  std::size_t join_index = 0;
  const engine::Table* dimension = nullptr;
  std::string key_column;
  engine::Filter dim_filter;
  bool has_dim_filter = false;

  KeyStats keys;
  HashTableKind table_kind = HashTableKind::kLinearProbing;
  PipelinePlacement placement = PipelinePlacement::kCpu;
  /// Devices carrying this build's hash table: empty for CPU placements,
  /// one device for single-GPU plans, the shard set when the table is
  /// hash-partitioned across a mesh.
  DeviceSet device_set;
  /// Modelled hash-table storage footprint (total across the device set).
  std::uint64_t table_bytes = 0;
  /// Modelled build time (seconds) on the chosen placement; 0 when no
  /// cost model was consulted.
  double modelled_cost_s = 0.0;
};

/// The probe pipeline: scan the fact table morsel-wise, apply the filter
/// operators, probe every built dimension table, aggregate. Exactly one
/// per query (the paper's evaluated shapes are single-fact stars).
struct ProbePipeline {
  std::vector<Operator> ops;
  PipelinePlacement placement = PipelinePlacement::kCpu;
  /// Devices running the probe: empty for CPU placements, one device for
  /// single-GPU plans, the shard set for sharded plans.
  DeviceSet device_set;
  /// Modelled probe-pipeline time (seconds); 0 when no cost model ran.
  double modelled_cost_s = 0.0;
};

/// The query shape attached to every compile-time diagnostic, so a
/// validation error identifies the offending query without a debugger.
struct QueryShape {
  std::size_t fact_rows = 0;
  std::size_t filters = 0;
  std::size_t joins = 0;

  std::string ToString() const {
    return "fact_rows=" + std::to_string(fact_rows) +
           " filters=" + std::to_string(filters) +
           " joins=" + std::to_string(joins);
  }
};

/// A compiled physical plan: a DAG of build pipelines feeding one probe
/// pipeline. The query (and its tables) must outlive the plan. Every
/// execution path of the engine — Executor::Run, RunResilient, the SSB
/// queries, TPC-H Q6 — flows through this IR.
struct PhysicalPlan {
  const engine::Query* query = nullptr;
  QueryShape shape;
  std::vector<BuildPipeline> builds;
  ProbePipeline probe;
  /// Shard layout of a multi-device plan; inactive (<= 1 device) for
  /// CPU-only and single-GPU plans. When active, the executor hash-
  /// partitions fact rows across the shard devices, runs the exchange
  /// stage, and probes the shards one after another, each across the
  /// query's workers — bit-identically to the single-device plan.
  ShardDescriptor shard;
  /// The exchange stage of a sharded plan (empty routes otherwise).
  ExchangeStage exchange;
  /// Profile whose topology the plan's device ids and exchange routes
  /// refer to; null means the default AC922 testbed. Must outlive the
  /// plan, like the query.
  const hw::SystemProfile* profile = nullptr;
  /// Human-readable placement rationale (cost-model policy, or the
  /// saturation note below).
  std::string rationale;
  /// True when a GPU-requesting policy was forced onto the CPU because
  /// concurrent queries saturated every candidate device's in-flight pool
  /// (CompileOptions::device_budget_in_use) — the serving layer's
  /// graceful-degradation signal.
  bool forced_cpu_by_pressure = false;

  /// True when any pipeline carries a GPU-side placement.
  bool UsesGpu() const {
    if (probe.placement != PipelinePlacement::kCpu) return true;
    for (const BuildPipeline& build : builds) {
      if (build.placement != PipelinePlacement::kCpu) return true;
    }
    return false;
  }
};

inline const char* ToString(PipelinePlacement placement) {
  switch (placement) {
    case PipelinePlacement::kCpu:
      return "cpu";
    case PipelinePlacement::kGpu:
      return "gpu";
    case PipelinePlacement::kHeterogeneous:
      return "heterogeneous";
  }
  return "?";
}

inline const char* ToString(HashTableKind kind) {
  switch (kind) {
    case HashTableKind::kPerfect:
      return "perfect";
    case HashTableKind::kLinearProbing:
      return "linear_probing";
    case HashTableKind::kHybrid:
      return "hybrid";
  }
  return "?";
}

inline const char* ToString(OpKind kind) {
  switch (kind) {
    case OpKind::kScanFilter:
      return "scan_filter";
    case OpKind::kProbe:
      return "probe";
    case OpKind::kAggregate:
      return "aggregate";
  }
  return "?";
}

inline const char* ToString(ops::CompareOp op) {
  switch (op) {
    case ops::CompareOp::kLt:
      return "lt";
    case ops::CompareOp::kLe:
      return "le";
    case ops::CompareOp::kEq:
      return "eq";
    case ops::CompareOp::kGe:
      return "ge";
    case ops::CompareOp::kGt:
      return "gt";
    case ops::CompareOp::kNe:
      return "ne";
  }
  return "?";
}

}  // namespace pump::plan

#endif  // PUMP_PLAN_PLAN_H_
