#include "plan/compiler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "engine/advisor.h"
#include "hash/hash_table.h"
#include "hw/topology.h"
#include "join/cost_model.h"

namespace pump::plan {

namespace {

using Storage = hash::TableStorage<std::int64_t, std::int64_t>;
using LinearTable = hash::LinearProbingHashTable<std::int64_t, std::int64_t>;

/// Key domains at least this dense qualify for the perfect hash table
/// (slot = key). Below it the wasted slots outweigh the probe savings and
/// the linear-probing table wins.
constexpr double kDenseKeyDensity = 0.5;

Status Annotate(Status status, const QueryShape& shape) {
  if (status.ok()) return status;
  return Status(status.code(),
                status.message() + " (query shape: " + shape.ToString() +
                    ")");
}

/// The single validation pass of the whole engine: runs once per
/// Compile, never again per execution attempt. Every error names the
/// offending query shape.
Status Validate(const engine::Query& query, const QueryShape& shape) {
  if (query.fact == nullptr) {
    return Annotate(Status::InvalidArgument("query has no fact table"),
                    shape);
  }
  if (!query.fact->HasColumn(query.measure_column)) {
    return Annotate(
        Status::NotFound("measure column '" + query.measure_column +
                         "' missing from fact table"),
        shape);
  }
  for (const engine::Filter& filter : query.filters) {
    if (!query.fact->HasColumn(filter.column)) {
      return Annotate(Status::NotFound("filter column '" + filter.column +
                                       "' missing from fact table"),
                      shape);
    }
  }
  for (const engine::JoinClause& join : query.joins) {
    if (join.dimension == nullptr) {
      return Annotate(
          Status::InvalidArgument("join without dimension table"), shape);
    }
    if (!query.fact->HasColumn(join.fact_key_column)) {
      return Annotate(Status::NotFound("join key '" + join.fact_key_column +
                                       "' missing from fact table"),
                      shape);
    }
    if (!join.dimension->HasColumn(join.dim_key_column)) {
      return Annotate(
          Status::NotFound("dimension key '" + join.dim_key_column +
                           "' missing from dimension"),
          shape);
    }
    if (join.has_dim_filter &&
        !join.dimension->HasColumn(join.dim_filter.column)) {
      return Annotate(Status::NotFound("dimension filter column '" +
                                       join.dim_filter.column + "' missing"),
                      shape);
    }
  }
  return Status::OK();
}

KeyStats GatherKeyStats(const std::vector<std::int64_t>& keys) {
  KeyStats stats;
  stats.rows = keys.size();
  if (keys.empty()) return stats;
  stats.min_key = *std::min_element(keys.begin(), keys.end());
  stats.max_key = *std::max_element(keys.begin(), keys.end());
  if (stats.min_key >= 0) {
    stats.density = static_cast<double>(stats.rows) /
                    static_cast<double>(stats.max_key + 1);
  }
  return stats;
}

bool DenseKeys(const KeyStats& keys) {
  return keys.rows > 0 && keys.min_key >= 0 &&
         keys.density >= kDenseKeyDensity;
}

/// Storage footprint of the chosen table kind.
std::uint64_t TableBytes(const KeyStats& keys, HashTableKind kind) {
  if (kind == HashTableKind::kPerfect || kind == HashTableKind::kHybrid) {
    return Storage::BytesFor(static_cast<std::size_t>(keys.max_key + 1));
  }
  return Storage::BytesFor(
      LinearTable::CapacityFor(std::max<std::size_t>(1, keys.rows), 0.5));
}

/// Hash-table selection matrix (DESIGN.md Sec. 10): perfect for dense
/// key domains, hybrid when a dense table exceeds the GPU budget of a
/// GPU-side placement, linear probing otherwise.
HashTableKind ChooseTableKind(const KeyStats& keys, bool gpu_placed,
                              std::uint64_t budget_bytes,
                              std::uint64_t* gpu_used) {
  if (!DenseKeys(keys)) return HashTableKind::kLinearProbing;
  const std::uint64_t bytes = TableBytes(keys, HashTableKind::kPerfect);
  if (gpu_placed) {
    if (*gpu_used + bytes > budget_bytes) return HashTableKind::kHybrid;
    *gpu_used += bytes;
  }
  return HashTableKind::kPerfect;
}

const hw::SystemProfile& ProfileOrDefault(const hw::SystemProfile* profile) {
  static const hw::SystemProfile kDefault = hw::Ac922Profile();
  return profile != nullptr ? *profile : kDefault;
}

/// First GPU of the topology — the primary device of single-GPU plans.
hw::DeviceId PrimaryGpu(const hw::Topology& topo) {
  const std::vector<hw::DeviceId> gpus =
      topo.DevicesOfKind(hw::DeviceKind::kGpu);
  return gpus.empty() ? hw::kInvalidDevice : gpus.front();
}

std::uint64_t DefaultGpuBudget(const hw::SystemProfile* profile) {
  const hw::Topology& topo = ProfileOrDefault(profile).topology;
  const hw::DeviceId gpu = PrimaryGpu(topo);
  if (gpu == hw::kInvalidDevice) return 0;
  return engine::Advisor::GpuHashTableBudget(topo, gpu);
}

/// Cost-model placement: evaluates the whole pipeline DAG on every
/// device via engine::Advisor (which wraps join::NopaJoinModel /
/// transfer::TransferModel) and adopts the winner's per-join hash-table
/// placements and modelled build times — placement per step, not per
/// query.
Status PlaceByCostModel(const engine::Query& query,
                        const CompileOptions& options, PhysicalPlan* plan) {
  const hw::SystemProfile& profile = ProfileOrDefault(options.profile);
  const engine::Advisor advisor(&profile);
  const engine::QueryStats stats =
      engine::StatsFromQuery(query, options.scale);
  PUMP_ASSIGN_OR_RETURN(engine::PlanChoice choice,
                        advisor.Recommend(stats, hw::kCpu0));
  const bool gpu_wins =
      profile.topology.device(choice.device).kind == hw::DeviceKind::kGpu;
  plan->rationale = choice.rationale;
  plan->probe.placement = gpu_wins ? PipelinePlacement::kHeterogeneous
                                   : PipelinePlacement::kCpu;
  plan->probe.modelled_cost_s = choice.predicted_seconds.seconds();

  for (std::size_t i = 0; i < plan->builds.size(); ++i) {
    BuildPipeline& build = plan->builds[i];
    const join::HashTablePlacement& placement = choice.join_placements[i];
    const bool gpu_placed =
        gpu_wins && !placement.parts.empty() &&
        placement.parts[0].node == choice.device;
    build.placement =
        gpu_placed ? PipelinePlacement::kGpu : PipelinePlacement::kCpu;
    if (gpu_placed && placement.parts.size() > 1 && DenseKeys(build.keys)) {
      build.table_kind = HashTableKind::kHybrid;
      build.table_bytes = TableBytes(build.keys, build.table_kind);
    }
    build.modelled_cost_s = choice.join_build_seconds[i].seconds();
  }
  return Status::OK();
}

/// Bytes the probe pipeline stages into device memory: one column per
/// probe operator (measure, filters, probe keys), fact_rows 64-bit values
/// each. This is also the tuple payload the exchange redistributes.
std::uint64_t StagedProbeBytes(const PhysicalPlan& plan) {
  return static_cast<std::uint64_t>(plan.probe.ops.size()) *
         plan.shape.fact_rows * sizeof(std::int64_t);
}

/// Device-set placement (the "which devices", not "which side" pass):
/// validates the shard candidates against the profile topology, drops
/// candidates whose per-device pool is saturated (admission degrades
/// shard-by-shard before it degrades to CPU), scores candidate subsets
/// under the cost-model policy by per-shard probe time plus modelled
/// exchange cost, and annotates the plan with its shard descriptor,
/// per-pipeline device sets and exchange stage.
Status PlaceShards(const CompileOptions& options, std::uint64_t budget,
                   PhysicalPlan* plan) {
  const hw::SystemProfile& profile = ProfileOrDefault(options.profile);
  const hw::Topology& topo = profile.topology;

  DeviceSet candidates = options.shard_devices;
  if (candidates.empty()) {
    const hw::DeviceId primary = PrimaryGpu(topo);
    if (primary == hw::kInvalidDevice) return Status::OK();
    candidates.push_back(primary);
  }
  for (hw::DeviceId d : candidates) {
    if (d < 0 || static_cast<std::size_t>(d) >= topo.device_count() ||
        topo.device(d).kind != hw::DeviceKind::kGpu) {
      return Status::InvalidArgument(
          "shard device " + std::to_string(d) +
          " is not a GPU of the profile topology");
    }
  }

  // Per-device admission: a candidate whose pool has no headroom left is
  // dropped; the remaining shards absorb its share.
  DeviceSet live;
  for (hw::DeviceId d : candidates) {
    std::uint64_t in_use = 0;
    if (options.device_budget_in_use != nullptr) {
      const auto it = options.device_budget_in_use->find(d);
      if (it != options.device_budget_in_use->end()) in_use = it->second;
    }
    if (in_use >= budget) {
      if (!plan->rationale.empty()) plan->rationale += "; ";
      plan->rationale += "device " + std::to_string(d) +
                         " pool saturated (" + std::to_string(in_use) + "/" +
                         std::to_string(budget) +
                         " bytes); dropped from shard set";
      continue;
    }
    live.push_back(d);
  }
  if (live.empty()) {
    plan->forced_cpu_by_pressure = true;
    if (!plan->rationale.empty()) plan->rationale += "; ";
    plan->rationale += "all shard device pools saturated; forced CPU placement";
    plan->probe.placement = PipelinePlacement::kCpu;
    plan->probe.device_set.clear();
    for (BuildPipeline& build : plan->builds) {
      build.placement = PipelinePlacement::kCpu;
      build.device_set.clear();
    }
    return Status::OK();
  }

  // The cost-model policy scores every prefix of the candidate list:
  // probe work divides across the shards, exchange cost grows with them.
  DeviceSet chosen = live;
  if (options.policy == PlacementPolicy::kCostModel && live.size() > 1 &&
      plan->probe.placement != PipelinePlacement::kCpu) {
    const std::uint64_t staged = StagedProbeBytes(*plan);
    const double probe_s = std::max(plan->probe.modelled_cost_s, 1e-9);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t n = 1; n <= live.size(); ++n) {
      DeviceSet prefix(live.begin(), live.begin() + n);
      PUMP_ASSIGN_OR_RETURN(ExchangeStage exchange,
                            PlanExchange(topo, prefix, staged));
      const double score =
          probe_s / static_cast<double>(n) + exchange.modelled_cost_s;
      if (score < best) {
        best = score;
        chosen = std::move(prefix);
      }
    }
    if (!plan->rationale.empty()) plan->rationale += "; ";
    plan->rationale += "cost model kept " + std::to_string(chosen.size()) +
                       " of " + std::to_string(live.size()) +
                       " shard candidates (modelled " +
                       std::to_string(best) + " s on " + profile.name + ")";
  }

  plan->shard.devices = chosen;
  if (plan->probe.placement != PipelinePlacement::kCpu) {
    plan->probe.device_set = chosen;
  }
  for (BuildPipeline& build : plan->builds) {
    if (build.placement != PipelinePlacement::kCpu) {
      build.device_set = chosen;
    }
  }
  if (plan->probe.placement != PipelinePlacement::kCpu) {
    PUMP_ASSIGN_OR_RETURN(
        plan->exchange, PlanExchange(topo, chosen, StagedProbeBytes(*plan)));
    if (plan->shard.active()) {
      if (!plan->rationale.empty()) plan->rationale += "; ";
      plan->rationale += "sharded across " +
                         std::to_string(chosen.size()) +
                         " devices; modelled exchange " +
                         std::to_string(plan->exchange.modelled_cost_s) +
                         " s";
    }
  }
  return Status::OK();
}

}  // namespace

Result<PhysicalPlan> Compile(const engine::Query& query,
                             const CompileOptions& options) {
  PhysicalPlan plan;
  plan.query = &query;
  plan.shape.fact_rows = query.fact != nullptr ? query.fact->rows() : 0;
  plan.shape.filters = query.filters.size();
  plan.shape.joins = query.joins.size();
  PUMP_RETURN_NOT_OK(Validate(query, plan.shape));

  const bool gpu_requested = options.policy != PlacementPolicy::kCpuOnly;
  const std::uint64_t budget = options.gpu_budget_bytes != 0
                                   ? options.gpu_budget_bytes
                                   : DefaultGpuBudget(options.profile);
  // Concurrency pressure: bytes already committed to in-flight queries
  // shrink this compilation's budget. A fully saturated budget forces
  // the whole plan onto the CPU — degrading placement is bounded work,
  // waiting for device memory is not.
  const std::uint64_t effective_budget =
      budget > options.gpu_budget_in_use_bytes
          ? budget - options.gpu_budget_in_use_bytes
          : 0;
  const bool saturated = gpu_requested && effective_budget == 0;
  const bool gpu_policy = gpu_requested && !saturated;
  if (saturated) {
    plan.forced_cpu_by_pressure = true;
    plan.rationale =
        "gpu budget saturated (" +
        std::to_string(options.gpu_budget_in_use_bytes) + "/" +
        std::to_string(budget) + " bytes in use); forced CPU placement";
  }
  std::uint64_t gpu_used = 0;

  // One build pipeline per join clause.
  for (std::size_t j = 0; j < query.joins.size(); ++j) {
    const engine::JoinClause& join = query.joins[j];
    BuildPipeline build;
    build.join_index = j;
    build.dimension = join.dimension;
    build.key_column = join.dim_key_column;
    build.dim_filter = join.dim_filter;
    build.has_dim_filter = join.has_dim_filter;
    PUMP_ASSIGN_OR_RETURN(const auto* keys,
                          join.dimension->Column(join.dim_key_column));
    build.keys = GatherKeyStats(*keys);
    build.placement =
        gpu_policy ? PipelinePlacement::kGpu : PipelinePlacement::kCpu;
    build.table_kind = ChooseTableKind(build.keys, gpu_policy,
                                       effective_budget, &gpu_used);
    build.table_bytes = TableBytes(build.keys, build.table_kind);
    plan.builds.push_back(std::move(build));
  }

  // The probe pipeline: filters in query order, probes in join order,
  // one trailing aggregate — the operator order fixes the evaluation
  // order, which is what makes plans bit-identical to the reference.
  for (const engine::Filter& filter : query.filters) {
    Operator op;
    op.kind = OpKind::kScanFilter;
    op.column = filter.column;
    op.op = filter.op;
    op.literal = filter.literal;
    plan.probe.ops.push_back(std::move(op));
  }
  for (std::size_t j = 0; j < query.joins.size(); ++j) {
    Operator op;
    op.kind = OpKind::kProbe;
    op.column = query.joins[j].fact_key_column;
    op.build_index = j;
    plan.probe.ops.push_back(std::move(op));
  }
  {
    Operator op;
    op.kind = OpKind::kAggregate;
    op.column = query.measure_column;
    plan.probe.ops.push_back(std::move(op));
  }
  plan.probe.placement = gpu_policy ? PipelinePlacement::kHeterogeneous
                                    : PipelinePlacement::kCpu;

  if (options.policy == PlacementPolicy::kCostModel && !saturated) {
    PUMP_RETURN_NOT_OK(PlaceByCostModel(query, options, &plan));
  }
  plan.profile = options.profile;
  if (gpu_policy && plan.UsesGpu()) {
    PUMP_RETURN_NOT_OK(PlaceShards(options, budget, &plan));
  }
  return plan;
}

Result<ExchangeStage> PlanExchange(const hw::Topology& topology,
                                   const DeviceSet& devices,
                                   std::uint64_t total_bytes) {
  ExchangeStage stage;
  const std::size_t n = devices.size();
  if (n <= 1) return stage;
  for (hw::DeviceId d : devices) {
    if (d < 0 || static_cast<std::size_t>(d) >= topology.device_count() ||
        topology.device(d).kind != hw::DeviceKind::kGpu) {
      return Status::InvalidArgument("exchange device " + std::to_string(d) +
                                     " is not a GPU of the topology");
    }
  }

  // Evenly hash-partitioned tuples: each ordered (src, dst) pair moves
  // total / n^2 bytes. Links are full-duplex (Sec. 2.2), so loads
  // accumulate per edge *direction*; a bounce through an intermediate
  // device is store-and-forward, charging that node's memory twice
  // (write, then read back out).
  const double pair_bytes =
      static_cast<double>(total_bytes) / static_cast<double>(n * n);
  std::map<std::pair<std::size_t, bool>, double> directed_edge_bytes;
  std::map<hw::DeviceId, double> bounce_bytes;
  double max_latency_s = 0.0;
  for (const hw::DeviceId src : devices) {
    for (const hw::DeviceId dst : devices) {
      if (src == dst) continue;
      // Prefer peer paths (NVLink/NVSwitch/P2P); bounce through the host
      // only when the GPUs are not peer-connected (AC922-style meshes).
      Result<hw::Route> routed = topology.FindPeerRoute(src, dst);
      if (!routed.ok()) routed = topology.FindRoute(src, dst);
      if (!routed.ok()) {
        return Status(routed.status().code(),
                      "no exchange route from device " +
                          std::to_string(src) + " to " + std::to_string(dst) +
                          ": " + routed.status().message());
      }
      const hw::Route& route = routed.value();
      ExchangeRoute out;
      out.src = src;
      out.dst = dst;
      out.hops = route.hops();
      out.direct = route.hops() == 1;
      double bottleneck_gib_s = std::numeric_limits<double>::infinity();
      double latency_s = 0.0;
      hw::DeviceId at = src;
      for (const std::size_t e : route.edge_indices) {
        const hw::Edge& edge = topology.edges()[e];
        const bool forward = edge.a == at;
        directed_edge_bytes[{e, forward}] += pair_bytes;
        bottleneck_gib_s =
            std::min(bottleneck_gib_s, edge.link.seq_bw.gib_per_second());
        latency_s += edge.link.hop_latency.seconds();
        at = forward ? edge.b : edge.a;
        if (at != dst) bounce_bytes[at] += 2.0 * pair_bytes;
      }
      out.bottleneck_gib_s = bottleneck_gib_s;
      max_latency_s = std::max(max_latency_s, latency_s);
      stage.routes.push_back(out);
    }
  }

  double busiest_s = 0.0;
  for (const auto& [key, bytes] : directed_edge_bytes) {
    const hw::Edge& edge = topology.edges()[key.first];
    busiest_s =
        std::max(busiest_s, bytes / edge.link.seq_bw.bytes_per_second());
  }
  for (const auto& [dev, bytes] : bounce_bytes) {
    busiest_s = std::max(
        busiest_s, bytes / topology.memory(dev).seq_bw.bytes_per_second());
  }
  stage.modelled_cost_s = busiest_s + max_latency_s;
  return stage;
}

std::uint64_t EstimatedGpuFootprintBytes(const PhysicalPlan& plan) {
  std::uint64_t bytes = 0;
  for (const BuildPipeline& build : plan.builds) {
    if (build.placement != PipelinePlacement::kCpu) {
      bytes += build.table_bytes;
    }
  }
  if (plan.probe.placement != PipelinePlacement::kCpu) {
    // GPU/heterogeneous probes stage one device buffer per probe
    // operator column (measure, filters, probe keys), each fact_rows
    // 64-bit values — the same staging the plan executor performs.
    bytes += static_cast<std::uint64_t>(plan.probe.ops.size()) *
             plan.shape.fact_rows * sizeof(std::int64_t);
  }
  return bytes;
}

std::map<hw::DeviceId, std::uint64_t> EstimatedGpuFootprintPerDevice(
    const PhysicalPlan& plan) {
  std::map<hw::DeviceId, std::uint64_t> per_device;
  // A sharded pipeline divides its bytes evenly across its device set,
  // remainder to the first device, so the per-device sums always add up
  // to the aggregate footprint. Legacy plans without device sets charge
  // the default testbed's GPU.
  const auto split = [&per_device](const DeviceSet& set,
                                   std::uint64_t bytes) {
    if (bytes == 0) return;
    if (set.empty()) {
      per_device[hw::kGpu0] += bytes;
      return;
    }
    const std::uint64_t share = bytes / set.size();
    per_device[set.front()] +=
        bytes - share * static_cast<std::uint64_t>(set.size() - 1);
    for (std::size_t i = 1; i < set.size(); ++i) per_device[set[i]] += share;
  };
  for (const BuildPipeline& build : plan.builds) {
    if (build.placement != PipelinePlacement::kCpu) {
      split(build.device_set, build.table_bytes);
    }
  }
  if (plan.probe.placement != PipelinePlacement::kCpu) {
    split(plan.probe.device_set,
          static_cast<std::uint64_t>(plan.probe.ops.size()) *
              plan.shape.fact_rows * sizeof(std::int64_t));
  }
  return per_device;
}

Status ValidatePlan(const PhysicalPlan& plan) {
  if (plan.query == nullptr) {
    return Status::InvalidArgument("plan has no query");
  }
  if (plan.builds.size() != plan.query->joins.size()) {
    return Status::Internal("plan has " +
                            std::to_string(plan.builds.size()) +
                            " build pipelines for " +
                            std::to_string(plan.query->joins.size()) +
                            " joins");
  }
  for (const BuildPipeline& build : plan.builds) {
    if (build.join_index >= plan.query->joins.size()) {
      return Status::Internal("build pipeline references join " +
                              std::to_string(build.join_index) +
                              " of " +
                              std::to_string(plan.query->joins.size()));
    }
    if (build.dimension == nullptr) {
      return Status::Internal("build pipeline without dimension table");
    }
    const bool dense = DenseKeys(build.keys);
    if ((build.table_kind == HashTableKind::kPerfect ||
         build.table_kind == HashTableKind::kHybrid) &&
        !dense) {
      return Status::Internal(
          "perfect/hybrid hash table chosen for a sparse key domain "
          "(density " +
          std::to_string(build.keys.density) + ")");
    }
    if (build.table_bytes == 0) {
      return Status::Internal("build pipeline with zero table bytes");
    }
  }
  const std::vector<Operator>& ops = plan.probe.ops;
  if (ops.empty()) {
    return Status::Internal("probe pipeline has no operators");
  }
  if (ops.back().kind != OpKind::kAggregate) {
    return Status::Internal("probe pipeline does not end in an aggregate");
  }
  int stage = 0;  // 0 = filters, 1 = probes, 2 = aggregate.
  std::size_t aggregates = 0;
  for (const Operator& op : ops) {
    switch (op.kind) {
      case OpKind::kScanFilter:
        if (stage > 0) {
          return Status::Internal("scan_filter after a probe/aggregate");
        }
        break;
      case OpKind::kProbe:
        if (stage > 1) return Status::Internal("probe after the aggregate");
        stage = 1;
        if (op.build_index >= plan.builds.size()) {
          return Status::Internal(
              "probe references missing build pipeline " +
              std::to_string(op.build_index));
        }
        break;
      case OpKind::kAggregate:
        stage = 2;
        ++aggregates;
        break;
    }
  }
  if (aggregates != 1) {
    return Status::Internal("probe pipeline has " +
                            std::to_string(aggregates) + " aggregates");
  }
  return Status::OK();
}

}  // namespace pump::plan
