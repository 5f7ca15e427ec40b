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

/// Hash-table selection matrix (DESIGN.md Sec. 10), applied after
/// placement: perfect for dense key domains, hybrid when a GPU-placed
/// dense table exceeds the headroom its predecessors left or the cost
/// model split it across memories, linear probing otherwise. Only
/// GPU-placed tables draw on the headroom.
HashTableKind ChooseTableKind(const BuildPipeline& build, bool split,
                              std::uint64_t headroom,
                              std::uint64_t* gpu_used) {
  if (!DenseKeys(build.keys)) return HashTableKind::kLinearProbing;
  if (build.placement == PipelinePlacement::kCpu) {
    return HashTableKind::kPerfect;
  }
  const std::uint64_t bytes = TableBytes(build.keys, HashTableKind::kPerfect);
  if (*gpu_used + bytes > headroom) return HashTableKind::kHybrid;
  *gpu_used += bytes;
  return split ? HashTableKind::kHybrid : HashTableKind::kPerfect;
}

void AppendNote(PhysicalPlan* plan, const std::string& note) {
  if (!plan->rationale.empty()) plan->rationale += "; ";
  plan->rationale += note;
}

const hw::SystemProfile& ProfileOrDefault(const hw::SystemProfile* profile) {
  static const hw::SystemProfile kDefault = hw::Ac922Profile();
  return profile != nullptr ? *profile : kDefault;
}

/// GPU pressure, decided once per compilation from the per-device
/// in-flight pools: the candidate devices (`shard_devices`, else the
/// profile's primary GPU) minus every device whose pool already holds
/// the whole budget (by default the Advisor's hash-table budget of the
/// primary GPU). `*headroom` receives the smallest budget remainder
/// among the survivors. Empty means every pool is saturated.
Result<DeviceSet> LiveDevices(const CompileOptions& options,
                              std::uint64_t* headroom, PhysicalPlan* plan) {
  const hw::Topology& topo = ProfileOrDefault(options.profile).topology;
  // The first GPU is the primary device of single-GPU plans.
  const DeviceSet gpus = topo.DevicesOfKind(hw::DeviceKind::kGpu);
  DeviceSet candidates = options.shard_devices;
  std::uint64_t budget = options.gpu_budget_bytes;
  if (!gpus.empty()) {
    if (candidates.empty()) candidates.push_back(gpus.front());
    if (budget == 0) {
      budget = engine::Advisor::GpuHashTableBudget(topo, gpus.front());
    }
  }
  DeviceSet live;
  *headroom = budget;
  for (hw::DeviceId d : candidates) {
    if (d < 0 || static_cast<std::size_t>(d) >= topo.device_count() ||
        topo.device(d).kind != hw::DeviceKind::kGpu) {
      return Status::InvalidArgument(
          "shard device " + std::to_string(d) +
          " is not a GPU of the profile topology");
    }
    std::uint64_t in_use = 0;
    if (options.device_budget_in_use != nullptr) {
      const auto it = options.device_budget_in_use->find(d);
      if (it != options.device_budget_in_use->end()) in_use = it->second;
    }
    if (in_use >= budget) {
      AppendNote(plan, "device " + std::to_string(d) + " pool saturated (" +
                           std::to_string(in_use) + "/" +
                           std::to_string(budget) +
                           " bytes); dropped from shard set");
      continue;
    }
    live.push_back(d);
    *headroom = std::min(*headroom, budget - in_use);
  }
  return live;
}

/// Cost-model placement: evaluates the whole pipeline DAG on every
/// device via engine::Advisor (which wraps join::NopaJoinModel /
/// transfer::TransferModel) and adopts the winner's per-join hash-table
/// placements and modelled build times — placement per step, not per
/// query. `split[i]` marks a GPU-placed build whose table the Advisor
/// splits across memories.
Status PlaceByCostModel(const engine::Query& query,
                        const CompileOptions& options, PhysicalPlan* plan,
                        std::vector<bool>* split) {
  const hw::SystemProfile& profile = ProfileOrDefault(options.profile);
  const engine::Advisor advisor(&profile);
  const engine::QueryStats stats =
      engine::StatsFromQuery(query, options.scale);
  PUMP_ASSIGN_OR_RETURN(engine::PlanChoice choice,
                        advisor.Recommend(stats, hw::kCpu0));
  const bool gpu_wins =
      profile.topology.device(choice.device).kind == hw::DeviceKind::kGpu;
  AppendNote(plan, choice.rationale);
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
    (*split)[i] = gpu_placed && placement.parts.size() > 1;
    build.modelled_cost_s = choice.join_build_seconds[i].seconds();
  }
  return Status::OK();
}

/// Bytes of fact columns the probe pipeline reads over the interconnect:
/// one column per probe operator (measure, filters, probe keys),
/// fact_rows 64-bit values each. This is also the tuple payload the
/// exchange redistributes.
std::uint64_t StagedProbeBytes(const PhysicalPlan& plan) {
  return static_cast<std::uint64_t>(plan.probe.ops.size()) *
         plan.shape.fact_rows * sizeof(std::int64_t);
}

/// Plans the all-to-all exchange of `devices` (GPUs of `topology`): one
/// route per ordered pair, minimum-hop, with the modelled cost (busiest
/// link's transfer time for an evenly hash-partitioned `total_bytes`,
/// plus the longest route's hop latency).
Result<ExchangeStage> PlanExchange(const hw::Topology& topology,
                                   const DeviceSet& devices,
                                   std::uint64_t total_bytes) {
  ExchangeStage stage;
  const std::size_t n = devices.size();
  if (n <= 1) return stage;

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

/// Device-set placement over the live devices (the "which devices", not
/// "which side" pass): under the cost-model policy, scores candidate
/// subsets by per-shard probe time plus modelled exchange cost, then
/// annotates the plan with its shard descriptor, per-pipeline device
/// sets and exchange stage.
Status PlaceShards(const CompileOptions& options, const DeviceSet& live,
                   PhysicalPlan* plan) {
  const hw::SystemProfile& profile = ProfileOrDefault(options.profile);
  const hw::Topology& topo = profile.topology;

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
    AppendNote(plan, "cost model kept " + std::to_string(chosen.size()) +
                         " of " + std::to_string(live.size()) +
                         " shard candidates (modelled " +
                         std::to_string(best) + " s on " + profile.name +
                         ")");
  }

  plan->shard.devices = chosen;
  for (BuildPipeline& build : plan->builds) {
    if (build.placement != PipelinePlacement::kCpu) {
      build.device_set = chosen;
    }
  }
  if (plan->probe.placement == PipelinePlacement::kCpu) return Status::OK();
  plan->probe.device_set = chosen;
  PUMP_ASSIGN_OR_RETURN(plan->exchange,
                        PlanExchange(topo, chosen, StagedProbeBytes(*plan)));
  if (plan->shard.active()) {
    AppendNote(plan, "sharded across " + std::to_string(chosen.size()) +
                         " devices; modelled exchange " +
                         std::to_string(plan->exchange.modelled_cost_s) +
                         " s");
  }
  return Status::OK();
}

}  // namespace

Result<PhysicalPlan> Compile(const engine::Query& query,
                             const CompileOptions& options) {
  PhysicalPlan plan;
  plan.query = &query;
  plan.profile = options.profile;
  plan.shape.fact_rows = query.fact != nullptr ? query.fact->rows() : 0;
  plan.shape.filters = query.filters.size();
  plan.shape.joins = query.joins.size();
  PUMP_RETURN_NOT_OK(Validate(query, plan.shape));

  // GPU pressure is decided here, once: a GPU-requesting policy runs on
  // the devices whose pools have room left. When none has, the whole
  // plan goes to the CPU — degrading placement is bounded work, waiting
  // for device memory is not.
  DeviceSet live;
  std::uint64_t headroom = 0;
  if (options.policy != PlacementPolicy::kCpuOnly) {
    PUMP_ASSIGN_OR_RETURN(live, LiveDevices(options, &headroom, &plan));
    if (live.empty()) {
      plan.forced_cpu_by_pressure = true;
      AppendNote(&plan, "every GPU pool saturated; forced CPU placement");
    }
  }
  const bool gpu_policy = !live.empty();

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

  std::vector<bool> split(plan.builds.size(), false);
  if (options.policy == PlacementPolicy::kCostModel && gpu_policy) {
    PUMP_RETURN_NOT_OK(PlaceByCostModel(query, options, &plan, &split));
  }
  // Table kinds follow the final placements.
  std::uint64_t gpu_used = 0;
  for (std::size_t i = 0; i < plan.builds.size(); ++i) {
    BuildPipeline& build = plan.builds[i];
    build.table_kind = ChooseTableKind(build, split[i], headroom, &gpu_used);
    build.table_bytes = TableBytes(build.keys, build.table_kind);
  }
  if (gpu_policy && plan.UsesGpu()) {
    PUMP_RETURN_NOT_OK(PlaceShards(options, live, &plan));
  }
  return plan;
}

std::map<hw::DeviceId, std::uint64_t> EstimatedGpuFootprintPerDevice(
    const PhysicalPlan& plan) {
  std::map<hw::DeviceId, std::uint64_t> per_device;
  // A sharded pipeline divides its bytes evenly across its device set,
  // remainder to the first device. Legacy plans without device sets
  // charge the default testbed's GPU.
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
    split(plan.probe.device_set, StagedProbeBytes(plan));
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
