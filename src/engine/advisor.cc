#include "engine/advisor.h"

#include <algorithm>

#include "sim/access_path.h"
#include "sim/overlap.h"

namespace pump::engine {

namespace {

/// GPU memory kept free as working space by the Fig. 11 placement.
constexpr std::uint64_t kGpuReserveBytes = 1ull << 30;

}  // namespace

QueryStats StatsFromQuery(const Query& query, double scale) {
  QueryStats stats;
  if (query.fact == nullptr) return stats;
  stats.fact_rows = static_cast<double>(query.fact->rows()) * scale;
  // Touched fact columns: filters + join keys + measure, 8 B each.
  stats.fact_bytes_per_row =
      8.0 * (query.filters.size() + query.joins.size() + 1);
  // Without per-column statistics assume filters keep everything — the
  // conservative planner default.
  stats.filter_selectivity = 1.0;
  for (const JoinClause& join : query.joins) {
    stats.dimension_rows.push_back(
        static_cast<double>(join.dimension->rows()) * scale);
  }
  return stats;
}

Advisor::Advisor(const hw::SystemProfile* profile)
    : profile_(profile), nopa_(profile), transfer_model_(profile) {}

std::uint64_t Advisor::GpuHashTableBudget(const hw::Topology& topology,
                                          hw::DeviceId gpu) {
  const std::uint64_t capacity = topology.memory(gpu).capacity.u64();
  return capacity > kGpuReserveBytes ? capacity - kGpuReserveBytes : 0;
}

Result<Seconds> Advisor::Predict(
    const QueryStats& stats, hw::DeviceId device,
    transfer::TransferMethod method, hw::MemoryNodeId data_location,
    std::vector<join::HashTablePlacement>* placements,
    std::vector<Seconds>* build_seconds) const {
  const hw::Topology& topo = profile_->topology;
  const hw::DeviceSpec& dev = topo.device(device);
  const bool is_gpu = dev.kind == hw::DeviceKind::kGpu;

  // Ingest bandwidth for the fact scan.
  BytesPerSecond ingest;
  if (!is_gpu || device == data_location) {
    ingest = sim::MustResolve(topo, device, data_location).seq_bw;
  } else {
    PUMP_RETURN_NOT_OK(transfer_model_.Validate(
        method, device, data_location,
        transfer::TraitsOf(method).required_memory));
    PUMP_ASSIGN_OR_RETURN(ingest, transfer_model_.IngestBandwidth(
                                      method, device, data_location));
  }
  const Seconds scan_s =
      Bytes(stats.fact_rows * stats.fact_bytes_per_row) / ingest;

  // Per-join build and probe, with Fig. 11 placement per table: GPU
  // memory while the tables fit the hash-table budget, the rest spilling
  // to a hybrid GPU/CPU table.
  const std::uint64_t gpu_budget =
      is_gpu ? GpuHashTableBudget(topo, device) : 0;
  std::uint64_t gpu_used = 0;

  Seconds build_s;
  Seconds lookups_s;
  const double surviving = stats.fact_rows * stats.filter_selectivity;
  for (double dim_rows : stats.dimension_rows) {
    data::WorkloadSpec w;
    w.key_bytes = 8;
    w.payload_bytes = 8;
    w.r_tuples = static_cast<std::uint64_t>(std::max(1.0, dim_rows));
    w.s_tuples = 1;

    join::HashTablePlacement placement;
    if (!is_gpu) {
      placement = join::HashTablePlacement::Single(device);
    } else if (gpu_used + w.hash_table_bytes() <= gpu_budget) {
      placement = join::HashTablePlacement::Single(device);
      gpu_used += w.hash_table_bytes();
    } else {
      const double fraction =
          gpu_budget > gpu_used
              ? static_cast<double>(gpu_budget - gpu_used) /
                    static_cast<double>(w.hash_table_bytes())
              : 0.0;
      placement = join::HashTablePlacement::Hybrid(device, data_location,
                                                   fraction);
      gpu_used = gpu_budget;
    }
    if (placements != nullptr) placements->push_back(placement);

    const Seconds join_build_s =
        dim_rows / nopa_.InsertRate(device, placement, w);
    if (build_seconds != nullptr) build_seconds->push_back(join_build_s);
    build_s += join_build_s;
    lookups_s +=
        surviving / nopa_.HashTableAccessRate(device, placement, w);
  }

  const Seconds compute_s = stats.fact_rows / dev.tuple_compute_rate;
  const double p =
      is_gpu ? sim::kGpuOverlapExponent : sim::kCpuOverlapExponent;
  return build_s + sim::OverlapTime({scan_s, lookups_s, compute_s}, p) +
         dev.dispatch_latency;
}

Result<PlanChoice> Advisor::Recommend(const QueryStats& stats,
                                      hw::MemoryNodeId data_location) const {
  const hw::Topology& topo = profile_->topology;
  PlanChoice best;
  bool have_best = false;

  for (std::size_t d = 0; d < topo.device_count(); ++d) {
    const auto device = static_cast<hw::DeviceId>(d);
    const bool is_gpu =
        topo.device(device).kind == hw::DeviceKind::kGpu;
    // CPUs pull directly; GPUs use Coherence on coherent paths and
    // Zero-Copy elsewhere (the paper's per-system defaults, Sec. 7.1).
    transfer::TransferMethod method = transfer::TransferMethod::kCoherence;
    if (is_gpu) {
      PUMP_ASSIGN_OR_RETURN(
          const bool coherent,
          topo.IsCacheCoherentPath(device, data_location));
      method = coherent ? transfer::TransferMethod::kCoherence
                        : transfer::TransferMethod::kZeroCopy;
    }
    std::vector<join::HashTablePlacement> placements;
    std::vector<Seconds> build_seconds;
    Result<Seconds> predicted = Predict(stats, device, method, data_location,
                                        &placements, &build_seconds);
    if (!predicted.ok()) continue;
    if (!have_best || predicted.value() < best.predicted_seconds) {
      best.device = device;
      best.method = method;
      best.join_placements = std::move(placements);
      best.join_build_seconds = std::move(build_seconds);
      best.predicted_seconds = predicted.value();
      best.rationale = std::string(topo.device(device).name) + " via " +
                       transfer::TransferMethodToString(method);
      have_best = true;
    }
  }
  if (!have_best) {
    return Status::NotFound("no device can execute this query");
  }
  return best;
}

}  // namespace pump::engine
