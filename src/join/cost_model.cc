#include "join/cost_model.h"

#include <algorithm>
#include <cmath>

#include "sim/access_path.h"
#include "sim/cache_model.h"
#include "sim/overlap.h"

namespace pump::join {

namespace {

// Probe-cost normalization for the selectivity model (Sec. 7.2.9): the
// paper's rates are measured at selectivity 1, where every probe loads the
// key line and the value line. At lower selectivity the value line is only
// loaded when one of the value-line's entries matches; with uniform
// matches the load probability is 1 - (1-sel)^(values per line).
double SelectivityAccessMultiplier(const data::WorkloadSpec& workload,
                                   Bytes line_bytes) {
  const double values_per_line = std::max(
      1.0, line_bytes / Bytes(static_cast<double>(workload.payload_bytes)));
  const double p_value_line =
      1.0 - std::pow(1.0 - workload.selectivity, values_per_line);
  return (1.0 + p_value_line) / 2.0;
}

// TLB derating (see DeviceSpec::tlb_reach).
PerSecond TlbDerate(const hw::DeviceSpec& device, Bytes region,
                    PerSecond rate) {
  if (device.tlb_reach <= Bytes(0.0) || region <= device.tlb_reach)
    return rate;
  const double miss_fraction = (region - device.tlb_reach) / region;
  return rate / (1.0 + device.tlb_miss_penalty * miss_fraction);
}

// GPU hash-table inserts are capped by the device's atomic-CAS
// throughput: the CAS serializes on the slot line and the value store
// doubles the write traffic. Calibrated against Fig. 18 (the build phase
// takes 71% of a 1:1 join even though lookups run at ~4.5 G/s) and
// Fig. 21b (memory-bound builds insert at the lookup rate).
constexpr PerSecond kGpuAtomicInsertRate = PerSecond::Giga(2.2);

// CPU probe compute-rate multiplier for the 8-wide AVX2 probe kernel
// (hash/simd_probe.h). The raw kernel measures 1.57x over the scalar
// loop on the out-of-cache linear table and 1.46x on the perfect table
// (BENCH_micro.json ht_probe_ns records), but the modelled testbed
// rates (DeviceSpec::tuple_compute_rate) were calibrated against the
// paper's measured end-to-end joins, which already amortize most of the
// hash arithmetic behind memory stalls — so the *effective*
// compute-side lift is small, and the Fig. 21 workload-B crossover (het
// must beat CPU-only, coprocess_test) caps it at ~1.15. 1.10 keeps a
// calibration margin. Applies to probes only — inserts are a scalar CAS
// claim-then-publish and keep the unscaled rate.
constexpr double kCpuSimdProbeSpeedup = 1.1;

// Partitioning compute factor relative to the NOPA compute rate: two
// passes per tuple (histogram, scatter), with the scatter staged through
// software write-combining buffers and streamed past the cache
// (join/swwc.h). Recalibrated from the BENCH_micro.json
// radix_partition_ms scatter-vs-swwc records: the measured 1.53x pass
// speedup lifts the old 0.5 direct-scatter factor to ~0.65 (0.5 x 1.53
// capped below the single-pass ceiling).
constexpr double kCpuSwwcPartitionFactor = 0.65;

}  // namespace

HashTablePlacement HashTablePlacement::Single(hw::MemoryNodeId node) {
  HashTablePlacement placement;
  placement.parts.push_back(Part{node, 1.0});
  return placement;
}

HashTablePlacement HashTablePlacement::Hybrid(hw::MemoryNodeId gpu_node,
                                              hw::MemoryNodeId cpu_node,
                                              double gpu_fraction) {
  gpu_fraction = std::clamp(gpu_fraction, 0.0, 1.0);
  HashTablePlacement placement;
  if (gpu_fraction > 0.0) {
    placement.parts.push_back(Part{gpu_node, gpu_fraction});
  }
  if (gpu_fraction < 1.0) {
    placement.parts.push_back(Part{cpu_node, 1.0 - gpu_fraction});
  }
  return placement;
}

HashTablePlacement HashTablePlacement::FromBuffer(
    const memory::Buffer& buffer) {
  HashTablePlacement placement;
  const double total = static_cast<double>(buffer.size());
  for (const memory::Extent& extent : buffer.extents()) {
    placement.parts.push_back(
        Part{extent.node, static_cast<double>(extent.bytes) / total});
  }
  return placement;
}

HashTablePlacement HashTablePlacement::SkewAware(hw::MemoryNodeId gpu_node,
                                                 hw::MemoryNodeId cpu_node,
                                                 double byte_fraction,
                                                 std::uint64_t r_tuples,
                                                 double zipf_exponent) {
  byte_fraction = std::clamp(byte_fraction, 0.0, 1.0);
  const auto hot_entries = static_cast<std::uint64_t>(
      byte_fraction * static_cast<double>(r_tuples));
  const double gpu_access_share =
      sim::ZipfHitRate(r_tuples, hot_entries, zipf_exponent);
  return Hybrid(gpu_node, cpu_node, gpu_access_share);
}

NopaJoinModel::NopaJoinModel(const hw::SystemProfile* profile)
    : profile_(profile), transfer_model_(profile) {}

// The cache serving `device`'s accesses to a table part: the device's LLC
// for local parts (or any part, for CPUs, whose LLC caches all coherent
// addresses); the GPU's per-SM L1 for remote parts (the memory-side L2
// cannot cache remote data, Sec. 7.2.3). Returns {rate, entries}; rate 0
// means no cache applies.
NopaJoinModel::CacheView NopaJoinModel::CacheFor(
    hw::DeviceId device, const HashTablePlacement::Part& part,
    const data::WorkloadSpec& workload) const {
  const hw::Topology& topo = profile_->topology;
  const hw::DeviceSpec& dev = topo.device(device);
  const hw::CacheSpec& llc = topo.cache(device);
  const double entry_bytes = static_cast<double>(workload.tuple_bytes());
  const bool local = part.node == device;
  if (local || !llc.memory_side) {
    return {llc.random_access_rate, llc.capacity.bytes() / entry_bytes};
  }
  if (dev.remote_cache > Bytes(0.0)) {
    return {dev.remote_cache_rate, dev.remote_cache.bytes() / entry_bytes};
  }
  return {PerSecond(0.0), 0.0};
}

double NopaJoinModel::CacheHitRate(hw::DeviceId device,
                                   const HashTablePlacement::Part& part,
                                   const data::WorkloadSpec& workload) const {
  const CacheView cache = CacheFor(device, part, workload);
  if (cache.rate <= PerSecond(0.0)) return 0.0;
  return sim::ZipfHitRate(workload.r_tuples,
                          static_cast<std::uint64_t>(cache.entries),
                          workload.zipf_exponent);
}

PerSecond NopaJoinModel::PartAccessRate(
    hw::DeviceId device, const HashTablePlacement::Part& part,
    const data::WorkloadSpec& workload) const {
  const hw::Topology& topo = profile_->topology;
  const hw::DeviceSpec& dev = topo.device(device);
  const sim::AccessPath path = sim::MustResolve(topo, device, part.node);
  const Bytes part_bytes =
      Bytes(static_cast<double>(workload.hash_table_bytes())) * part.fraction;

  PerSecond memory_rate = path.dependent_access_rate;
  if (part.node == device) {
    memory_rate = TlbDerate(dev, part_bytes, memory_rate);
  }

  const CacheView cache = CacheFor(device, part, workload);
  if (cache.rate <= PerSecond(0.0)) return memory_rate;
  const double hit = sim::ZipfHitRate(
      workload.r_tuples, static_cast<std::uint64_t>(cache.entries),
      workload.zipf_exponent);
  return PerSecond(sim::BlendedAccessRate(hit, cache.rate.per_second(),
                                          memory_rate.per_second()));
}

PerSecond NopaJoinModel::InsertRate(hw::DeviceId device,
                                    const HashTablePlacement& placement,
                                    const data::WorkloadSpec& workload) const {
  // Inserts blend the memory side with the *unscaled* compute rate: the
  // build path is a scalar CAS claim-then-publish, not the vectorized
  // probe kernel.
  const PerSecond memory_side_rate =
      MemorySideRate(device, placement, workload);
  const hw::DeviceSpec& dev = profile_->topology.device(device);
  const PerSecond compute = dev.tuple_compute_rate;
  const PerSecond rate =
      memory_side_rate * (compute / (memory_side_rate + compute));
  const bool is_gpu = dev.kind == hw::DeviceKind::kGpu;
  return is_gpu ? std::min(rate, kGpuAtomicInsertRate) : rate;
}

PerSecond NopaJoinModel::MemorySideRate(
    hw::DeviceId device, const HashTablePlacement& placement,
    const data::WorkloadSpec& workload) const {
  // Harmonic combination over the table parts, weighted by the expected
  // access fraction (A_GPU model of Sec. 5.3).
  Seconds per_access;
  for (const HashTablePlacement::Part& part : placement.parts) {
    const PerSecond rate = PartAccessRate(device, part, workload);
    per_access += part.fraction / rate;
  }
  return 1.0 / per_access;
}

PerSecond NopaJoinModel::HashTableAccessRate(
    hw::DeviceId device, const HashTablePlacement& placement,
    const data::WorkloadSpec& workload) const {
  const PerSecond memory_side_rate =
      MemorySideRate(device, placement, workload);
  // Hashing and comparison partially serialize with the memory access:
  // harmonic (back-to-back) combination of the two rates. CPU probes —
  // the joins' and every served plan's block loop (plan/operators.cc) —
  // run the 8-wide AVX2 kernel, which lifts the compute side (and only
  // the compute side — out-of-cache probes stay memory-limited).
  const hw::DeviceSpec& dev = profile_->topology.device(device);
  PerSecond compute = dev.tuple_compute_rate;
  if (dev.kind == hw::DeviceKind::kCpu) {
    compute = compute * kCpuSimdProbeSpeedup;
  }
  return memory_side_rate * (compute / (memory_side_rate + compute));
}

Result<BytesPerSecond> NopaJoinModel::IngestBandwidth(
    const NopaConfig& config, hw::MemoryNodeId location) const {
  const hw::Topology& topo = profile_->topology;
  if (location == config.device) {
    // Data is device-local; no transfer method involved.
    return sim::MustResolve(topo, config.device, location).seq_bw;
  }
  if (topo.device(config.device).kind == hw::DeviceKind::kCpu) {
    // CPUs pull over their coherent interconnect.
    return sim::MustResolve(topo, config.device, location).seq_bw;
  }
  PUMP_RETURN_NOT_OK(transfer_model_.Validate(
      config.method, config.device, location, config.relation_memory));
  return transfer_model_.IngestBandwidth(config.method, config.device,
                                         location);
}

Result<JoinTiming> NopaJoinModel::Estimate(
    const NopaConfig& config, const data::WorkloadSpec& workload) const {
  const hw::Topology& topo = profile_->topology;
  const hw::DeviceSpec& dev = topo.device(config.device);
  const bool is_gpu = dev.kind == hw::DeviceKind::kGpu;
  const double overlap_p =
      is_gpu ? sim::kGpuOverlapExponent : sim::kCpuOverlapExponent;

  PUMP_ASSIGN_OR_RETURN(BytesPerSecond r_ingest,
                        IngestBandwidth(config, config.r_location));
  PUMP_ASSIGN_OR_RETURN(BytesPerSecond s_ingest,
                        IngestBandwidth(config, config.s_location));

  const PerSecond ht_rate =
      HashTableAccessRate(config.device, config.hash_table, workload);

  JoinTiming timing;
  // Build: stream R while inserting |R| tuples into the table.
  const Seconds r_stream =
      Bytes(static_cast<double>(workload.r_bytes())) / r_ingest;
  const Seconds inserts =
      static_cast<double>(workload.r_tuples) /
      InsertRate(config.device, config.hash_table, workload);
  timing.build_s = sim::OverlapTime({r_stream, inserts}, overlap_p);

  // Probe: stream S while performing |S| dependent lookups; lookups get
  // cheaper at low selectivity because value lines are skipped.
  const Bytes line_bytes =
      topo.memory(config.hash_table.parts.front().node).line_bytes;
  const double mult = SelectivityAccessMultiplier(workload, line_bytes);
  const Seconds s_stream =
      Bytes(static_cast<double>(workload.s_bytes())) / s_ingest;
  const Seconds lookups =
      static_cast<double>(workload.s_tuples) * mult / ht_rate;
  // Optional result materialization: matches write one
  // <key, payload, payload> row back to CPU memory. Writes stream at the
  // same path bandwidth as reads (links are full-duplex, Sec. 2.2, so
  // they overlap with the ingest stream rather than stealing from it).
  Seconds result_stream;
  if (config.materialize_result) {
    const Bytes result_bytes =
        Bytes(static_cast<double>(workload.s_tuples) * workload.selectivity *
              static_cast<double>(workload.key_bytes +
                                  2 * workload.payload_bytes));
    const sim::AccessPath out_path =
        sim::MustResolve(topo, config.device, config.r_location);
    result_stream = result_bytes / out_path.seq_bw;
  }
  timing.probe_s =
      sim::OverlapTime({s_stream, lookups, result_stream}, overlap_p);

  // Morsel-batch dispatch overhead (Sec. 6.1): one launch per batch.
  timing.probe_s += dev.dispatch_latency;
  timing.build_s += dev.dispatch_latency;
  return timing;
}

RadixJoinModel::RadixJoinModel(const hw::SystemProfile* profile)
    : profile_(profile) {}

JoinTiming RadixJoinModel::Estimate(hw::DeviceId cpu,
                                    const data::WorkloadSpec& workload) const {
  const hw::Topology& topo = profile_->topology;
  const hw::MemorySpec& mem = topo.memory(cpu);
  const hw::DeviceSpec& dev = topo.device(cpu);

  // Partitioning pass: every input byte is read and written once — the
  // software write-combining scatter (join/swwc.h) streams whole lines
  // with non-temporal stores, so writes cost no read-for-ownership.
  // Tuple-wise histogram + scatter compute runs at kCpuSwwcPartitionFactor
  // of the NOPA compute rate (two passes over each tuple, minus the
  // store-buffer stalls SWWC removed).
  const PerSecond partition_rate =
      dev.tuple_compute_rate * kCpuSwwcPartitionFactor;
  const double total_tuples = static_cast<double>(workload.total_tuples());
  const Bytes moved_bytes =
      Bytes(2.0 * static_cast<double>(workload.total_bytes()));
  const Seconds partition_s = sim::OverlapTime(
      {moved_bytes / mem.duplex_bw, total_tuples / partition_rate},
      sim::kCpuOverlapExponent);

  // Join pass: partitions are cache-resident, so build+probe run at the
  // compute rate blended with the LLC (PRA = perfect-hash radix join).
  const hw::CacheSpec& llc = topo.cache(cpu);
  const PerSecond join_rate =
      dev.tuple_compute_rate *
      (llc.random_access_rate /
       (dev.tuple_compute_rate + llc.random_access_rate));
  const Seconds join_read_s =
      Bytes(static_cast<double>(workload.total_bytes())) / mem.seq_bw;
  const Seconds join_s = sim::OverlapTime(
      {total_tuples / join_rate, join_read_s}, sim::kCpuOverlapExponent);

  JoinTiming timing;
  // Report partitioning as part of the build phase: both relations must be
  // fully partitioned before any partition is joined.
  timing.build_s = partition_s;
  timing.probe_s = join_s;
  return timing;
}

}  // namespace pump::join
