#include "plan/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "common/cancel.h"
#include "exec/het_scheduler.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "exec/work_stealing.h"
#include "fault/fault_injector.h"
#include "hw/system_profile.h"
#include "hw/topology.h"
#include "memory/allocator.h"
#include "obs/metrics.h"
#include "obs/query_context.h"
#include "obs/trace.h"
#include "plan/build_cache.h"
#include "plan/operators.h"
#include "transfer/executor.h"

namespace pump::plan {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct PlanCounters {
  obs::Counter& queries;
  obs::Counter& build_pipelines;
  obs::Counter& probe_pipelines;
  obs::Counter& dim_tables_built;
  obs::Counter& dim_tables_reused;
  obs::Counter& replacements;
  obs::Counter& morsels;
  obs::Histogram& pipeline_us;
  obs::Histogram& morsel_tuples;
};

PlanCounters& Counters() {
  static PlanCounters counters{
      obs::MetricsRegistry::Instance().GetCounter("plan.queries"),
      obs::MetricsRegistry::Instance().GetCounter("plan.pipelines.build"),
      obs::MetricsRegistry::Instance().GetCounter("plan.pipelines.probe"),
      obs::MetricsRegistry::Instance().GetCounter("plan.dim_tables_built"),
      obs::MetricsRegistry::Instance().GetCounter("plan.dim_tables_reused"),
      obs::MetricsRegistry::Instance().GetCounter("plan.replacements"),
      obs::MetricsRegistry::Instance().GetCounter("plan.morsels"),
      obs::MetricsRegistry::Instance().GetHistogram("plan.pipeline_us"),
      obs::MetricsRegistry::Instance().GetHistogram("plan.morsel_tuples")};
  return counters;
}

void ChargePipelineTime(engine::PipelineOutcome* row, double seconds) {
  row->measured_s += seconds;
  Counters().pipeline_us.Record(
      static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e6));
}

/// Initializes the per-pipeline outcome rows from the compiled plan:
/// builds in plan order, then the probe. Placements start as planned;
/// the ladder updates `placement_used` when it re-places a pipeline.
void InitPipelineRows(const PhysicalPlan& plan,
                      engine::ExecReport* report) {
  report->pipelines.reserve(plan.builds.size() + 1);
  for (std::size_t i = 0; i < plan.builds.size(); ++i) {
    engine::PipelineOutcome row;
    row.name = "build[" + std::to_string(i) + "]";
    row.kind = "build";
    row.placement_planned = ToString(plan.builds[i].placement);
    row.placement_used = row.placement_planned;
    row.predicted_s = plan.builds[i].modelled_cost_s;
    report->pipelines.push_back(std::move(row));
  }
  engine::PipelineOutcome probe;
  probe.name = "probe";
  probe.kind = "probe";
  probe.placement_planned = ToString(plan.probe.placement);
  probe.placement_used = probe.placement_planned;
  probe.predicted_s = plan.probe.modelled_cost_s;
  report->pipelines.push_back(std::move(probe));
}

/// Joins accumulated degradation reasons into the report.
void FinishReasons(const std::vector<std::string>& reasons,
                   engine::ExecReport* report) {
  if (reasons.empty()) return;
  report->degraded = true;
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    if (!report->degradation_reason.empty()) {
      report->degradation_reason += "; ";
    }
    report->degradation_reason += reasons[i];
  }
}

using TableHandles = std::vector<std::shared_ptr<const DimensionTable>>;

/// Build stage: every build pipeline runs exactly once per query and its
/// table is cached for all later rungs of the ladder. With a process-wide
/// BuildCache in the options, builds are further deduplicated *across*
/// queries: a cache hit reuses a sibling query's table (reported as
/// dim_tables_reused), a miss builds through the cache's single-flight
/// slot. GPU-placed builds model their device allocation (spilling on
/// injected OOM); a build that cannot obtain any device placement is
/// re-placed on the CPU without discarding the functional table.
Result<TableHandles> RunBuildPipelines(
    const PhysicalPlan& plan, const engine::ExecOptions& options,
    engine::ExecReport* report, std::vector<std::string>* reasons) {
  TableHandles tables;
  tables.reserve(plan.builds.size());
  for (std::size_t i = 0; i < plan.builds.size(); ++i) {
    const BuildPipeline& build = plan.builds[i];
    if (options.cancel != nullptr && options.cancel->Cancelled()) {
      return options.cancel->ToStatus();
    }
    PUMP_TRACE_SPAN(obs::TraceCategory::kPlan, "pipeline.build",
                    static_cast<double>(build.join_index),
                    static_cast<double>(build.keys.rows));
    const auto start = Clock::now();
    bool cache_hit = false;
    std::shared_ptr<const DimensionTable> table;
    if (options.build_cache != nullptr) {
      PUMP_ASSIGN_OR_RETURN(
          table, options.build_cache->GetOrBuild(build, &cache_hit));
    } else {
      Result<DimensionTable> built = DimensionTable::Build(build);
      PUMP_RETURN_NOT_OK(built.status());
      table =
          std::make_shared<const DimensionTable>(std::move(built).value());
    }
    tables.push_back(std::move(table));
    if (cache_hit) {
      ++report->dim_tables_reused;
      Counters().dim_tables_reused.Add();
    } else {
      ++report->dim_tables_built;
      Counters().dim_tables_built.Add();
    }
    Counters().build_pipelines.Add();
    ChargePipelineTime(&report->pipelines[i], SecondsSince(start));
  }

  bool any_gpu_build = false;
  for (const BuildPipeline& build : plan.builds) {
    if (build.placement != PipelinePlacement::kCpu) any_gpu_build = true;
  }
  if (!any_gpu_build) return tables;

  // Modelled placement on the plan's topology (default AC922): device
  // allocation probes the alloc.device failpoint and spills the
  // remainder to CPU memory (rung 2). The functional build stays on the
  // host, mirroring the repo-wide functional/model split. A sharded
  // build hash-partitions its table across its device set, so each
  // device models an even fragment.
  hw::Topology topology =
      plan.profile != nullptr ? plan.profile->topology : hw::IbmAc922();
  memory::MemoryManager manager(&topology, /*materialize=*/false);
  std::vector<memory::Buffer> placements;
  for (std::size_t i = 0; i < plan.builds.size(); ++i) {
    const BuildPipeline& build = plan.builds[i];
    if (build.placement == PipelinePlacement::kCpu) continue;
    PUMP_TRACE_SPAN(obs::TraceCategory::kPlan, "pipeline.build.place",
                    static_cast<double>(build.join_index),
                    static_cast<double>(build.table_bytes));
    const auto start = Clock::now();
    const DeviceSet devices = build.device_set.empty()
                                  ? DeviceSet{hw::kGpu0}
                                  : build.device_set;
    const std::uint64_t fragment_bytes = std::max<std::uint64_t>(
        16, build.table_bytes / devices.size());
    Status failed = Status::OK();
    for (const hw::DeviceId device : devices) {
      Status admitted = Status::OK();
      if (options.injector != nullptr) {
        admitted = options.injector->Check(fault::kPlanPipeline, "build");
      }
      Result<memory::Buffer> placement =
          admitted.ok() ? manager.AllocateHybrid(fragment_bytes, device, 0,
                                                 options.injector)
                        : Result<memory::Buffer>(admitted);
      if (!placement.ok()) {
        failed = placement.status();
        break;
      }
      report->hybrid_gpu_fraction =
          std::min(report->hybrid_gpu_fraction,
                   placement.value().FractionOnNode(device));
      placements.push_back(std::move(placement).value());
    }
    report->pipelines[i].measured_s += SecondsSince(start);
    if (!failed.ok()) {
      // Per-pipeline rung 3: this build loses its GPU placement but its
      // cached table survives for the CPU-side probe.
      report->pipelines[i].placement_used =
          ToString(PipelinePlacement::kCpu);
      ++report->pipelines[i].attempts;
      Counters().replacements.Add();
      PUMP_TRACE_INSTANT(obs::TraceCategory::kPlan, "plan.replace",
                         static_cast<double>(build.join_index));
      reasons->push_back("build pipeline '" + build.key_column +
                         "' lost its GPU placement (" + failed.ToString() +
                         "); re-placed on CPU");
      continue;
    }
  }
  if (!plan.builds.empty() && report->hybrid_gpu_fraction < 1.0) {
    reasons->push_back(
        "hybrid hash table spilled to CPU memory (GPU fraction " +
        std::to_string(report->hybrid_gpu_fraction) + ")");
  }
  return tables;
}

/// CPU probe pipeline: morsel-parallel with hierarchical work stealing.
/// Workers poll the cancel token before every morsel claim, so a
/// cancelled query stops within one morsel per worker and the call
/// returns the token's status.
Result<engine::QueryResult> RunProbeCpu(const PhysicalPlan& plan,
                                        const engine::ExecOptions& options,
                                        const TableHandles& tables) {
  const engine::Table& fact = *plan.query->fact;
  auto source = [&fact](const std::string& name)
      -> Result<const std::int64_t*> {
    PUMP_ASSIGN_OR_RETURN(const auto* column, fact.Column(name));
    return column->data();
  };
  PUMP_ASSIGN_OR_RETURN(BoundProbe bound, BindProbe(plan, tables, source));

  const std::size_t workers = std::max<std::size_t>(1, options.workers);
  const CancelToken* cancel = options.cancel;
  exec::WorkStealingDispatcher dispatcher(fact.rows(),
                                          options.morsel_tuples, workers);
  std::atomic<std::uint64_t> total_rows{0};
  std::atomic<std::int64_t> total_sum{0};
  exec::ParallelFor(workers, [&](std::size_t w) {
    PUMP_TRACE_SPAN(obs::TraceCategory::kHash, "hash.probe",
                    static_cast<double>(w),
                    static_cast<double>(bound.probes.size()));
    std::uint64_t rows = 0;
    std::int64_t sum = 0;
    std::uint64_t claimed = 0;
    // Cancel poll precedes the claim: a worker observing the token fired
    // exits without touching the dispatcher, so an already-expired query
    // claims zero morsels and a mid-flight one at most one per worker.
    while (!(cancel != nullptr && cancel->Cancelled())) {
      auto morsel = dispatcher.Next(w);
      if (!morsel) break;
      PUMP_TRACE_SPAN(obs::TraceCategory::kExec, "morsel",
                      static_cast<double>(morsel->begin),
                      static_cast<double>(morsel->size()));
      ++claimed;
      Counters().morsel_tuples.Record(morsel->size());
      ProcessRange(bound, morsel->begin, morsel->end, &rows, &sum);
    }
    Counters().morsels.Add(claimed);
    total_rows.fetch_add(rows, std::memory_order_relaxed);
    total_sum.fetch_add(sum, std::memory_order_relaxed);
  });
  if (cancel != nullptr) PUMP_RETURN_NOT_OK(cancel->ToStatus());
  return engine::QueryResult{total_rows.load(), total_sum.load()};
}

/// GPU / heterogeneous probe pipeline: each fact column is pulled in
/// place to the plan's device — walked chunk-wise with per-chunk retry
/// (rung 1), then bound by its host pointer, nothing copied — and the
/// morsel scheduler drives a GPU proxy group — plus the CPU worker group
/// for heterogeneous placements — with group failover. Any error is an
/// unrecoverable pipeline fault the caller re-places on the CPU.
Status RunProbeGpu(const PhysicalPlan& plan,
                   const engine::ExecOptions& options,
                   const TableHandles& tables,
                   engine::ExecReport* report,
                   std::vector<std::string>* reasons) {
  const engine::Table& fact = *plan.query->fact;
  const std::size_t rows = fact.rows();
  engine::PipelineOutcome& probe_row = report->pipelines.back();
  if (options.injector != nullptr) {
    PUMP_RETURN_NOT_OK(options.injector->Check(fault::kPlanPipeline,
                                               "probe"));
  }

  const transfer::TransferFaultOptions fault_options{options.injector,
                                                     options.retry};
  // A hand-built plan may carry no device set; compiled ones always do.
  const hw::DeviceId device = plan.probe.device_set.empty()
                                  ? hw::kGpu0
                                  : plan.probe.device_set.front();
  auto source = [&](const std::string& name)
      -> Result<const std::int64_t*> {
    if (options.cancel != nullptr && options.cancel->Cancelled()) {
      return options.cancel->ToStatus();
    }
    PUMP_ASSIGN_OR_RETURN(const auto* column, fact.Column(name));
    const std::uint64_t bytes = column->size() * sizeof(std::int64_t);
    PUMP_TRACE_SPAN(obs::TraceCategory::kTransfer, "pull.column",
                    static_cast<double>(bytes), static_cast<double>(device));
    PUMP_ASSIGN_OR_RETURN(
        const transfer::TransferStats stats,
        transfer::PullInPlace(bytes, device, options.chunk_bytes,
                              fault_options));
    report->transfer_retries += stats.retries;
    report->faults_injected += stats.faults_injected;
    report->modelled_backoff_s += stats.modelled_backoff_s;
    probe_row.retries += stats.retries;
    probe_row.faults_injected += stats.faults_injected;
    return column->data();
  };
  PUMP_ASSIGN_OR_RETURN(BoundProbe bound, BindProbe(plan, tables, source));

  std::atomic<std::uint64_t> total_rows{0};
  std::atomic<std::int64_t> total_sum{0};
  const std::size_t slice_tuples =
      std::max<std::size_t>(1, options.morsel_tuples);
  auto work = [&](std::size_t begin, std::size_t end) {
    PUMP_TRACE_SPAN(obs::TraceCategory::kExec, "morsel",
                    static_cast<double>(begin),
                    static_cast<double>(end - begin));
    std::uint64_t range_rows = 0;
    std::int64_t range_sum = 0;
    // A GPU batch spans many morsels; slice it so cancellation is still
    // observed at morsel granularity inside a claimed batch.
    for (std::size_t slice = begin; slice < end;) {
      if (options.cancel != nullptr && options.cancel->Cancelled()) break;
      const std::size_t slice_end = std::min(slice + slice_tuples, end);
      ProcessRange(bound, slice, slice_end, &range_rows, &range_sum);
      slice = slice_end;
    }
    total_rows.fetch_add(range_rows, std::memory_order_relaxed);
    total_sum.fetch_add(range_sum, std::memory_order_relaxed);
  };
  std::vector<exec::ProcessorGroup> groups;
  if (plan.probe.placement == PipelinePlacement::kHeterogeneous) {
    groups.push_back(
        {"CPU", std::max<std::size_t>(1, options.workers), 1, work});
  }
  groups.push_back({"GPU", 1, exec::kDefaultGpuBatchMorsels, work});
  const std::vector<exec::GroupStats> group_stats = exec::RunHeterogeneous(
      rows, options.morsel_tuples, std::move(groups), options.injector,
      options.cancel);

  std::size_t processed = 0;
  for (const exec::GroupStats& group : group_stats) {
    processed += group.tuples;
    report->failover_tuples += group.failover_tuples;
    if (group.failed) {
      reasons->push_back("processor group '" + group.name +
                         "' stalled; its morsels failed over");
    }
  }
  if (options.cancel != nullptr && options.cancel->Cancelled()) {
    return options.cancel->ToStatus();
  }
  if (processed != rows) {
    return Status::Unavailable(
        "all processor groups failed; " + std::to_string(rows - processed) +
        " tuples unprocessed");
  }
  report->result = engine::QueryResult{total_rows.load(), total_sum.load()};
  return Status::OK();
}

/// Multiplicative hash assigning a fact tuple to its owning shard — the
/// same partitioning the compiler assumed when planning the exchange.
std::size_t ShardOf(std::int64_t key, std::size_t shard_count) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) %
      shard_count);
}

/// Sharded probe pipeline of a multi-device plan: fact tuples are
/// hash-partitioned on the first probe key (row-range partitioned for
/// join-free plans), partitions are exchanged all-to-all over the
/// modelled mesh through the transfer layer — each one pulled in place
/// to its destination device, chunk-wise with retry, nothing copied —
/// and each shard probes its partition of the host columns in parallel.
/// Tuple-at-a-time semantics are ProcessRange's and the aggregate is
/// order-independent, so the result is bit-identical to the
/// single-device plan. A shard whose device fails
/// its modelled allocation degrades alone — the other shards keep their
/// placements (shard-by-shard fault ladder).
Status RunProbeSharded(const PhysicalPlan& plan,
                       const engine::ExecOptions& options,
                       const TableHandles& tables,
                       engine::ExecReport* report,
                       std::vector<std::string>* reasons) {
  const engine::Table& fact = *plan.query->fact;
  const std::size_t rows = fact.rows();
  const DeviceSet& devices = plan.shard.devices;
  const std::size_t shard_count = devices.size();
  engine::PipelineOutcome& probe_row = report->pipelines.back();
  if (options.injector != nullptr) {
    PUMP_RETURN_NOT_OK(options.injector->Check(fault::kPlanPipeline,
                                               "probe"));
  }

  // Functional execution stays on host columns; the device side of the
  // plan (allocations, exchange transfers) is modelled, as everywhere.
  auto source = [&fact](const std::string& name)
      -> Result<const std::int64_t*> {
    PUMP_ASSIGN_OR_RETURN(const auto* column, fact.Column(name));
    return column->data();
  };
  PUMP_ASSIGN_OR_RETURN(BoundProbe bound, BindProbe(plan, tables, source));

  // Partition: shard `dst` owns tuple i when its first probe key hashes
  // to dst (a join-free plan owns contiguous row ranges instead, and
  // nothing crosses shards). The *source* shard of tuple i is its row
  // range — that is where the tuple was scanned before the exchange.
  const std::int64_t* partition_keys = nullptr;
  for (const BoundProbeStep& probe : bound.probes) {
    partition_keys = probe.keys;
    break;
  }
  std::vector<std::vector<std::uint32_t>> shard_indices(shard_count);
  for (auto& indices : shard_indices) {
    indices.reserve(rows / shard_count + 1);
  }
  // moved_bytes[src][dst]: exchange payload leaving shard src for dst.
  std::vector<std::vector<std::uint64_t>> moved_tuples(
      shard_count, std::vector<std::uint64_t>(shard_count, 0));
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t src = i * shard_count / std::max<std::size_t>(1, rows);
    const std::size_t dst = partition_keys != nullptr
                                ? ShardOf(partition_keys[i], shard_count)
                                : src;
    shard_indices[dst].push_back(static_cast<std::uint32_t>(i));
    if (src != dst) ++moved_tuples[src][dst];
  }

  // Exchange stage: every non-empty (src, dst) partition — payload =
  // every probe-operator column of the moved tuples — is pulled to the
  // destination device through the transfer layer, chunk-wise with
  // retry. The shards probe the host columns in place, so the exchange
  // walks the partition's chunks and moves nothing.
  const transfer::TransferFaultOptions fault_options{options.injector,
                                                     options.retry};
  engine::PipelineOutcome exchange_row;
  exchange_row.name = "exchange";
  exchange_row.kind = "exchange";
  exchange_row.placement_planned = ToString(plan.probe.placement);
  exchange_row.placement_used = exchange_row.placement_planned;
  exchange_row.predicted_s = plan.exchange.modelled_cost_s;
  const auto exchange_start = Clock::now();
  const std::uint64_t tuple_bytes =
      static_cast<std::uint64_t>(plan.probe.ops.size()) *
      sizeof(std::int64_t);
  for (std::size_t src = 0; src < shard_count; ++src) {
    for (std::size_t dst = 0; dst < shard_count; ++dst) {
      const std::uint64_t tuples = moved_tuples[src][dst];
      if (tuples == 0) continue;
      if (options.cancel != nullptr && options.cancel->Cancelled()) {
        return options.cancel->ToStatus();
      }
      const std::uint64_t bytes = tuples * tuple_bytes;
      // The exchange works on behalf of the destination shard: stamp its
      // transfer spans with it so a per-query timeline shows which shard
      // each partition transfer fed.
      obs::ScopedShard shard_scope(static_cast<std::int32_t>(dst));
      PUMP_TRACE_SPAN(obs::TraceCategory::kTransfer, "exchange.partition",
                      static_cast<double>(bytes),
                      static_cast<double>(devices[dst]));
      PUMP_ASSIGN_OR_RETURN(
          const transfer::TransferStats stats,
          transfer::PullInPlace(bytes, devices[dst], options.chunk_bytes,
                                fault_options));
      report->transfer_retries += stats.retries;
      report->faults_injected += stats.faults_injected;
      report->modelled_backoff_s += stats.modelled_backoff_s;
      exchange_row.retries += stats.retries;
      exchange_row.faults_injected += stats.faults_injected;
      obs::MetricsRegistry::Instance()
          .GetCounter("plan.exchange.partitions")
          .Add();
      obs::MetricsRegistry::Instance()
          .GetCounter("plan.exchange.bytes")
          .Add(bytes);
      obs::MetricsRegistry::Instance()
          .GetCounter("plan.exchange.bytes.dev" +
                      std::to_string(devices[dst]))
          .Add(bytes);
      // Per-route byte gauge (src device -> dst device): the live
      // per-link utilization view of the mesh, prefix-scanned by
      // QueryEngine::Snapshot into the introspection exposition.
      obs::MetricsRegistry::Instance()
          .GetCounter("plan.exchange.route.d" +
                      std::to_string(devices[src]) + "_d" +
                      std::to_string(devices[dst]) + ".bytes")
          .Add(bytes);
    }
  }
  exchange_row.measured_s = SecondsSince(exchange_start);
  report->shards.push_back(std::move(exchange_row));

  // Per-shard modelled device placement: each shard's partition is
  // allocated on its own device. A failed shard degrades to the CPU
  // alone; the remaining shards keep their devices.
  hw::Topology topology =
      plan.profile != nullptr ? plan.profile->topology : hw::IbmAc922();
  memory::MemoryManager manager(&topology, /*materialize=*/false);
  std::vector<bool> shard_degraded(shard_count, false);
  std::vector<memory::Buffer> shard_buffers;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::uint64_t shard_bytes = std::max<std::uint64_t>(
        16, shard_indices[s].size() * tuple_bytes);
    Status admitted = Status::OK();
    if (options.injector != nullptr) {
      admitted = options.injector->Check(fault::kPlanPipeline, "shard");
    }
    Result<memory::Buffer> placement =
        admitted.ok() ? manager.AllocateHybrid(shard_bytes, devices[s], 0,
                                               options.injector)
                      : Result<memory::Buffer>(admitted);
    if (!placement.ok()) {
      shard_degraded[s] = true;
      ++report->shards_replaced;
      Counters().replacements.Add();
      PUMP_TRACE_INSTANT(obs::TraceCategory::kPlan, "plan.replace",
                         static_cast<double>(devices[s]));
      reasons->push_back("shard " + std::to_string(s) + " lost device " +
                         std::to_string(devices[s]) + " (" +
                         placement.status().ToString() +
                         "); re-placed on CPU, other shards unaffected");
      continue;
    }
    report->hybrid_gpu_fraction =
        std::min(report->hybrid_gpu_fraction,
                 placement.value().FractionOnNode(devices[s]));
    shard_buffers.push_back(std::move(placement).value());
  }

  // Probe the shards: each runs morsel-parallel over its own partition
  // (a degraded shard runs the identical host loop, only its modelled
  // placement changed). Workers poll the cancel token per morsel claim.
  std::atomic<std::uint64_t> total_rows{0};
  std::atomic<std::int64_t> total_sum{0};
  const std::size_t workers = std::max<std::size_t>(1, options.workers);
  const CancelToken* cancel = options.cancel;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::vector<std::uint32_t>& indices = shard_indices[s];
    engine::PipelineOutcome shard_row;
    shard_row.name =
        "shard[" + std::to_string(s) + "]@dev" + std::to_string(devices[s]);
    shard_row.kind = "probe";
    shard_row.placement_planned = ToString(plan.probe.placement);
    shard_row.placement_used = shard_degraded[s]
                                   ? ToString(PipelinePlacement::kCpu)
                                   : shard_row.placement_planned;
    if (shard_degraded[s]) ++shard_row.attempts;
    const auto shard_start = Clock::now();
    // Shard attribution for the probe phase: the executor forwards the
    // dispatching thread's context, so every worker's hash.probe/morsel
    // spans carry (query_id, shard s).
    obs::ScopedShard shard_scope(static_cast<std::int32_t>(s));
    PUMP_TRACE_SPAN(obs::TraceCategory::kExec, "shard.probe",
                    static_cast<double>(s),
                    static_cast<double>(indices.size()));
    exec::WorkStealingDispatcher dispatcher(indices.size(),
                                            options.morsel_tuples, workers);
    exec::ParallelFor(workers, [&](std::size_t w) {
      std::uint64_t shard_rows = 0;
      std::int64_t shard_sum = 0;
      std::uint64_t claimed = 0;
      while (!(cancel != nullptr && cancel->Cancelled())) {
        auto morsel = dispatcher.Next(w);
        if (!morsel) break;
        ++claimed;
        Counters().morsel_tuples.Record(morsel->size());
        ProcessIndices(bound, indices.data() + morsel->begin,
                       morsel->size(), &shard_rows, &shard_sum);
      }
      Counters().morsels.Add(claimed);
      total_rows.fetch_add(shard_rows, std::memory_order_relaxed);
      total_sum.fetch_add(shard_sum, std::memory_order_relaxed);
    });
    shard_row.measured_s = SecondsSince(shard_start);
    report->shards.push_back(std::move(shard_row));
    if (cancel != nullptr && cancel->Cancelled()) {
      return cancel->ToStatus();
    }
  }
  probe_row.retries = report->shards.front().retries;
  probe_row.faults_injected = report->shards.front().faults_injected;
  report->result = engine::QueryResult{total_rows.load(), total_sum.load()};
  return Status::OK();
}

}  // namespace

Result<engine::ExecReport> ExecutePlan(const PhysicalPlan& plan,
                                       const engine::ExecOptions& options) {
  if (plan.query == nullptr || plan.query->fact == nullptr) {
    return Status::InvalidArgument("plan has no compiled query");
  }
  if (options.cancel != nullptr) {
    PUMP_RETURN_NOT_OK(options.cancel->ToStatus());
  }
  // Install the query's trace context for the whole execution: every
  // span/instant recorded below — on this thread and, via the executor's
  // context forwarding, on every pool worker — is stamped with the id.
  obs::ScopedQueryContext query_scope(
      options.query_id != 0
          ? obs::QueryContext{options.query_id, -1}
          : obs::CurrentQueryContext());
  PUMP_TRACE_SPAN(obs::TraceCategory::kPlan, "plan.execute",
                  static_cast<double>(plan.builds.size()),
                  static_cast<double>(plan.shape.fact_rows));
  Counters().queries.Add();
  engine::ExecReport report;
  InitPipelineRows(plan, &report);
  std::vector<std::string> reasons;
  // Mirror the in-progress report on every exit path (the PUMP_*_RETURN
  // macros included): a fault-ladder exhaustion returns a bare Status,
  // and this copy is how the flight recorder still gets the failed
  // attempt's pipeline rows.
  struct ReportMirror {
    engine::ExecReport* dst;
    const engine::ExecReport* src;
    ~ReportMirror() {
      if (dst != nullptr) *dst = *src;
    }
  } report_mirror{options.partial_report, &report};

  // Build stage (cached across the whole ladder).
  PUMP_ASSIGN_OR_RETURN(const TableHandles tables,
                        RunBuildPipelines(plan, options, &report, &reasons));

  // Probe stage, per-pipeline ladder.
  Counters().probe_pipelines.Add();
  if (plan.probe.placement != PipelinePlacement::kCpu) {
    const auto gpu_start = Clock::now();
    Status gpu_status;
    {
      PUMP_TRACE_SPAN(obs::TraceCategory::kPlan, "pipeline.probe",
                      /*arg0=*/1.0,
                      static_cast<double>(plan.shape.fact_rows));
      gpu_status =
          plan.shard.active()
              ? RunProbeSharded(plan, options, tables, &report, &reasons)
              : RunProbeGpu(plan, options, tables, &report, &reasons);
    }
    ChargePipelineTime(&report.pipelines.back(), SecondsSince(gpu_start));
    if (gpu_status.ok()) {
      // A sharded plan only counts as GPU-executed while at least one
      // shard kept its device; all-shards-degraded is a CPU result.
      report.used_gpu = !plan.shard.active() ||
                        report.shards_replaced < plan.shard.shard_count();
      if (plan.shard.active() &&
          report.shards_replaced == plan.shard.shard_count()) {
        report.pipelines.back().placement_used =
            ToString(PipelinePlacement::kCpu);
      }
      FinishReasons(reasons, &report);
      return report;
    }
    // A cancelled/deadline-expired query is not a fault: it must NOT
    // descend the ladder (the CPU re-placement would burn the very
    // workers cancellation is supposed to release).
    if (options.cancel != nullptr && options.cancel->Cancelled()) {
      return options.cancel->ToStatus();
    }
    // Rung 3, scoped to this pipeline: re-place the probe on the CPU,
    // reusing every cached build instead of rebuilding. The summed fault
    // totals reset with the fresh report — they describe the attempt
    // that produced the result — but the per-pipeline rows carry the
    // failed attempt's history so the report still explains what was
    // tried.
    PUMP_TRACE_INSTANT(obs::TraceCategory::kPlan, "plan.replace",
                       /*arg0=*/-1.0);
    Counters().replacements.Add();
    const std::size_t built = report.dim_tables_built;
    std::vector<engine::PipelineOutcome> rows =
        std::move(report.pipelines);
    rows.back().placement_used = ToString(PipelinePlacement::kCpu);
    ++rows.back().attempts;
    report = engine::ExecReport{};
    report.pipelines = std::move(rows);
    report.dim_tables_built = built;
    report.dim_tables_reused = tables.size();
    Counters().dim_tables_reused.Add(tables.size());
    report.degraded = true;
    report.degradation_reason =
        "probe pipeline failed on GPU (" + gpu_status.ToString() +
        "); fell back to CPU plan, reusing " +
        std::to_string(tables.size()) + " cached build pipelines";
    const auto cpu_start = Clock::now();
    {
      PUMP_TRACE_SPAN(obs::TraceCategory::kPlan, "pipeline.probe",
                      /*arg0=*/0.0,
                      static_cast<double>(plan.shape.fact_rows));
      PUMP_ASSIGN_OR_RETURN(report.result,
                            RunProbeCpu(plan, options, tables));
    }
    ChargePipelineTime(&report.pipelines.back(), SecondsSince(cpu_start));
    report.used_gpu = false;
    return report;
  }

  const auto cpu_start = Clock::now();
  {
    PUMP_TRACE_SPAN(obs::TraceCategory::kPlan, "pipeline.probe",
                    /*arg0=*/0.0,
                    static_cast<double>(plan.shape.fact_rows));
    PUMP_ASSIGN_OR_RETURN(report.result,
                          RunProbeCpu(plan, options, tables));
  }
  ChargePipelineTime(&report.pipelines.back(), SecondsSince(cpu_start));
  report.used_gpu = false;
  FinishReasons(reasons, &report);
  return report;
}

}  // namespace pump::plan
