#include "obs/metrics.h"

#include <fstream>
#include <mutex>
#include <sstream>

#include "bench_support/json_writer.h"
#include "common/cpu_features.h"

namespace pump::obs {

MetricsRegistry& MetricsRegistry::Instance() {
  // Intentionally leaked: counters are bumped from pool threads that can
  // outlive ordinary static-destruction order (exec::Executor::Default()),
  // so the registry must never destruct.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::Counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "\n  \"" << bench::JsonEscape(name)
        << "\": " << counter->value();
  }
  out << "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out << ",";
    first = false;
    out << "\n  \"" << bench::JsonEscape(name)
        << "\": {\"count\": " << histogram->count()
        << ", \"sum\": " << histogram->sum() << ", \"buckets\": {";
    bool first_bucket = true;
    for (int b = 0; b <= Histogram::kBuckets; ++b) {
      const std::uint64_t count = histogram->bucket(b);
      if (count == 0) continue;
      if (!first_bucket) out << ", ";
      first_bucket = false;
      out << "\"" << b << "\": " << count;
    }
    out << "}}";
  }
  out << "\n}}\n";
  return out.str();
}

bool MetricsRegistry::WriteSnapshot(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << SnapshotJson();
  return file.good();
}

void EnsureCoreMetrics() {
  static const char* const kCoreCounters[] = {
      // exec::Executor (persistent fork-join pool).
      "exec.dispatches", "exec.tasks_run", "exec.steals", "exec.parks",
      "exec.unparks",
      // exec::RunHeterogeneous (CPU+GPU group scheduler).
      "exec.het.batches", "exec.het.orphaned_batches",
      "exec.het.failover_batches", "exec.het.group_stalls",
      // fault::FaultInjector / fault::RunWithRetry.
      "fault.checks", "fault.injections", "fault.retries",
      // transfer::ExecuteTransfer.
      "transfer.chunks", "transfer.bytes", "transfer.retries",
      "transfer.faults_injected", "transfer.degraded_chunks",
      // plan::ExecutePlan.
      "plan.queries", "plan.pipelines.build", "plan.pipelines.probe",
      "plan.dim_tables_built", "plan.dim_tables_reused",
      "plan.replacements", "plan.morsels",
      // plan::BuildCache (process-wide dimension-table cache).
      "plan.cache.hits", "plan.cache.misses", "plan.cache.evictions",
      "plan.cache.single_flight_waits",
      // plan exchange stage (sharded probes); the per-device and
      // per-route byte gauges (plan.exchange.bytes.dev<d>,
      // plan.exchange.route.d<s>_d<d>.bytes) register dynamically, one
      // per active mesh edge.
      "plan.exchange.partitions", "plan.exchange.bytes",
      // server::QueryEngine (admission / scheduling / cancellation).
      "server.submitted", "server.admitted", "server.shed",
      "server.cancelled", "server.deadline_exceeded",
      "server.degraded_to_cpu", "server.completed", "server.failed",
      // obs::FlightRecorder (incident ring).
      "obs.incidents.captured", "obs.incidents.evicted",
  };
  static const char* const kCoreHistograms[] = {
      "transfer.chunk_bytes",
      "plan.pipeline_us",
      "plan.morsel_tuples",
      "server.queue_depth",
      "server.queue_wait_us",
      "server.query_latency_us",
  };
  MetricsRegistry& registry = MetricsRegistry::Instance();
  for (const char* name : kCoreCounters) (void)registry.GetCounter(name);
  for (const char* name : kCoreHistograms) (void)registry.GetHistogram(name);

  // The process-wide SIMD dispatch decision (common/cpu_features.h),
  // exposed as 0/1 gauges so any metrics snapshot records which probe
  // and partition kernels produced it. cpu.simd.avx512f is report-only:
  // detection exists but nothing dispatches to it (DESIGN.md Sec. 14).
  // Latched once — a later SetForceScalar (tests, benches) is a local
  // experiment, not the process decision.
  static std::once_flag simd_once;
  std::call_once(simd_once, [&registry] {
    const common::CpuFeatures& cpu = common::DetectCpuFeatures();
    const auto set = [&registry](const char* name, bool value) {
      Counter& gauge = registry.GetCounter(name);
      if (value) gauge.Add(1);
    };
    set("cpu.simd.sse42", cpu.sse42);
    set("cpu.simd.avx2", cpu.avx2_usable);
    set("cpu.simd.avx512f", cpu.avx512f);
    set("cpu.simd.dispatch_avx2",
        common::ActiveSimdDispatch() == common::SimdDispatch::kAvx2);
  });
}

}  // namespace pump::obs
