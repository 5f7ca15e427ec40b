#include "server/introspect.h"

#include <sstream>

#include "bench_support/json_writer.h"

namespace pump::server {

namespace {

void AppendPipelineRows(
    std::ostringstream& out,
    const std::vector<engine::PipelineOutcome>& rows) {
  out << "[";
  bool first = true;
  for (const engine::PipelineOutcome& row : rows) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << bench::JsonEscape(row.name) << "\",\"kind\":\""
        << bench::JsonEscape(row.kind) << "\",\"placement_planned\":\""
        << bench::JsonEscape(row.placement_planned)
        << "\",\"placement_used\":\"" << bench::JsonEscape(row.placement_used)
        << "\",\"attempts\":" << row.attempts
        << ",\"retries\":" << row.retries
        << ",\"faults_injected\":" << row.faults_injected
        << ",\"measured_s\":" << row.measured_s
        << ",\"predicted_s\":" << row.predicted_s << "}";
  }
  out << "]";
}

}  // namespace

std::string ReportJson(const engine::ExecReport& report) {
  std::ostringstream out;
  out << "{\"used_gpu\":" << (report.used_gpu ? "true" : "false")
      << ",\"degraded\":" << (report.degraded ? "true" : "false")
      << ",\"degradation_reason\":\""
      << bench::JsonEscape(report.degradation_reason)
      << "\",\"hybrid_gpu_fraction\":" << report.hybrid_gpu_fraction
      << ",\"transfer_retries\":" << report.transfer_retries
      << ",\"faults_injected\":" << report.faults_injected
      << ",\"dim_tables_built\":" << report.dim_tables_built
      << ",\"dim_tables_reused\":" << report.dim_tables_reused
      << ",\"shards_replaced\":" << report.shards_replaced
      << ",\"pipelines\":";
  AppendPipelineRows(out, report.pipelines);
  out << ",\"shards\":";
  AppendPipelineRows(out, report.shards);
  out << "}";
  return out.str();
}

std::string ToJson(const EngineSnapshot& snapshot) {
  std::ostringstream out;
  const EngineStats& stats = snapshot.stats;
  out << "{\"stats\":{\"submitted\":" << stats.submitted
      << ",\"admitted\":" << stats.admitted << ",\"shed\":" << stats.shed
      << ",\"compile_rejected\":" << stats.compile_rejected
      << ",\"cancelled\":" << stats.cancelled
      << ",\"deadline_exceeded\":" << stats.deadline_exceeded
      << ",\"degraded_to_cpu\":" << stats.degraded_to_cpu
      << ",\"completed\":" << stats.completed
      << ",\"failed\":" << stats.failed
      << ",\"queue_depth\":" << stats.queue_depth
      << ",\"running\":" << stats.running
      << ",\"device_inflight_bytes\":{";
  bool first = true;
  for (const auto& [device, bytes] : stats.device_inflight_bytes) {
    if (!first) out << ",";
    first = false;
    out << "\"" << static_cast<int>(device) << "\":" << bytes;
  }
  out << "}},\"queries\":[";
  first = true;
  for (const QueryRow& row : snapshot.queries) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":" << row.id << ",\"state\":\"" << ToString(row.state)
        << "\",\"tag\":\"" << bench::JsonEscape(row.tag)
        << "\",\"age_s\":" << row.age_s << "}";
  }
  out << "],\"cache\":{\"hits\":" << snapshot.cache.hits
      << ",\"misses\":" << snapshot.cache.misses
      << ",\"evictions\":" << snapshot.cache.evictions
      << ",\"single_flight_waits\":" << snapshot.cache.single_flight_waits
      << ",\"resident_bytes\":" << snapshot.cache.resident_bytes
      << ",\"entries\":" << snapshot.cache.entries
      << ",\"hit_ratio\":" << snapshot.cache_hit_ratio << ",\"contents\":[";
  first = true;
  for (const auto& entry : snapshot.cache_contents) {
    if (!first) out << ",";
    first = false;
    out << "{\"key\":\"" << bench::JsonEscape(entry.key)
        << "\",\"bytes\":" << entry.bytes << "}";
  }
  const obs::SlidingWindow::Aggregate& window = snapshot.latency_us;
  out << "]},\"window\":{\"count\":" << window.count
      << ",\"sum_us\":" << window.sum << ",\"p50_us\":" << window.p50
      << ",\"p99_us\":" << window.p99 << ",\"qps\":" << window.rate_per_s
      << ",\"window_s\":" << static_cast<double>(window.window_ns) / 1e9
      << "},\"exchange_routes\":{";
  first = true;
  for (const auto& [route, bytes] : snapshot.exchange_route_bytes) {
    if (!first) out << ",";
    first = false;
    out << "\"" << bench::JsonEscape(route) << "\":" << bytes;
  }
  out << "},\"incidents\":{\"captured\":" << snapshot.incidents.captured
      << ",\"evicted\":" << snapshot.incidents.evicted << ",\"by_kind\":{";
  first = true;
  for (const auto& [kind, count] : snapshot.incidents.captured_by_kind) {
    if (!first) out << ",";
    first = false;
    out << "\"" << bench::JsonEscape(kind) << "\":" << count;
  }
  out << "}},\"slo\":{\"configured\":"
      << (snapshot.slo_configured ? "true" : "false")
      << ",\"ok\":" << (snapshot.slo_ok ? "true" : "false")
      << ",\"violation\":\"" << bench::JsonEscape(snapshot.slo_violation)
      << "\",\"p99_us\":" << snapshot.slo_p99_us
      << ",\"min_qps\":" << snapshot.slo_min_qps << "}}";
  return out.str();
}

std::string ToPrometheus(const EngineSnapshot& snapshot) {
  std::ostringstream out;
  const EngineStats& stats = snapshot.stats;
  auto counter = [&out](const char* name, std::uint64_t value) {
    out << "# TYPE " << name << " counter\n" << name << " " << value << "\n";
  };
  auto gauge = [&out](const char* name, double value) {
    out << "# TYPE " << name << " gauge\n" << name << " " << value << "\n";
  };
  counter("pump_server_submitted", stats.submitted);
  counter("pump_server_admitted", stats.admitted);
  counter("pump_server_shed", stats.shed);
  counter("pump_server_compile_rejected", stats.compile_rejected);
  counter("pump_server_cancelled", stats.cancelled);
  counter("pump_server_deadline_exceeded", stats.deadline_exceeded);
  counter("pump_server_degraded_to_cpu", stats.degraded_to_cpu);
  counter("pump_server_completed", stats.completed);
  counter("pump_server_failed", stats.failed);
  gauge("pump_server_queue_depth", static_cast<double>(stats.queue_depth));
  gauge("pump_server_running", static_cast<double>(stats.running));
  out << "# TYPE pump_server_device_inflight_bytes gauge\n";
  for (const auto& [device, bytes] : stats.device_inflight_bytes) {
    out << "pump_server_device_inflight_bytes{device=\""
        << static_cast<int>(device) << "\"} " << bytes << "\n";
  }
  gauge("pump_server_active_queries",
        static_cast<double>(snapshot.queries.size()));
  counter("pump_cache_hits", snapshot.cache.hits);
  counter("pump_cache_misses", snapshot.cache.misses);
  counter("pump_cache_evictions", snapshot.cache.evictions);
  counter("pump_cache_single_flight_waits",
          snapshot.cache.single_flight_waits);
  gauge("pump_cache_resident_bytes",
        static_cast<double>(snapshot.cache.resident_bytes));
  gauge("pump_cache_entries", static_cast<double>(snapshot.cache.entries));
  gauge("pump_cache_hit_ratio", snapshot.cache_hit_ratio);
  const obs::SlidingWindow::Aggregate& window = snapshot.latency_us;
  gauge("pump_window_count", static_cast<double>(window.count));
  gauge("pump_window_latency_p50_us", static_cast<double>(window.p50));
  gauge("pump_window_latency_p99_us", static_cast<double>(window.p99));
  gauge("pump_window_qps", window.rate_per_s);
  out << "# TYPE pump_exchange_route_bytes counter\n";
  for (const auto& [route, bytes] : snapshot.exchange_route_bytes) {
    out << "pump_exchange_route_bytes{route=\"" << route << "\"} " << bytes
        << "\n";
  }
  counter("pump_incidents_captured", snapshot.incidents.captured);
  counter("pump_incidents_evicted", snapshot.incidents.evicted);
  out << "# TYPE pump_incidents_by_kind counter\n";
  for (const auto& [kind, count] : snapshot.incidents.captured_by_kind) {
    out << "pump_incidents_by_kind{kind=\"" << kind << "\"} " << count
        << "\n";
  }
  gauge("pump_slo_ok", snapshot.slo_ok ? 1.0 : 0.0);
  return out.str();
}

}  // namespace pump::server
