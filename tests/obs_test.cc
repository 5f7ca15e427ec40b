// Tests for the observability layer (src/obs/): trace-recorder ring
// semantics (nesting order, wrap without tearing, quiescent snapshots),
// Chrome trace_event export with B/E repair, metrics registry behavior
// under the persistent executor from all workers (the TSan lane runs this
// file), and the residual report round-trip plus its linter.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/model_check.h"
#include "engine/executor.h"
#include "engine/ssb.h"
#include "exec/parallel.h"
#include "fault/fault_injector.h"
#include "hw/system_profile.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_context.h"
#include "obs/residuals.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "plan/compiler.h"
#include "plan/executor.h"

namespace pump {
namespace {

using obs::MetricsRegistry;
using obs::TraceRecorder;

/// RAII guard: clears the recorder, enables it for the test body, and
/// leaves it disabled and clear afterwards so tests cannot leak events
/// into each other through the process-wide rings.
class ScopedTracing {
 public:
  ScopedTracing() {
    TraceRecorder::Instance().Clear();
    TraceRecorder::Instance().Enable();
  }
  ~ScopedTracing() {
    TraceRecorder::Instance().Disable();
    TraceRecorder::Instance().Clear();
  }
};

/// PUMP_TRACE=OFF compiles the span/instant macros out: there, a test
/// that recorded through them checks that nothing was recorded and stops.
bool MacrosCompiledOut() {
  if (PUMP_TRACE_ENABLED) return false;
  EXPECT_TRUE(TraceRecorder::Instance().Snapshot().empty());
  return true;
}

/// The calling thread's retained events (tests record from the main
/// thread unless stated otherwise; worker threads get their own rings).
std::vector<obs::TraceEvent> EventsNamed(
    const std::vector<obs::ThreadTrace>& traces, const char* name) {
  std::vector<obs::TraceEvent> out;
  for (const obs::ThreadTrace& thread : traces) {
    for (const obs::TraceEvent& event : thread.events) {
      if (std::strcmp(event.name, name) == 0) out.push_back(event);
    }
  }
  return out;
}

TEST(TraceRecorderTest, SpanNestingOrderIsRingOrder) {
  ScopedTracing tracing;
  {
    PUMP_TRACE_SPAN(obs::TraceCategory::kTool, "outer", 1.0, 2.0);
    {
      PUMP_TRACE_SPAN(obs::TraceCategory::kTool, "inner");
    }
    PUMP_TRACE_INSTANT(obs::TraceCategory::kTool, "tick", 3.0);
  }
  if (MacrosCompiledOut()) return;
  const std::vector<obs::ThreadTrace> traces =
      TraceRecorder::Instance().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const std::vector<obs::TraceEvent>& events = traces[0].events;
  ASSERT_EQ(events.size(), 5u);

  // Ring order is exactly the nesting order: B(outer) B(inner) E i E.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_TRUE(events[0].has_args);
  EXPECT_DOUBLE_EQ(events[0].arg0, 1.0);
  EXPECT_DOUBLE_EQ(events[0].arg1, 2.0);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].phase, 'B');
  EXPECT_STREQ(events[2].name, "inner");
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_STREQ(events[3].name, "tick");
  EXPECT_EQ(events[3].phase, 'i');
  EXPECT_STREQ(events[4].name, "outer");
  EXPECT_EQ(events[4].phase, 'E');

  // Timestamps are monotone within a thread's ring.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorder::Instance().Clear();
  ASSERT_FALSE(TraceRecorder::Enabled());
  {
    PUMP_TRACE_SPAN(obs::TraceCategory::kTool, "invisible");
    PUMP_TRACE_INSTANT(obs::TraceCategory::kTool, "also-invisible");
  }
  EXPECT_TRUE(TraceRecorder::Instance().Snapshot().empty());
}

TEST(TraceRecorderTest, SpanActiveAtConstructionRecordsBothEnds) {
  // A span constructed while enabled must emit its 'E' even if the
  // recorder is disabled mid-span (active_ is latched at construction),
  // keeping per-thread rings balanced.
  TraceRecorder::Instance().Clear();
  TraceRecorder::Instance().Enable();
  {
    PUMP_TRACE_SPAN(obs::TraceCategory::kTool, "latched");
    TraceRecorder::Instance().Disable();
  }
  if (MacrosCompiledOut()) return;
  const std::vector<obs::ThreadTrace> traces =
      TraceRecorder::Instance().Snapshot();
  const std::vector<obs::TraceEvent> events = EventsNamed(traces, "latched");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
  TraceRecorder::Instance().Clear();
}

TEST(TraceRecorderTest, RingWrapKeepsNewestWindowWithoutTearing) {
  ScopedTracing tracing;
  const std::size_t capacity = TraceRecorder::Instance().ring_capacity();
  const std::size_t extra = 1000;
  const std::size_t total = capacity + extra;
  for (std::size_t i = 0; i < total; ++i) {
    obs::TraceInstant(obs::TraceCategory::kTool, "seq",
                      static_cast<double>(i), static_cast<double>(i) * 2.0);
  }
  const std::vector<obs::ThreadTrace> traces =
      TraceRecorder::Instance().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].dropped, extra);
  ASSERT_EQ(traces[0].events.size(), capacity);
  // The retained window is the newest `capacity` events, oldest first,
  // and every slot is intact (arg1 consistent with arg0 — no tearing).
  for (std::size_t i = 0; i < capacity; ++i) {
    const obs::TraceEvent& event = traces[0].events[i];
    EXPECT_DOUBLE_EQ(event.arg0, static_cast<double>(extra + i));
    EXPECT_DOUBLE_EQ(event.arg1, event.arg0 * 2.0);
  }
}

TEST(TraceRecorderTest, ClearRewindsWithoutInvalidatingThreadRings) {
  ScopedTracing tracing;
  PUMP_TRACE_INSTANT(obs::TraceCategory::kTool, "before");
  TraceRecorder::Instance().Clear();
  EXPECT_TRUE(TraceRecorder::Instance().Snapshot().empty());
  // The thread's ring pointer survives Clear; recording keeps working.
  PUMP_TRACE_INSTANT(obs::TraceCategory::kTool, "after");
  if (MacrosCompiledOut()) return;
  const std::vector<obs::ThreadTrace> traces =
      TraceRecorder::Instance().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].events.size(), 1u);
  EXPECT_STREQ(traces[0].events[0].name, "after");
}

TEST(TraceRecorderTest, SpansFromAllExecutorWorkersLandInPerThreadRings) {
  ScopedTracing tracing;
  // Force >= 2 workers: single-core containers report one hardware
  // thread, and this test exists to exercise concurrent recording from
  // the persistent executor's pool threads (TSan lane).
  const std::size_t workers =
      std::max<std::size_t>(2, exec::DefaultWorkerCount());
  const int spans_per_worker = 200;
  exec::ParallelFor(workers, [&]([[maybe_unused]] std::size_t w) {
    for (int i = 0; i < spans_per_worker; ++i) {
      PUMP_TRACE_SPAN(obs::TraceCategory::kExec, "worker.span",
                      static_cast<double>(w), static_cast<double>(i));
      PUMP_TRACE_INSTANT(obs::TraceCategory::kExec, "worker.tick",
                         static_cast<double>(w));
    }
  });
  // ParallelFor's barrier guarantees writer quiescence here.
  if (MacrosCompiledOut()) return;
  const std::vector<obs::ThreadTrace> traces =
      TraceRecorder::Instance().Snapshot();
  std::size_t spans = 0;
  for (const obs::ThreadTrace& thread : traces) {
    // Per-thread ring order must be balanced nesting: depth never dips
    // below zero and every B is eventually closed.
    std::int64_t depth = 0;
    for (const obs::TraceEvent& event : thread.events) {
      if (event.phase == 'B') {
        ++depth;
        ++spans;
      } else if (event.phase == 'E') {
        --depth;
        ASSERT_GE(depth, 0) << "unmatched E in a thread ring";
      }
    }
    EXPECT_EQ(depth, 0) << "span left open in a quiescent ring";
  }
  EXPECT_EQ(spans, workers * static_cast<std::size_t>(spans_per_worker));
}

TEST(TraceRecorderTest, ChromeExportBalancesEveryThread) {
  ScopedTracing tracing;
  {
    PUMP_TRACE_SPAN(obs::TraceCategory::kTool, "parent", 1.0, 0.0);
    PUMP_TRACE_SPAN(obs::TraceCategory::kTool, "child");
  }
  if (MacrosCompiledOut()) return;
  // An orphan 'E' (its 'B' lost to a wrap) and a dangling open 'B' (span
  // still open at snapshot): the exporter must drop the former and
  // synthesize a closer for the latter.
  TraceRecorder::Instance().Record(obs::TraceCategory::kTool, "orphan", 'E');
  TraceRecorder::Instance().Record(obs::TraceCategory::kTool, "open", 'B');

  const std::string json = TraceRecorder::Instance().ToChromeJson();
  ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.find("\"orphan\""), std::string::npos)
      << "orphan 'E' must be dropped from the export";

  // Golden structural check: scan the exported objects in order and
  // verify the B/E sequence is balanced (the Python JSON validation of
  // the same export runs in scripts/check.sh).
  std::vector<char> phases;
  for (std::size_t at = json.find("\"ph\":\""); at != std::string::npos;
       at = json.find("\"ph\":\"", at + 1)) {
    phases.push_back(json[at + 6]);
  }
  ASSERT_EQ(phases.size(), 6u);  // parent B/E, child B/E, open B + closer.
  std::int64_t depth = 0;
  for (char phase : phases) {
    if (phase == 'B') ++depth;
    if (phase == 'E') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0) << "export left a span unbalanced";
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  obs::Histogram histogram;
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(2);
  histogram.Record(3);
  histogram.Record(1024);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.sum(), 1030u);
  EXPECT_EQ(histogram.bucket(0), 1u);  // zero
  EXPECT_EQ(histogram.bucket(1), 1u);  // [1, 2)
  EXPECT_EQ(histogram.bucket(2), 2u);  // [2, 4)
  EXPECT_EQ(histogram.bucket(11), 1u);  // [1024, 2048)
}

TEST(MetricsTest, CountersAggregateFromAllExecutorWorkers) {
  obs::Counter& counter =
      MetricsRegistry::Instance().GetCounter("test.obs.worker_adds");
  obs::Histogram& histogram =
      MetricsRegistry::Instance().GetHistogram("test.obs.worker_values");
  counter.Reset();
  histogram.Reset();
  const std::size_t workers =
      std::max<std::size_t>(2, exec::DefaultWorkerCount());
  const std::uint64_t adds_per_worker = 10'000;
  exec::ParallelFor(workers, [&](std::size_t) {
    for (std::uint64_t i = 0; i < adds_per_worker; ++i) {
      counter.Add();
      histogram.Record(i & 0xff);
    }
  });
  EXPECT_EQ(counter.value(), workers * adds_per_worker);
  EXPECT_EQ(histogram.count(), workers * adds_per_worker);
}

TEST(MetricsTest, SnapshotContainsCoreFamiliesEvenWhenUntouched) {
  obs::EnsureCoreMetrics();
  const std::string json = MetricsRegistry::Instance().SnapshotJson();
  for (const char* name :
       {"exec.dispatches", "exec.tasks_run", "exec.ws.chunk_claims",
        "exec.het.batches", "fault.checks", "fault.injections",
        "fault.retries", "transfer.chunks", "transfer.bytes",
        "plan.queries", "plan.morsels"}) {
    const std::string needle = std::string("\"") + name + "\"";
    EXPECT_NE(json.find(needle), std::string::npos)
        << "metrics snapshot lost counter family " << name;
  }
  for (const char* name : {"transfer.chunk_bytes", "plan.pipeline_us"}) {
    const std::string needle = std::string("\"") + name + "\"";
    EXPECT_NE(json.find(needle), std::string::npos)
        << "metrics snapshot lost histogram " << name;
  }
}

TEST(MetricsTest, RegistryReferencesAreStableAcrossLookups) {
  obs::Counter& first =
      MetricsRegistry::Instance().GetCounter("test.obs.stable");
  obs::Counter& second =
      MetricsRegistry::Instance().GetCounter("test.obs.stable");
  EXPECT_EQ(&first, &second);
}

TEST(ResidualsTest, RatioEdgeCases) {
  EXPECT_DOUBLE_EQ(obs::ResidualRatio(2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(obs::ResidualRatio(0.0, 1.0), 0.0);   // no prediction
  EXPECT_DOUBLE_EQ(obs::ResidualRatio(-1.0, 1.0), 0.0);  // nonsense input
  EXPECT_DOUBLE_EQ(obs::ResidualRatio(1.0, -1.0), 0.0);
}

TEST(ResidualsTest, ReportRoundTripsThroughJson) {
  obs::ResidualReport report;
  report.query = "ssb-q3";
  report.policy = "cost";
  report.wall_s = 0.125;
  report.rows.push_back({"build[0]", "build", "gpu", "gpu", 0.5, 1.0, 2.0});
  report.rows.push_back({"probe", "probe", "gpu", "cpu", 1.0, 3.0, 3.0});

  const std::string json = obs::ToJson(report);
  Result<obs::ResidualReport> parsed = obs::ParseResidualReport(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().query, "ssb-q3");
  EXPECT_EQ(parsed.value().policy, "cost");
  EXPECT_DOUBLE_EQ(parsed.value().wall_s, 0.125);
  ASSERT_EQ(parsed.value().rows.size(), 2u);
  EXPECT_EQ(parsed.value().rows[0].pipeline, "build[0]");
  EXPECT_EQ(parsed.value().rows[0].pipeline_class, "build");
  EXPECT_DOUBLE_EQ(parsed.value().rows[0].predicted_s, 0.5);
  EXPECT_DOUBLE_EQ(parsed.value().rows[0].ratio, 2.0);
  EXPECT_EQ(parsed.value().rows[1].placement_planned, "gpu");
  EXPECT_EQ(parsed.value().rows[1].placement_used, "cpu");
}

TEST(ResidualsTest, ParserRejectsNonResidualInput) {
  EXPECT_FALSE(obs::ParseResidualReport("{\"counters\":{}}").ok());
  EXPECT_FALSE(
      obs::ParseResidualReport("{\"model_residuals\":[]}").ok());
}

TEST(ResidualsTest, CheckResidualsBandsPerClass) {
  obs::ResidualReport report;
  report.query = "ssb-q1";
  report.rows.push_back({"build[0]", "build", "gpu", "gpu", 1.0, 1.5, 1.5});
  report.rows.push_back({"probe", "probe", "gpu", "gpu", 1.0, 4.0, 4.0});

  check::ResidualBands bands;
  bands["build"] = {0.5, 2.0};
  bands["probe"] = {0.5, 5.0};
  EXPECT_TRUE(check::CheckResiduals(report, bands).ok());

  // Tighten the probe band: only the probe row must violate.
  bands["probe"] = {0.5, 2.0};
  const check::ProfileReport flagged = check::CheckResiduals(report, bands);
  ASSERT_EQ(flagged.violations.size(), 1u);
  EXPECT_EQ(flagged.violations[0].check, "residual.band");
  EXPECT_EQ(flagged.violations[0].subject, "probe");

  // The "" key is the default band for classes without their own.
  check::ResidualBands default_band;
  default_band[""] = {0.5, 2.0};
  EXPECT_EQ(check::CheckResiduals(report, default_band).violations.size(),
            1u);

  // Rows without a prediction are never banded.
  obs::ResidualReport unpredicted;
  unpredicted.query = "q";
  unpredicted.rows.push_back({"probe", "probe", "cpu", "cpu", 0.0, 9.0,
                              0.0});
  EXPECT_TRUE(check::CheckResiduals(unpredicted, default_band).ok());
}

TEST(ResidualsTest, CheckResidualsFlagsInconsistentRows) {
  obs::ResidualReport report;
  report.query = "q";
  // Ratio does not equal measured/predicted.
  report.rows.push_back({"probe", "probe", "cpu", "cpu", 1.0, 2.0, 7.0});
  const check::ProfileReport flagged =
      check::CheckResiduals(report, check::ResidualBands{});
  ASSERT_EQ(flagged.violations.size(), 1u);
  EXPECT_EQ(flagged.violations[0].check, "residual.consistency");

  obs::ResidualReport unknown_class;
  unknown_class.query = "q";
  unknown_class.rows.push_back({"x", "scan", "cpu", "cpu", 0.0, 0.0, 0.0});
  EXPECT_FALSE(
      check::CheckResiduals(unknown_class, check::ResidualBands{}).ok());

  obs::ResidualReport empty;
  empty.query = "q";
  EXPECT_FALSE(check::CheckResiduals(empty, check::ResidualBands{}).ok());
}

TEST(QueryContextTest, ScopesNestAndRestore) {
  EXPECT_EQ(obs::CurrentQueryContext().query_id, 0u);
  EXPECT_EQ(obs::CurrentQueryContext().shard, -1);
  {
    obs::ScopedQueryContext outer(obs::QueryContext{7, -1});
    EXPECT_EQ(obs::CurrentQueryContext().query_id, 7u);
    {
      obs::ScopedShard shard(3);
      EXPECT_EQ(obs::CurrentQueryContext().query_id, 7u);
      EXPECT_EQ(obs::CurrentQueryContext().shard, 3);
    }
    EXPECT_EQ(obs::CurrentQueryContext().shard, -1);
  }
  EXPECT_EQ(obs::CurrentQueryContext().query_id, 0u);
}

TEST(QueryContextTest, ContextPropagatesToExecutorPoolThreads) {
  ScopedTracing tracing;
  const std::size_t workers =
      std::max<std::size_t>(2, exec::DefaultWorkerCount());
  {
    obs::ScopedQueryContext scope(obs::QueryContext{42, -1});
    exec::ParallelFor(workers, [&]([[maybe_unused]] std::size_t w) {
      PUMP_TRACE_INSTANT(obs::TraceCategory::kExec, "ctx.tick",
                         static_cast<double>(w));
    });
  }
  if (MacrosCompiledOut()) return;
  // Every worker's event — pool threads included — carries the query id
  // installed on the dispatching thread; that stamp is the correlation
  // mechanism behind tracedump --query-id.
  const std::vector<obs::TraceEvent> events =
      EventsNamed(TraceRecorder::Instance().Snapshot(), "ctx.tick");
  ASSERT_EQ(events.size(), workers);
  for (const obs::TraceEvent& event : events) {
    EXPECT_EQ(event.query_id, 42u);
    EXPECT_EQ(event.shard, -1);
  }
  // Pool threads restore their idle context after the barrier: a second
  // untagged dispatch records unstamped events.
  exec::ParallelFor(workers, [&]([[maybe_unused]] std::size_t w) {
    PUMP_TRACE_INSTANT(obs::TraceCategory::kExec, "idle.tick",
                       static_cast<double>(w));
  });
  for (const obs::TraceEvent& event :
       EventsNamed(TraceRecorder::Instance().Snapshot(), "idle.tick")) {
    EXPECT_EQ(event.query_id, 0u);
  }
}

TEST(TraceExportTest, QueryFilterSelectsOneTimelineAndZeroIsIdentity) {
  ScopedTracing tracing;
  {
    obs::ScopedQueryContext scope(obs::QueryContext{1, -1});
    PUMP_TRACE_SPAN(obs::TraceCategory::kTool, "query.one");
  }
  {
    obs::ScopedQueryContext scope(obs::QueryContext{2, 0});
    PUMP_TRACE_SPAN(obs::TraceCategory::kTool, "query.two");
  }
  PUMP_TRACE_INSTANT(obs::TraceCategory::kTool, "untagged");
  if (MacrosCompiledOut()) return;

  const std::string all = TraceRecorder::Instance().ToChromeJson();
  // filter == 0 is the no-filter path and must stay byte-identical to
  // the legacy export.
  EXPECT_EQ(all, TraceRecorder::Instance().ToChromeJson(0));
  EXPECT_NE(all.find("\"query.one\""), std::string::npos);
  EXPECT_NE(all.find("\"query.two\""), std::string::npos);
  EXPECT_NE(all.find("\"untagged\""), std::string::npos);
  EXPECT_NE(all.find("\"qid\":1"), std::string::npos);
  EXPECT_NE(all.find("\"qid\":2"), std::string::npos);
  EXPECT_NE(all.find("\"shard\":0"), std::string::npos);

  const std::string only_one = TraceRecorder::Instance().ToChromeJson(1);
  EXPECT_NE(only_one.find("\"query.one\""), std::string::npos);
  EXPECT_EQ(only_one.find("\"query.two\""), std::string::npos);
  EXPECT_EQ(only_one.find("\"untagged\""), std::string::npos);
  EXPECT_EQ(only_one.find("\"qid\":2"), std::string::npos);
}

TEST(TraceExportTest, UntaggedExportCarriesNoAttributionFields) {
  ScopedTracing tracing;
  {
    PUMP_TRACE_SPAN(obs::TraceCategory::kTool, "legacy");
  }
  // Solo tools and tests record with no context installed; their export
  // must not grow qid/shard fields (bit-identical legacy format).
  const std::string json = TraceRecorder::Instance().ToChromeJson();
  EXPECT_EQ(json.find("\"qid\""), std::string::npos);
  EXPECT_EQ(json.find("\"shard\""), std::string::npos);
}

TEST(SlidingWindowTest, QuantilesAreBucketUpperBounds) {
  // 10 s window, 5 slots of 2 s; all samples land in epoch 0.
  obs::SlidingWindow window(10ull * 1'000'000'000, 5);
  const std::uint64_t t0 = 1'000'000'000;
  for (int i = 0; i < 90; ++i) window.Record(3, t0);     // bucket 2: [2,4)
  for (int i = 0; i < 10; ++i) window.Record(1000, t0);  // bucket 10
  const obs::SlidingWindow::Aggregate agg = window.Aggregated(t0);
  EXPECT_EQ(agg.count, 100u);
  EXPECT_EQ(agg.sum, 90u * 3 + 10u * 1000);
  // Quantiles report the log2 bucket's upper bound: 2^2-1 for the small
  // mass, 2^10-1 for the tail.
  EXPECT_EQ(agg.p50, 3u);
  EXPECT_EQ(agg.p99, 1023u);
  // Rate is count over the full window span.
  EXPECT_DOUBLE_EQ(agg.rate_per_s, 10.0);
}

TEST(SlidingWindowTest, ZeroValuesLandInBucketZero) {
  obs::SlidingWindow window(10ull * 1'000'000'000, 5);
  const std::uint64_t t0 = 1'000'000'000;
  for (int i = 0; i < 8; ++i) window.Record(0, t0);
  const obs::SlidingWindow::Aggregate agg = window.Aggregated(t0);
  EXPECT_EQ(agg.count, 8u);
  EXPECT_EQ(agg.sum, 0u);
  EXPECT_EQ(agg.p50, 0u);
  EXPECT_EQ(agg.p99, 0u);
}

TEST(SlidingWindowTest, SamplesExpireOnceTheWindowRollsPast) {
  obs::SlidingWindow window(10ull * 1'000'000'000, 5);
  const std::uint64_t second = 1'000'000'000;
  window.Record(100, 1 * second);
  window.Record(100, 3 * second);
  EXPECT_EQ(window.Aggregated(3 * second).count, 2u);
  // 9 s later both samples are still inside the 10 s window...
  EXPECT_EQ(window.Aggregated(9 * second).count, 2u);
  // ...but at t0+11 s the first slot's epoch has rolled out, and by 13 s
  // the second is gone too (lazy expiry, no Record needed in between).
  EXPECT_EQ(window.Aggregated(11 * second).count, 1u);
  EXPECT_EQ(window.Aggregated(13 * second).count, 0u);
  EXPECT_EQ(window.Aggregated(13 * second).p99, 0u);
}

TEST(SlidingWindowTest, SlotReclaimDropsOnlyTheRolledEpoch) {
  // Slot reuse: epoch 0 and epoch 5 share slots_[0]; recording in epoch
  // 5 reclaims the slot and must not disturb epochs 1..4.
  obs::SlidingWindow window(10ull * 1'000'000'000, 5);
  const std::uint64_t slot = 2'000'000'000;  // slot_ns
  for (std::uint64_t e = 0; e < 5; ++e) window.Record(7, e * slot);
  EXPECT_EQ(window.Aggregated(4 * slot).count, 5u);
  window.Record(7, 5 * slot);
  const obs::SlidingWindow::Aggregate agg = window.Aggregated(5 * slot);
  EXPECT_EQ(agg.count, 5u) << "epoch 0 evicted, epochs 1..5 retained";
}

TEST(SlidingWindowTest, ConcurrentRecordingFromExecutorWorkers) {
  // The TSan lane runs this file: hammer one window from every pool
  // thread of the persistent executor, exactly like concurrent query
  // resolutions hammer the engine's latency window.
  obs::SlidingWindow window;
  const std::size_t workers =
      std::max<std::size_t>(2, exec::DefaultWorkerCount());
  const std::uint64_t per_worker = 5'000;
  exec::ParallelFor(workers, [&](std::size_t w) {
    for (std::uint64_t i = 0; i < per_worker; ++i) {
      window.Record((w + 1) * 10);
    }
  });
  const obs::SlidingWindow::Aggregate agg = window.Aggregated();
  EXPECT_EQ(agg.count, workers * per_worker);
  EXPECT_GT(agg.p99, 0u);
}

obs::Incident MakeIncident(std::uint64_t id, const char* kind) {
  obs::Incident incident;
  incident.query_id = id;
  incident.kind = kind;
  incident.status = "INTERNAL: rung 4 exhausted";
  incident.tag = "ssb-q1";
  incident.plan_json = "{\"pipelines\":[]}";
  incident.report_json = "{\"pipelines\":[]}";
  incident.metrics_delta.emplace_back("fault.injections", 3);
  incident.captured_ts_ns = id * 100;
  return incident;
}

TEST(FlightRecorderTest, RingBoundEvictsOldestAndStatsKeepTotals) {
  obs::FlightRecorder recorder(/*capacity=*/2, /*trace_tail_events=*/8);
  recorder.Capture(MakeIncident(1, "fault_ladder_exhausted"));
  recorder.Capture(MakeIncident(2, "cancelled"));
  recorder.Capture(MakeIncident(3, "fault_ladder_exhausted"));

  const std::vector<obs::Incident> retained = recorder.Incidents();
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained[0].query_id, 2u) << "oldest first, 1 evicted";
  EXPECT_EQ(retained[1].query_id, 3u);

  const obs::FlightRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.captured, 3u);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.captured_by_kind.at("fault_ladder_exhausted"), 2u);
  EXPECT_EQ(stats.captured_by_kind.at("cancelled"), 1u);
}

TEST(FlightRecorderTest, CaptureFillsTraceTailForItsQueryOnly) {
  ScopedTracing tracing;
  {
    obs::ScopedQueryContext scope(obs::QueryContext{5, -1});
    for (int i = 0; i < 10; ++i) {
      PUMP_TRACE_INSTANT(obs::TraceCategory::kEngine, "mine",
                         static_cast<double>(i));
    }
  }
  {
    obs::ScopedQueryContext scope(obs::QueryContext{6, -1});
    PUMP_TRACE_INSTANT(obs::TraceCategory::kEngine, "sibling");
  }
  if (MacrosCompiledOut()) return;

  obs::FlightRecorder recorder(/*capacity=*/4, /*trace_tail_events=*/4);
  recorder.Capture(MakeIncident(5, "deadline_expired"));
  const std::vector<obs::Incident> retained = recorder.Incidents();
  ASSERT_EQ(retained.size(), 1u);
  const obs::Incident& incident = retained[0];
  // The tail is self-gathered from the process rings, filtered to the
  // incident's query, bounded to the newest trace_tail_events.
  ASSERT_EQ(incident.trace_tail.size(), 4u);
  ASSERT_EQ(incident.trace_tail_tids.size(), 4u);
  for (const obs::TraceEvent& event : incident.trace_tail) {
    EXPECT_EQ(event.query_id, 5u);
    EXPECT_STREQ(event.name, "mine");
  }
  // Newest window: arg0 carries the loop index, so 6..9 survive.
  EXPECT_DOUBLE_EQ(incident.trace_tail.front().arg0, 6.0);
  EXPECT_DOUBLE_EQ(incident.trace_tail.back().arg0, 9.0);

  // JSON artifact: parseable shape with every section present (the
  // Python-side parse of the same dump runs in scripts/check.sh).
  const std::string json = obs::FlightRecorder::IncidentJson(incident);
  for (const char* key :
       {"\"query_id\":5", "\"kind\":\"deadline_expired\"", "\"status\":",
        "\"tag\":", "\"plan\":", "\"report\":", "\"metrics_delta\":",
        "\"trace_tail\":", "\"latency_us\":", "\"queue_wait_us\":"}) {
    EXPECT_NE(json.find(key), std::string::npos)
        << "incident artifact lost " << key;
  }
  EXPECT_NE(recorder.ToJson().find("\"incidents\":["), std::string::npos);
}

TEST(FlightRecorderTest, CaptureWithTracingOffLeavesTailEmpty) {
  TraceRecorder::Instance().Clear();
  ASSERT_FALSE(TraceRecorder::Enabled());
  obs::FlightRecorder recorder(/*capacity=*/2, /*trace_tail_events=*/8);
  recorder.Capture(MakeIncident(9, "cancelled"));
  const std::vector<obs::Incident> retained = recorder.Incidents();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_TRUE(retained[0].trace_tail.empty());
  // The artifact is still self-contained: plan, report and deltas are
  // caller-supplied and survive without a trace.
  EXPECT_FALSE(retained[0].plan_json.empty());
  EXPECT_FALSE(retained[0].report_json.empty());
}

// A single-device plan on a mesh pulls its probe columns to the device
// the compiler chose, so every transfer chunk of the probe is traced
// against that device, not against the AC922's GPU id.
TEST(TransferTraceTest, ProbePullsAreChargedToThePlansDevice) {
  const engine::SsbDatabase db = engine::SsbDatabase::Generate(4000, 7);
  const std::vector<engine::NamedQuery> suite = engine::SsbSuite(db);
  ASSERT_FALSE(suite.empty());
  const hw::SystemProfile ring = hw::NvlinkRingProfile(4);
  plan::CompileOptions compile_options;
  compile_options.policy = plan::PlacementPolicy::kGpuPreferred;
  compile_options.profile = &ring;
  compile_options.shard_devices = {3};
  Result<plan::PhysicalPlan> physical =
      plan::Compile(suite.front().query, compile_options);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  ASSERT_EQ(physical.value().probe.device_set, plan::DeviceSet{3});

  engine::ExecOptions options;
  options.workers = 2;
  options.chunk_bytes = 8 * 1024;  // Several chunks per column.
  ScopedTracing tracing;
  Result<engine::ExecReport> report =
      plan::ExecutePlan(physical.value(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().used_gpu);
  if (MacrosCompiledOut()) return;
  std::size_t begins = 0;
  for (const obs::TraceEvent& chunk :
       EventsNamed(TraceRecorder::Instance().Snapshot(), "transfer.chunk")) {
    if (chunk.phase != 'B') continue;  // End events carry no args.
    ++begins;
    EXPECT_EQ(chunk.arg1, 3.0);
  }
  EXPECT_GT(begins, 0u);
}

// Satellite regression: a mid-query ladder re-placement must not erase
// the per-pipeline outcome rows — the report still says which placement
// was tried and which produced the result.
TEST(PipelineOutcomeTest, RowsSurviveProbeReplacementOnCpu) {
  const engine::SsbDatabase db = engine::SsbDatabase::Generate(4000, 7);
  const std::vector<engine::NamedQuery> suite = engine::SsbSuite(db);
  ASSERT_FALSE(suite.empty());
  const engine::Query& query = suite.back().query;  // ssb-q3: three joins.

  plan::CompileOptions compile_options;
  compile_options.policy = plan::PlacementPolicy::kGpuPreferred;
  Result<plan::PhysicalPlan> physical =
      plan::Compile(query, compile_options);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  const std::size_t builds = physical.value().builds.size();
  ASSERT_GT(builds, 0u);

  // Hard-fail the probe pipeline's GPU stage: a non-retryable fault on
  // the fact-column pull (only the probe walks transfer chunks) makes
  // rung 3 re-place the probe on the CPU, reusing the cached builds.
  fault::FaultInjector injector(/*seed=*/11);
  fault::FaultSpec hard_fault;
  hard_fault.probability = 1.0;
  hard_fault.code = StatusCode::kInternal;
  injector.Arm(fault::kTransferChunk, hard_fault);

  engine::ExecOptions options;
  options.workers = std::max<std::size_t>(2, exec::DefaultWorkerCount());
  options.injector = &injector;
  Result<engine::ExecReport> result =
      plan::ExecutePlan(physical.value(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const engine::ExecReport& report = result.value();

  EXPECT_TRUE(report.degraded);
  EXPECT_FALSE(report.used_gpu);
  ASSERT_EQ(report.pipelines.size(), builds + 1);
  for (std::size_t i = 0; i < builds; ++i) {
    EXPECT_EQ(report.pipelines[i].kind, "build");
    EXPECT_EQ(report.pipelines[i].attempts, 1u);
    EXPECT_GT(report.pipelines[i].measured_s, 0.0);
  }
  const engine::PipelineOutcome& probe = report.pipelines.back();
  EXPECT_EQ(probe.kind, "probe");
  EXPECT_NE(probe.placement_planned, "cpu");
  EXPECT_EQ(probe.placement_used, "cpu");
  EXPECT_EQ(probe.attempts, 2u);
  EXPECT_GT(probe.measured_s, 0.0);

  // The clean run reports one attempt on the planned placement.
  engine::ExecOptions clean_options;
  clean_options.workers = options.workers;
  Result<engine::ExecReport> clean =
      plan::ExecutePlan(physical.value(), clean_options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean.value().pipelines.size(), builds + 1);
  EXPECT_EQ(clean.value().pipelines.back().attempts, 1u);
  EXPECT_EQ(clean.value().pipelines.back().placement_used,
            clean.value().pipelines.back().placement_planned);
  EXPECT_EQ(clean.value().result, report.result);
}

}  // namespace
}  // namespace pump
