#ifndef PUMP_OBS_TRACE_H_
#define PUMP_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "verify/sync.h"

/// Compile-time gate of the trace recorder. The build defines
/// PUMP_TRACE_ENABLED=1 by default (CMake option PUMP_TRACE); with the
/// option off the span/instant macros below expand to nothing and the
/// recorder is never referenced from instrumented code, so tracing has
/// exactly zero cost in that configuration. With tracing compiled in but
/// runtime-disabled (the default state), a span costs one relaxed atomic
/// load per macro — the ≤5% micro_engine overhead budget (DESIGN.md
/// Sec. 11) is enforced against that state.
#ifndef PUMP_TRACE_ENABLED
#define PUMP_TRACE_ENABLED 0
#endif

namespace pump::obs {

/// Event categories, one per instrumented subsystem. Exported as the
/// Chrome trace `cat` field so Perfetto can filter per layer.
enum class TraceCategory : std::uint8_t {
  kEngine,
  kPlan,
  kExec,
  kTransfer,
  kFault,
  kHash,
  kTool
};

const char* ToString(TraceCategory category);

/// One ring-buffer slot: a begin ('B'), end ('E') or instant ('i') event.
/// `name` must be a string literal (the ring stores the pointer, never the
/// characters); the two numeric args carry event-specific payload (bytes,
/// node ids, morsel bounds, ...) documented at each instrumentation site.
struct TraceEvent {
  std::uint64_t ts_ns = 0;  // steady_clock ticks, nanoseconds.
  const char* name = nullptr;
  double arg0 = 0.0;
  double arg1 = 0.0;
  /// Query attribution, stamped by Record from the thread's
  /// obs::QueryContext: which query (0 = none) and which shard (-1 =
  /// none) this event belongs to. The stamp is what correlates one
  /// query's events across the per-thread rings of a concurrent engine.
  std::uint64_t query_id = 0;
  std::int32_t shard = -1;
  TraceCategory category = TraceCategory::kEngine;
  char phase = 'i';
  bool has_args = false;
};

/// Chronological snapshot of one worker's ring: the retained window (the
/// most recent `events.size()` records) plus how many older events the
/// wrap dropped.
struct ThreadTrace {
  std::uint32_t tid = 0;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

/// Process-wide trace recorder: per-thread single-writer ring buffers of
/// begin/end/instant events. Recording is lock-free (one relaxed counter
/// bump and a slot write; the registry mutex is only taken once per
/// thread, at first use). Snapshot/export require writer quiescence —
/// they are meant to run after a query completes, which is when the
/// executor's fork-join barrier guarantees exactly that.
///
/// The recorder is enabled at runtime via Enable(); every instrumentation
/// macro first checks the (relaxed, inline) enabled flag, so disabled
/// tracing costs a predicted branch per site.
class TraceRecorder {
 public:
  /// Events retained per thread before the ring wraps.
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 15;

  /// A private recorder with its own (small) rings — model-checker runs
  /// and tests use this instead of the process-wide instance so
  /// thousands of explored schedules do not accumulate global rings.
  /// Capacities below 16 are clamped to 16.
  explicit TraceRecorder(std::size_t ring_capacity);

  /// The process-wide recorder used by the macros.
  static TraceRecorder& Instance();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one event to the calling thread's ring (regardless of the
  /// enabled flag — callers check it first via the macros).
  void Record(TraceCategory category, const char* name, char phase,
              double arg0 = 0.0, double arg1 = 0.0, bool has_args = false);

  /// Resets every ring's cursor. Buffers stay registered and alive, so
  /// thread-local pointers held by long-lived pool threads remain valid.
  void Clear();

  /// Quiescent chronological snapshot of every thread's retained window.
  std::vector<ThreadTrace> Snapshot() const;

  /// Serializes the snapshot as Chrome `trace_event` JSON (an object with
  /// a `traceEvents` array, loadable in chrome://tracing and Perfetto).
  /// Unmatched events at the retained window's edges are repaired: 'E'
  /// events whose 'B' was overwritten by the wrap are dropped, spans still
  /// open at snapshot time get a synthetic 'E' at their thread's last
  /// timestamp — every exported 'B' has a matching 'E' by construction.
  std::string ToChromeJson() const { return ToChromeJson(0); }

  /// Filtered export: keeps only events stamped with `query_filter`
  /// (0 = no filter, byte-identical to the unfiltered export). The B/E
  /// repair runs on the filtered per-thread sequence — a thread's events
  /// for one query form a balanced contiguous-in-program-order
  /// subsequence, because the context scope brackets the spans it covers.
  std::string ToChromeJson(std::uint64_t query_filter) const;

  /// Writes ToChromeJson(query_filter) to `path`; false when the file
  /// cannot be written.
  bool WriteChromeJson(const std::string& path,
                       std::uint64_t query_filter = 0) const;

  std::size_t ring_capacity() const { return ring_capacity_; }
  /// Threads that have recorded at least one event since process start.
  std::size_t thread_count() const;

 private:
  struct Ring {
    std::uint32_t tid = 0;
    /// verify::Atomic = std::atomic in normal builds; under PUMP_VERIFY
    /// the model checker explores the slot-write/count-publish window.
    verify::Atomic<std::uint64_t> count{0};
    std::vector<TraceEvent> slots;
  };

  Ring* ThreadRing();

  const std::size_t ring_capacity_;
  /// Distinguishes recorder instances in the per-thread ring cache (a
  /// new recorder at a recycled address must not inherit stale rings).
  const std::uint64_t recorder_id_;
  mutable verify::Mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;

  // Process-wide toggle shared by model and non-model threads; model
  // runs never flip it, so it stays a raw atomic on purpose.
  static inline std::atomic<bool> enabled_{false};  // verify-exempt
};

/// RAII span: records 'B' at construction and 'E' at destruction on the
/// same thread, so per-thread ring order is exactly the nesting order.
class TraceSpan {
 public:
  TraceSpan(TraceCategory category, const char* name)
      : active_(TraceRecorder::Enabled()), category_(category), name_(name) {
    if (active_) {
      TraceRecorder::Instance().Record(category_, name_, 'B');
    }
  }
  TraceSpan(TraceCategory category, const char* name, double arg0,
            double arg1)
      : active_(TraceRecorder::Enabled()), category_(category), name_(name) {
    if (active_) {
      TraceRecorder::Instance().Record(category_, name_, 'B', arg0, arg1,
                                       /*has_args=*/true);
    }
  }
  ~TraceSpan() {
    if (active_) {
      TraceRecorder::Instance().Record(category_, name_, 'E', end_arg0_,
                                       end_arg1_, has_end_args_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Args for the closing 'E' event, for a payload known only when the
  /// span ends (the tuples a morsel worker claimed). Trace viewers merge
  /// them into the slice's args.
  void SetEndArgs(double arg0, double arg1) {
    end_arg0_ = arg0;
    end_arg1_ = arg1;
    has_end_args_ = true;
  }

 private:
  bool active_;
  bool has_end_args_ = false;
  TraceCategory category_;
  const char* name_;
  double end_arg0_ = 0.0;
  double end_arg1_ = 0.0;
};

/// Records a zero-duration instant event (fault fired, retry charged,
/// pipeline re-placed, ...).
inline void TraceInstant(TraceCategory category, const char* name,
                         double arg0 = 0.0, double arg1 = 0.0) {
  if (TraceRecorder::Enabled()) {
    TraceRecorder::Instance().Record(category, name, 'i', arg0, arg1,
                                     /*has_args=*/true);
  }
}

}  // namespace pump::obs

#define PUMP_TRACE_CONCAT_INNER_(a, b) a##b
#define PUMP_TRACE_CONCAT_(a, b) PUMP_TRACE_CONCAT_INNER_(a, b)

#if PUMP_TRACE_ENABLED
/// Opens an RAII span for the rest of the enclosing scope.
#define PUMP_TRACE_SPAN(...)                                        \
  ::pump::obs::TraceSpan PUMP_TRACE_CONCAT_(pump_trace_span_,       \
                                            __COUNTER__)(__VA_ARGS__)
/// Opens an RAII span called `var` for the rest of the enclosing scope,
/// so the scope can set its end args with PUMP_TRACE_END_ARGS.
#define PUMP_TRACE_NAMED_SPAN(var, ...) ::pump::obs::TraceSpan var(__VA_ARGS__)
/// Sets the end args of the named span `var` (TraceSpan::SetEndArgs).
#define PUMP_TRACE_END_ARGS(var, arg0, arg1) (var).SetEndArgs(arg0, arg1)
/// Records an instant event.
#define PUMP_TRACE_INSTANT(...) ::pump::obs::TraceInstant(__VA_ARGS__)
#else
#define PUMP_TRACE_SPAN(...) ((void)0)
#define PUMP_TRACE_NAMED_SPAN(var, ...) ((void)0)
#define PUMP_TRACE_END_ARGS(var, arg0, arg1) ((void)0)
#define PUMP_TRACE_INSTANT(...) ((void)0)
#endif

#endif  // PUMP_OBS_TRACE_H_
