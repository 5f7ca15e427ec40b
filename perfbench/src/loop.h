// The closed-loop load generator: client threads that each submit one
// query, wait for its answer, check it against the oracle and submit the
// next, plus the counters read around one timed phase.
//
// The benchmark's own memory during a phase does not depend on the query
// rate: completions go into a sample buffer that is sized from the phase
// length alone and written before the phase starts, so the peak resident
// set read at the end of the phase (rss_mb) is the program's plus a fixed
// amount.

#ifndef PERFBENCH_LOOP_H_
#define PERFBENCH_LOOP_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "engine/query.h"
#include "plan/build_cache.h"
#include "server/query_engine.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to);

/// The seeded query order of one phase: blocks in which every query type
/// appears `per_block` times, each block shuffled. Once the phase's
/// deadline has passed, Next hands out the rest of the current block and
/// then stops, so a phase always completes whole blocks and every type's
/// realised share is exact. Thread-safe.
class Schedule {
 public:
  Schedule(std::size_t types, std::size_t per_block, std::uint64_t seed);

  /// The next query type, or nullopt once the phase is over.
  std::optional<std::size_t> Next(Clock::time_point deadline);

  /// Ends the phase at the end of the current block, before the deadline.
  void Close();

  /// Ends the phase at once (a wrong result was seen).
  void Abort();

 private:
  std::mutex mutex_;
  std::mt19937_64 rng_;
  std::vector<std::size_t> block_;
  std::size_t position_ = 0;
  bool closing_ = false;
  bool aborted_ = false;
};

/// One pipeline row of a completed query's ExecReport.
struct PipelineTime {
  std::string name;
  double seconds = 0.0;
};

/// One completed query: when it completed and how long it took, seconds.
/// Single precision keeps the fixed sample buffer small; 24 bits resolve
/// a 20 s phase to 2 us and a latency to 1e-7 of itself.
struct Sample {
  float done_s = 0.0f;
  float latency_s = 0.0f;
};

/// One completed query of a traced phase, times in seconds from the phase
/// start.
struct QueryRecord {
  std::uint32_t type = 0;
  std::uint64_t id = 0;
  double submit_start = 0.0;
  double submit_end = 0.0;
  double done = 0.0;
  /// Sum of the report's pipeline measured_s values.
  double pipelines_s = 0.0;
  /// measured_s of the probe row.
  double probe_s = 0.0;
  std::size_t tables_built = 0;
  /// Every pipeline row; kept only in traced phases.
  std::vector<PipelineTime> pipelines;

  double latency() const { return done - submit_start; }
};

/// Process-wide counters read before and after a phase.
struct Counters {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t minor_faults = 0;
  pump::server::EngineStats engine;
  pump::plan::BuildCache::Stats cache;
  std::uint64_t dispatches = 0;
  std::uint64_t parks = 0;
  std::uint64_t transfer_bytes = 0;
  /// Peak resident set of the process so far (ru_maxrss), KiB.
  std::int64_t max_rss_kib = 0;

  static Counters Read(pump::server::QueryEngine& engine);
};

/// One of the kSlices slices the timed span of a phase is cut into. A
/// sampler thread reads the CPU time at each nominal boundary; completions
/// are binned by the instants it read them.
struct Slice {
  std::uint64_t completed = 0;
  double seconds = 0.0;
  /// Median latency of the slice's completions, seconds.
  double p50_s = 0.0;
  /// Process user + sys CPU seconds over the slice.
  double cpu_s = 0.0;
};

/// What one phase did.
struct PhaseResult {
  /// The whole phase, including the finish of the last block.
  double wall_s = 0.0;
  /// Every completed query, in no particular order.
  std::vector<Sample> samples;
  /// The timed span (up to the deadline) in slices; fewer than kSlices if
  /// the phase closed early.
  std::vector<Slice> slices;
  /// Every completed query's pipeline rows; traced phases only.
  std::vector<QueryRecord> records;
  /// Completed queries per type.
  std::vector<std::uint64_t> per_type;
  /// Submit calls rejected (shed or refused).
  std::uint64_t rejected = 0;
  /// Admitted queries that resolved with an error.
  std::uint64_t errored = 0;
  /// Completed queries whose result differs from the oracle.
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  Counters before;
  Counters after;
};

/// Slices of a phase's timed span.
constexpr std::size_t kSlices = 10;

/// Runs `spec.clients` closed-loop clients against `engine` until
/// `seconds` have passed and the schedule's current block is complete.
/// `traced` keeps every query's record with its pipeline rows.
PhaseResult RunPhase(pump::server::QueryEngine& engine,
                     const WorkloadSpec& spec,
                     const std::vector<QueryType>& types,
                     const std::vector<pump::engine::QueryResult>& expected,
                     std::uint64_t schedule_seed, double seconds,
                     bool traced);

/// Keeps every vCPU busy for `seconds`: a vCPU that was idle runs slowly
/// for a while, which would otherwise land in the first timed numbers.
void WarmCpus(double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_H_
