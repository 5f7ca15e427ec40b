#include "loop.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <thread>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "stats.h"

namespace perfbench {

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Schedule::Schedule(std::size_t types, std::size_t per_block,
                   std::uint64_t seed)
    : rng_(seed) {
  for (std::size_t t = 0; t < types; ++t) {
    block_.insert(block_.end(), per_block, t);
  }
  position_ = block_.size();
}

std::optional<std::size_t> Schedule::Next(Clock::time_point deadline) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (aborted_) return std::nullopt;
  if (!closing_ && Clock::now() >= deadline) closing_ = true;
  if (position_ == block_.size()) {
    if (closing_) return std::nullopt;
    std::shuffle(block_.begin(), block_.end(), rng_);
    position_ = 0;
  }
  return block_[position_++];
}

void Schedule::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closing_ = true;
}

void Schedule::Abort() {
  std::lock_guard<std::mutex> lock(mutex_);
  aborted_ = true;
}

namespace {

/// Occurrences of each query type per schedule block.
constexpr std::size_t kPerBlock = 4;

/// Completions per client and second of phase that the sample buffer
/// holds, several times any workload's rate. A client that fills its
/// quota closes the schedule, so a much faster program ends the phase
/// early (its later slices go unreported) instead of growing the buffer.
constexpr double kMaxClientQps = 2000.0;

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
}

Clock::duration Duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

Counters Counters::Read(pump::server::QueryEngine& engine) {
  Counters counters;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  counters.user_s = Seconds(usage.ru_utime);
  counters.sys_s = Seconds(usage.ru_stime);
  counters.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
  counters.max_rss_kib = usage.ru_maxrss;
  counters.engine = engine.stats();
  counters.cache = engine.build_cache().stats();
  pump::exec::Executor& pool = pump::exec::Executor::Default();
  counters.dispatches = pool.dispatches();
  for (const pump::exec::WorkerStats& worker : pool.Stats()) {
    counters.parks += worker.parks;
  }
  counters.transfer_bytes = pump::obs::MetricsRegistry::Instance()
                                .GetCounter("transfer.bytes")
                                .value();
  return counters;
}

PhaseResult RunPhase(pump::server::QueryEngine& engine,
                     const WorkloadSpec& spec,
                     const std::vector<QueryType>& types,
                     const std::vector<pump::engine::QueryResult>& expected,
                     std::uint64_t schedule_seed, double seconds,
                     bool traced) {
  Schedule schedule(types.size(), kPerBlock, schedule_seed);
  // Each client owns a share of the sample buffer: its quota, plus room
  // for the rest of the block that is current when the schedule closes.
  const auto quota =
      static_cast<std::size_t>(std::ceil(seconds * kMaxClientQps));
  const std::size_t share = quota + types.size() * kPerBlock;
  PhaseResult phase;
  phase.samples.assign(spec.clients * share, Sample{});
  const double slice_s = seconds / static_cast<double>(kSlices);
  std::vector<std::size_t> filled(spec.clients, 0);
  std::vector<PhaseResult> per_client(spec.clients);
  pump::server::SubmitOptions submit;
  submit.workers = spec.workers;

  // Slice boundaries as a sampler thread reached them: seconds from the
  // phase start and the process CPU time then. Completions are binned by
  // the same instants, so a slice's CPU and its completions cover the same
  // span. A boundary the phase closed before stays NaN.
  std::vector<double> boundary_s(kSlices + 1,
                                 std::numeric_limits<double>::quiet_NaN());
  std::vector<double> cpu_at(kSlices + 1);
  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool stop = false;

  phase.before = Counters::Read(engine);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + Duration(seconds);
  std::thread sampler([&] {
    std::unique_lock<std::mutex> lock(stop_mutex);
    for (std::size_t k = 0; k <= kSlices; ++k) {
      const Clock::time_point at =
          start + Duration(static_cast<double>(k) * slice_s);
      stop_cv.wait_until(lock, at, [&] { return stop; });
      const Clock::time_point now = Clock::now();
      if (now < at) return;
      cpu_at[k] = CpuSeconds();
      boundary_s[k] = SecondsBetween(start, now);
    }
  });
  {
    std::vector<std::thread> clients;
    clients.reserve(spec.clients);
    for (std::size_t c = 0; c < spec.clients; ++c) {
      clients.emplace_back([&, c] {
        PhaseResult& mine = per_client[c];
        mine.per_type.assign(types.size(), 0);
        Sample* const samples = phase.samples.data() + c * share;
        std::size_t n = 0;
        while (std::optional<std::size_t> type = schedule.Next(deadline)) {
          const Clock::time_point submitted = Clock::now();
          auto handle = engine.Submit(types[*type].query, submit);
          const Clock::time_point returned = Clock::now();
          if (!handle.ok()) {
            ++mine.rejected;
            continue;
          }
          const auto& report = handle.value()->Wait();
          const Clock::time_point done = Clock::now();
          if (!report.ok()) {
            ++mine.errored;
            continue;
          }
          if (!(report.value().result == expected[*type])) {
            schedule.Abort();
            if (mine.mismatches++ == 0) {
              mine.first_mismatch =
                  types[*type].name + ": got rows=" +
                  std::to_string(report.value().result.rows) +
                  " sum=" + std::to_string(report.value().result.sum) +
                  ", oracle rows=" + std::to_string(expected[*type].rows) +
                  " sum=" + std::to_string(expected[*type].sum);
            }
            continue;
          }
          samples[n++] = {static_cast<float>(SecondsBetween(start, done)),
                          static_cast<float>(SecondsBetween(submitted, done))};
          if (n == quota) schedule.Close();
          ++mine.per_type[*type];
          if (!traced) continue;

          QueryRecord record;
          record.type = static_cast<std::uint32_t>(*type);
          record.id = handle.value()->id();
          record.submit_start = SecondsBetween(start, submitted);
          record.submit_end = SecondsBetween(start, returned);
          record.done = SecondsBetween(start, done);
          record.tables_built = report.value().dim_tables_built;
          for (const auto& row : report.value().pipelines) {
            record.pipelines_s += row.measured_s;
            if (row.kind == "probe") record.probe_s = row.measured_s;
            record.pipelines.push_back({row.name, row.measured_s});
          }
          mine.records.push_back(std::move(record));
        }
        filled[c] = n;
      });
    }
    for (std::thread& client : clients) client.join();
  }
  phase.wall_s = SecondsBetween(start, Clock::now());
  {
    std::lock_guard<std::mutex> lock(stop_mutex);
    stop = true;
  }
  stop_cv.notify_all();
  sampler.join();
  phase.after = Counters::Read(engine);

  // Close the gaps between the clients' shares, in place.
  std::size_t completed = 0;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    const auto from = phase.samples.begin() + static_cast<long>(c * share);
    if (c * share != completed) {
      std::copy(from, from + static_cast<long>(filled[c]),
                phase.samples.begin() + static_cast<long>(completed));
    }
    completed += filled[c];
  }
  phase.samples.resize(completed);

  phase.per_type.assign(types.size(), 0);
  for (PhaseResult& mine : per_client) {
    phase.rejected += mine.rejected;
    phase.errored += mine.errored;
    if (phase.mismatches == 0) phase.first_mismatch = mine.first_mismatch;
    phase.mismatches += mine.mismatches;
    for (std::size_t t = 0; t < mine.per_type.size(); ++t) {
      phase.per_type[t] += mine.per_type[t];
    }
    for (QueryRecord& record : mine.records) {
      phase.records.push_back(std::move(record));
    }
  }
  std::sort(phase.records.begin(), phase.records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.submit_start < b.submit_start;
            });

  const std::size_t reached = static_cast<std::size_t>(
      std::find_if(boundary_s.begin(), boundary_s.end(),
                   [](double at) { return std::isnan(at); }) -
      boundary_s.begin());
  if (reached < 2) return phase;
  std::vector<std::vector<double>> latencies(reached - 1);
  for (const Sample& sample : phase.samples) {
    const auto after = std::upper_bound(boundary_s.begin(),
                                        boundary_s.begin() + reached,
                                        static_cast<double>(sample.done_s));
    const auto k = after - boundary_s.begin() - 1;
    if (k >= 0 && k + 1 < static_cast<long>(reached)) {
      latencies[static_cast<std::size_t>(k)].push_back(sample.latency_s);
    }
  }
  for (std::size_t k = 0; k + 1 < reached; ++k) {
    phase.slices.push_back({latencies[k].size(),
                            boundary_s[k + 1] - boundary_s[k],
                            Median(latencies[k]), cpu_at[k + 1] - cpu_at[k]});
  }
  return phase;
}

void WarmCpus(double seconds) {
  const Clock::time_point end = Clock::now() + Duration(seconds);
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> spinners;
  std::atomic<std::uint64_t> sink{0};
  for (unsigned i = 0; i < cpus; ++i) {
    spinners.emplace_back([&] {
      std::uint64_t x = 0;
      while (Clock::now() < end) {
        for (int k = 0; k < 10000; ++k) x = x * 6364136223846793005ull + 1;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& spinner : spinners) spinner.join();
}

}  // namespace perfbench
