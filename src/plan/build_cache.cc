#include "plan/build_cache.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "verify/mutation.h"

namespace pump::plan {

namespace {

struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& single_flight_waits;
};

CacheMetrics& Metrics() {
  static CacheMetrics metrics{
      obs::MetricsRegistry::Instance().GetCounter("plan.cache.hits"),
      obs::MetricsRegistry::Instance().GetCounter("plan.cache.misses"),
      obs::MetricsRegistry::Instance().GetCounter("plan.cache.evictions"),
      obs::MetricsRegistry::Instance().GetCounter(
          "plan.cache.single_flight_waits")};
  return metrics;
}

}  // namespace

BuildCache::BuildCache(std::uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  verify::NamedMutex(&mutex_, "plan.cache.mutex");
}

std::string BuildCache::KeyFor(const BuildPipeline& build) {
  // The dimension pointer plus its row count identifies the source data
  // (a serving catalog keeps dimension tables resident, so identity is
  // stable; the row count guards against a reused address with different
  // contents). The rest pins the build semantics: same key => the built
  // tables answer every lookup identically. They need not be
  // byte-identical: a linear-probing table built by several workers
  // places colliding keys in insertion order.
  std::string key =
      std::to_string(reinterpret_cast<std::uintptr_t>(build.dimension));
  key += '/';
  key += std::to_string(build.dimension != nullptr ? build.dimension->rows()
                                                   : 0);
  key += '/';
  key += build.key_column;
  key += '/';
  key += ToString(build.table_kind);
  if (build.has_dim_filter) {
    key += '/';
    key += build.dim_filter.column;
    key += ToString(build.dim_filter.op);
    key += std::to_string(build.dim_filter.literal);
  }
  return key;
}

Result<std::shared_ptr<const DimensionTable>> BuildCache::GetOrBuild(
    const BuildPipeline& build, bool* hit, std::size_t workers,
    std::size_t morsel_tuples) {
  if (hit != nullptr) *hit = false;
  const std::string key = KeyFor(build);
  std::shared_ptr<Flight> flight;
  bool builder = false;
  {
    std::lock_guard<verify::Mutex> lock(mutex_);
    auto entry_it = entries_.find(key);
    if (entry_it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, entry_it->second.lru_it);
      ++stats_.hits;
      Metrics().hits.Add();
      if (hit != nullptr) *hit = true;
      return entry_it->second.table;
    }
    ++stats_.misses;
    Metrics().misses.Add();
    auto flight_it = in_flight_.find(key);
    if (flight_it != in_flight_.end()) {
      flight = flight_it->second;
      ++stats_.single_flight_waits;
      Metrics().single_flight_waits.Add();
    } else {
      flight = std::make_shared<Flight>();
      verify::NamedMutex(&flight->mutex, "plan.cache.flight");
      in_flight_.emplace(key, flight);
      builder = true;
    }
  }

  if (!builder) {
    // Another query is building this exact table; wait for its result
    // instead of duplicating the work (and the memory).
    std::unique_lock<verify::Mutex> lock(flight->mutex);
    flight->cv.wait(lock, [&] { return flight->done; });
    return flight->result;
  }

  PUMP_TRACE_SPAN(obs::TraceCategory::kPlan, "cache.build",
                  static_cast<double>(build.keys.rows),
                  static_cast<double>(build.table_bytes));
  Result<DimensionTable> built =
      DimensionTable::Build(build, workers, morsel_tuples);
  Result<std::shared_ptr<const DimensionTable>> result =
      built.ok()
          ? Result<std::shared_ptr<const DimensionTable>>(
                std::make_shared<const DimensionTable>(
                    std::move(built).value()))
          : Result<std::shared_ptr<const DimensionTable>>(built.status());

  {
    std::lock_guard<verify::Mutex> lock(mutex_);
    if (result.ok()) {
      InsertLocked(key, result.value(), std::max<std::uint64_t>(
                                            1, build.table_bytes));
    }
    // A failed build clears the in-flight slot either way: waiters get
    // the error, the next request retries fresh.
    in_flight_.erase(key);
  }
  if (PUMP_VERIFY_MUTATE("plan.cache.notify_before_done")) {
    // Seeded bug: broadcast before publishing the result. A waiter that
    // decided to block but has not blocked yet misses the only notify —
    // lost wakeup, reported by the checker as a deadlock.
    flight->cv.notify_all();
    std::lock_guard<verify::Mutex> lock(flight->mutex);
    flight->result = result;
    flight->done = true;
    return result;
  }
  {
    std::lock_guard<verify::Mutex> lock(flight->mutex);
    if (!PUMP_VERIFY_MUTATE("plan.cache.drop_failed_result") || result.ok()) {
      flight->result = result;
    }
    // Seeded bug (when the mutation above is armed): `done` broadcasts
    // without the error, so waiters observe the placeholder status
    // instead of the builder's failure.
    flight->done = true;
  }
  flight->cv.notify_all();
  return result;
}

void BuildCache::InsertLocked(const std::string& key,
                              std::shared_ptr<const DimensionTable> table,
                              std::uint64_t bytes) {
  if (capacity_bytes_ == 0) return;
  // Evict least-recently-used entries until the newcomer fits. An entry
  // larger than the whole capacity is not cached at all (it would only
  // flush everything and then miss next time anyway).
  if (bytes > capacity_bytes_) return;
  while (resident_bytes_ + bytes > capacity_bytes_ && !lru_.empty()) {
    const std::string& victim_key = lru_.back();
    auto victim = entries_.find(victim_key);
    resident_bytes_ -= victim->second.bytes;
    ++stats_.evictions;
    Metrics().evictions.Add();
    entries_.erase(victim);
    lru_.pop_back();
  }
  lru_.push_front(key);
  Entry entry;
  entry.table = std::move(table);
  entry.bytes = bytes;
  entry.lru_it = lru_.begin();
  entries_.emplace(key, std::move(entry));
  resident_bytes_ += bytes;
}

void BuildCache::Clear() {
  std::lock_guard<verify::Mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  resident_bytes_ = 0;
}

std::vector<BuildCache::ContentsEntry> BuildCache::Contents() const {
  std::lock_guard<verify::Mutex> lock(mutex_);
  std::vector<ContentsEntry> contents;
  contents.reserve(lru_.size());
  for (const std::string& key : lru_) {
    auto it = entries_.find(key);
    if (it == entries_.end()) continue;
    contents.push_back({key, it->second.bytes});
  }
  return contents;
}

BuildCache::Stats BuildCache::stats() const {
  std::lock_guard<verify::Mutex> lock(mutex_);
  Stats stats = stats_;
  stats.resident_bytes = resident_bytes_;
  stats.entries = entries_.size();
  return stats;
}

}  // namespace pump::plan
