#ifndef PUMP_PLAN_BUILD_CACHE_H_
#define PUMP_PLAN_BUILD_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/operators.h"
#include "plan/plan.h"
#include "verify/sync.h"

namespace pump::plan {

/// Process-wide dimension-table build cache: the PR-4 per-plan cache
/// (tables reused across one query's ladder rungs) promoted to a shared
/// cache reused across *queries*, so a hot star-schema dimension is built
/// once for thousands of concurrent sessions.
///
/// Three properties matter for a serving runtime:
///  * **Keyed by build semantics.** The key covers the dimension table
///    identity (pointer + row count), the key column, the dimension
///    filter, and the hash-table kind — two plans whose tables answer
///    every lookup identically share an entry; anything else does not.
///    Equal keys give lookup-identical tables, not byte-identical ones:
///    several workers building a linear-probing table place colliding
///    keys in insertion order, which varies from build to build.
///  * **Bounded.** Entries charge their modelled table bytes against
///    `capacity_bytes`; insertion evicts least-recently-used entries
///    until the new entry fits. Shared_ptr handles keep evicted tables
///    alive for queries still probing them (eviction is a cache-policy
///    event, never a use-after-free).
///  * **Single-flight.** Concurrent misses on one key build exactly once:
///    the first requester builds while the rest wait on the in-flight
///    slot. A failed build propagates its error to every waiter and then
///    clears the slot so a later query may retry. One query's build
///    failure is thus visible to the queries that asked for the same
///    table, and to nobody else — crash containment at cache scope.
///
/// Thread-safe. The build itself runs outside the cache mutex, so a slow
/// build never blocks hits on other keys.
class BuildCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Requests that waited on another query's in-flight build of the
    /// same key instead of building their own copy.
    std::uint64_t single_flight_waits = 0;
    /// Bytes currently charged by resident entries.
    std::uint64_t resident_bytes = 0;
    std::size_t entries = 0;
  };

  /// `capacity_bytes` bounds resident entries; 0 disables residency (every
  /// request is a miss, single-flight still deduplicates concurrent
  /// builds).
  explicit BuildCache(std::uint64_t capacity_bytes);

  BuildCache(const BuildCache&) = delete;
  BuildCache& operator=(const BuildCache&) = delete;

  /// Returns the cached table for `build`, building it (once, whatever
  /// the concurrency) on a miss, on up to `workers` workers claiming
  /// morsels of `morsel_tuples` rows (DimensionTable::Build). `hit`, when
  /// non-null, reports whether the table came from cache (true) or this
  /// call built/awaited it.
  Result<std::shared_ptr<const DimensionTable>> GetOrBuild(
      const BuildPipeline& build, bool* hit = nullptr,
      std::size_t workers = 1,
      std::size_t morsel_tuples = exec::kDefaultMorselTuples);

  /// Drops every resident entry (in-flight builds are unaffected).
  void Clear();

  /// One resident entry, as exposed by the introspection snapshot.
  struct ContentsEntry {
    /// The semantic cache key (dimension identity / key column / filter
    /// / table kind — see KeyFor).
    std::string key;
    std::uint64_t bytes = 0;
  };

  /// The resident entries in LRU order, most recently used first.
  std::vector<ContentsEntry> Contents() const;

  Stats stats() const;
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    std::shared_ptr<const DimensionTable> table;
    std::uint64_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };
  /// One in-flight build: the first requester populates `result` and
  /// broadcasts `done`; waiters block on the condition variable.
  /// verify:: primitives = plain std:: in normal builds; under
  /// PUMP_VERIFY the model checker explores the single-flight handoff.
  struct Flight {
    verify::Mutex mutex;
    verify::CondVar cv;
    bool done = false;
    Result<std::shared_ptr<const DimensionTable>> result{
        Status::Internal("build not started")};
  };

  static std::string KeyFor(const BuildPipeline& build);
  void InsertLocked(const std::string& key,
                    std::shared_ptr<const DimensionTable> table,
                    std::uint64_t bytes);

  const std::uint64_t capacity_bytes_;
  mutable verify::Mutex mutex_;
  std::map<std::string, Entry> entries_;
  /// LRU order, most recent at the front.
  std::list<std::string> lru_;
  std::map<std::string, std::shared_ptr<Flight>> in_flight_;
  std::uint64_t resident_bytes_ = 0;
  Stats stats_;
};

}  // namespace pump::plan

#endif  // PUMP_PLAN_BUILD_CACHE_H_
