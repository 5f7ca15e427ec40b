#ifndef PUMP_JOIN_NOPA_H_
#define PUMP_JOIN_NOPA_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/relation.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "hash/hash_table.h"

namespace pump::join {

/// Aggregated join output. The paper's joins emit an aggregate rather than
/// materializing the result (Sec. 5.1); summing the matched payloads makes
/// the result order-independent and arithmetically checkable
/// (payload == key + data::kPayloadOffset).
struct JoinAggregate {
  std::uint64_t matches = 0;
  std::uint64_t payload_sum = 0;

  friend bool operator==(const JoinAggregate&, const JoinAggregate&) =
      default;
};

/// Morsel-parallel build phase of the no-partitioning hash join (Sec. 2.1):
/// workers claim R morsels from a shared dispatcher and insert into the
/// shared table. The final thread join is the build barrier the tables'
/// insert contract requires. Fails on duplicate or out-of-domain keys.
template <typename Table, typename K, typename V>
Status BuildPhase(Table* table, const data::Relation<K, V>& inner,
                  std::size_t workers,
                  std::size_t morsel_tuples = exec::kDefaultMorselTuples) {
  exec::MorselDispatcher dispatcher(inner.size(), morsel_tuples);
  std::atomic<bool> failed{false};
  Status first_error;  // Written by at most one worker (guarded by CAS).
  std::atomic<bool> error_claimed{false};

  exec::ParallelFor(workers, [&](std::size_t) {
    while (auto morsel = dispatcher.Next()) {
      if (failed.load(std::memory_order_relaxed)) return;
      for (std::size_t i = morsel->begin; i < morsel->end; ++i) {
        Status status = table->Insert(inner.keys[i], inner.payloads[i]);
        if (!status.ok()) {
          bool expected = false;
          if (error_claimed.compare_exchange_strong(expected, true)) {
            first_error = std::move(status);
          }
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  });
  if (failed.load()) return first_error;
  return Status::OK();
}

/// Probes `keys[begin, end)` against `table`, adding matches and payload
/// sums to the accumulators. Tables exposing the interleaved ProbeBatch
/// interface (hash_table.h) are probed in groups of kProbeBatchWidth with
/// all bucket addresses prefetched before any is dereferenced; other
/// tables (e.g. instrumented wrappers) fall back to scalar Lookup.
template <typename Table, typename K, typename V>
void ProbeRange(const Table& table, const K* keys, std::size_t begin,
                std::size_t end, std::uint64_t* matches,
                std::uint64_t* sum) {
  if constexpr (requires(V* values, bool* found) {
                  table.ProbeBatch(keys, end - begin, values, found);
                }) {
    V values[hash::kProbeBatchWidth];
    bool found[hash::kProbeBatchWidth];
    for (std::size_t base = begin; base < end;
         base += hash::kProbeBatchWidth) {
      const std::size_t count =
          std::min(hash::kProbeBatchWidth, end - base);
      *matches += table.ProbeBatch(keys + base, count, values, found);
      for (std::size_t i = 0; i < count; ++i) {
        if (found[i]) *sum += static_cast<std::uint64_t>(values[i]);
      }
    }
  } else {
    for (std::size_t i = begin; i < end; ++i) {
      V payload;
      if (table.Lookup(keys[i], &payload)) {
        ++*matches;
        *sum += static_cast<std::uint64_t>(payload);
      }
    }
  }
}

/// Morsel-parallel probe phase: workers claim S morsels and probe the
/// shared (read-only) table, accumulating matches and payload sums
/// locally, then merging atomically.
template <typename Table, typename K, typename V>
JoinAggregate ProbePhase(const Table& table,
                         const data::Relation<K, V>& outer,
                         std::size_t workers,
                         std::size_t morsel_tuples =
                             exec::kDefaultMorselTuples) {
  exec::MorselDispatcher dispatcher(outer.size(), morsel_tuples);
  std::atomic<std::uint64_t> total_matches{0};
  std::atomic<std::uint64_t> total_sum{0};

  exec::ParallelFor(workers, [&](std::size_t) {
    std::uint64_t matches = 0;
    std::uint64_t sum = 0;
    while (auto morsel = dispatcher.Next()) {
      ProbeRange<Table, K, V>(table, outer.keys.data(), morsel->begin,
                              morsel->end, &matches, &sum);
    }
    total_matches.fetch_add(matches, std::memory_order_relaxed);
    total_sum.fetch_add(sum, std::memory_order_relaxed);
  });
  return JoinAggregate{total_matches.load(), total_sum.load()};
}

/// A materialized join result row: <key, inner payload, outer payload>.
template <typename K, typename V>
struct JoinedTuple {
  K key;
  V inner_payload;
  V outer_payload;

  friend bool operator==(const JoinedTuple&, const JoinedTuple&) = default;
};

/// Morsel-parallel probe that materializes the joined tuples instead of
/// aggregating (the other emit strategy of Sec. 5.1). Workers append to
/// private buffers that are concatenated afterwards; the output multiset
/// is exact but its order depends on which worker claimed which morsel.
template <typename Table, typename K, typename V>
std::vector<JoinedTuple<K, V>> ProbeMaterialize(
    const Table& table, const data::Relation<K, V>& outer,
    std::size_t workers,
    std::size_t morsel_tuples = exec::kDefaultMorselTuples) {
  workers = std::max<std::size_t>(1, workers);
  exec::MorselDispatcher dispatcher(outer.size(), morsel_tuples);
  std::vector<std::vector<JoinedTuple<K, V>>> partial(workers);
  exec::ParallelFor(workers, [&](std::size_t w) {
    auto& out = partial[w];
    while (auto morsel = dispatcher.Next()) {
      for (std::size_t i = morsel->begin; i < morsel->end; ++i) {
        V payload;
        if (table.Lookup(outer.keys[i], &payload)) {
          out.push_back(JoinedTuple<K, V>{outer.keys[i], payload,
                                          outer.payloads[i]});
        }
      }
    }
  });
  std::vector<JoinedTuple<K, V>> result;
  for (auto& part : partial) {
    result.insert(result.end(), part.begin(), part.end());
  }
  return result;
}

/// End-to-end no-partitioning hash join over a perfect-hash table sized to
/// R's dense key domain [0, |R|). This is the functional counterpart of
/// the cost models: identical algorithm, host execution.
template <typename K, typename V>
Result<JoinAggregate> RunNopaJoin(const data::Relation<K, V>& inner,
                                  const data::Relation<K, V>& outer,
                                  std::size_t workers = 1) {
  hash::PerfectHashTable<K, V> table(inner.size());
  PUMP_RETURN_NOT_OK(BuildPhase(&table, inner, workers));
  return ProbePhase(table, outer, workers);
}

/// Variant over a caller-provided table (e.g. a HybridHashTable's view or
/// a LinearProbingHashTable for non-dense keys).
template <typename Table, typename K, typename V>
Result<JoinAggregate> RunNopaJoinOn(Table* table,
                                    const data::Relation<K, V>& inner,
                                    const data::Relation<K, V>& outer,
                                    std::size_t workers = 1) {
  PUMP_RETURN_NOT_OK(BuildPhase(table, inner, workers));
  return ProbePhase(*table, outer, workers);
}

}  // namespace pump::join

#endif  // PUMP_JOIN_NOPA_H_
