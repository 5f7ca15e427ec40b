#ifndef PUMP_JOIN_STAR_H_
#define PUMP_JOIN_STAR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "data/star.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "hash/hash_table.h"
#include "join/nopa.h"

namespace pump::join {

/// Aggregated result of a star join: fact rows that matched every
/// dimension, and the sum of (measure * sum of dimension payloads) as an
/// order-independent checksum.
struct StarAggregate {
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;

  friend bool operator==(const StarAggregate&, const StarAggregate&) =
      default;
};

/// Functional multi-way star join (the Sec. 6.2 extension): builds one
/// perfect-hash table per dimension — optionally in parallel, the way the
/// paper suggests building each table on a different processor — then
/// probes all of them per fact row in one morsel-parallel pass.
class StarJoin {
 public:
  /// Builds the per-dimension tables; `parallel_builds` builds them
  /// concurrently (one worker per dimension).
  static Result<StarJoin> Build(const data::StarSchema& schema,
                                bool parallel_builds = false) {
    StarJoin join;
    join.tables_.reserve(schema.dimension_count());
    for (const data::Relation64& dim : schema.dimensions) {
      join.tables_.push_back(
          std::make_unique<hash::PerfectHashTable<std::int64_t,
                                                  std::int64_t>>(
              dim.size()));
    }
    std::atomic<bool> failed{false};
    auto build_one = [&](std::size_t d) {
      Status status =
          BuildPhase(join.tables_[d].get(), schema.dimensions[d], 1);
      if (!status.ok()) failed.store(true, std::memory_order_relaxed);
    };
    if (parallel_builds) {
      exec::ParallelFor(schema.dimension_count(),
                        [&](std::size_t d) { build_one(d); });
    } else {
      for (std::size_t d = 0; d < schema.dimension_count(); ++d) {
        build_one(d);
      }
    }
    if (failed.load()) {
      return Status::AlreadyExists("duplicate dimension key");
    }
    return join;
  }

  /// Probes every dimension per fact row; a row contributes only when all
  /// dimensions match (inner join semantics).
  StarAggregate Probe(const data::StarSchema& schema,
                      std::size_t workers = 1) const {
    exec::MorselDispatcher dispatcher(schema.fact_rows(),
                                      exec::kDefaultMorselTuples);
    std::atomic<std::uint64_t> matches{0};
    std::atomic<std::uint64_t> checksum{0};
    exec::ParallelFor(workers, [&](std::size_t) {
      std::uint64_t local_matches = 0, local_checksum = 0;
      while (auto morsel = dispatcher.Next()) {
        ProbeMorsel(schema, morsel->begin, morsel->end, &local_matches,
                    &local_checksum);
      }
      matches.fetch_add(local_matches, std::memory_order_relaxed);
      checksum.fetch_add(local_checksum, std::memory_order_relaxed);
    });
    return StarAggregate{matches.load(), checksum.load()};
  }

  /// Number of dimension tables.
  std::size_t dimension_count() const { return tables_.size(); }

 private:
  StarJoin() = default;

  /// Batched multi-dimension probe of fact rows [begin, end): per block of
  /// kProbeBatchWidth rows, each dimension is probed with the interleaved
  /// ProbeBatch over the rows still alive, so every bucket address in a
  /// group is prefetched before any is dereferenced. Rows killed by an
  /// earlier dimension are not gathered for later ones — the same
  /// short-circuit semantics as the scalar loop, evaluated blockwise.
  void ProbeMorsel(const data::StarSchema& schema, std::size_t begin,
                   std::size_t end, std::uint64_t* matches,
                   std::uint64_t* checksum) const {
    std::int64_t keys[hash::kProbeBatchWidth];
    std::int64_t values[hash::kProbeBatchWidth];
    bool found[hash::kProbeBatchWidth];
    std::size_t rows[hash::kProbeBatchWidth];
    std::uint64_t sums[hash::kProbeBatchWidth];
    for (std::size_t base = begin; base < end;
         base += hash::kProbeBatchWidth) {
      const std::size_t block = std::min(hash::kProbeBatchWidth,
                                         end - base);
      std::size_t alive = 0;
      for (std::size_t i = 0; i < block; ++i) {
        rows[alive] = base + i;
        sums[alive] = 0;
        ++alive;
      }
      for (std::size_t d = 0; d < tables_.size() && alive > 0; ++d) {
        const std::int64_t* fact_keys = schema.fact_keys[d].data();
        for (std::size_t i = 0; i < alive; ++i) {
          keys[i] = fact_keys[rows[i]];
        }
        tables_[d]->ProbeBatch(keys, alive, values, found);
        std::size_t survivors = 0;
        for (std::size_t i = 0; i < alive; ++i) {
          if (!found[i]) continue;
          rows[survivors] = rows[i];
          sums[survivors] = sums[i] + static_cast<std::uint64_t>(values[i]);
          ++survivors;
        }
        alive = survivors;
      }
      *matches += alive;
      for (std::size_t i = 0; i < alive; ++i) {
        *checksum += static_cast<std::uint64_t>(schema.measures[rows[i]]) +
                     sums[i];
      }
    }
  }

  std::vector<
      std::unique_ptr<hash::PerfectHashTable<std::int64_t, std::int64_t>>>
      tables_;
};

}  // namespace pump::join

#endif  // PUMP_JOIN_STAR_H_
