#ifndef PUMP_PLAN_OPERATORS_H_
#define PUMP_PLAN_OPERATORS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/morsel.h"
#include "hash/hash_table.h"
#include "plan/plan.h"

namespace pump::plan {

/// The built semi-join table of one build pipeline: the functional host
/// table behind the plan's modelled placement, wrapping whichever table
/// kind the compiler selected. Qualifying dimension keys map to 1
/// (semi-join semantics; the measure lives in the fact table). The
/// kHybrid kind probes through the same perfect-hash layout — the hybrid
/// part is the modelled GPU/CPU split of its backing buffer, which the
/// plan executor accounts separately.
class DimensionTable {
 public:
  /// Builds the table from the pipeline's dimension column on up to
  /// `workers` workers of the shared pool, never more than there are
  /// morsels of `morsel_tuples` dimension rows (so a one-morsel build runs
  /// inline). Each worker claims morsels from one MorselDispatcher,
  /// narrows each block's selection vector with the dimension filter, as
  /// the probe loop does, and CAS-inserts the survivors into the one
  /// table. Fails with AlreadyExists on duplicate qualifying keys, and
  /// with InvalidArgument on a qualifying key the chosen table cannot
  /// store (the linear-probing sentinel -1), whichever worker meets it.
  static Result<DimensionTable> Build(
      const BuildPipeline& build, std::size_t workers = 1,
      std::size_t morsel_tuples = exec::kDefaultMorselTuples);

  /// The semi-join probe of `count` keys: sets `found[i]` when `keys[i]`
  /// was inserted (and `values[i]` to its payload, 1) and returns the
  /// match count. Forwards to the built table kind's ProbeBatch, which
  /// dispatches between the AVX2 gather kernel and the interleaved
  /// prefetch path (hash/hash_table.h).
  std::size_t ProbeBatch(const std::int64_t* keys, std::size_t count,
                         std::int64_t* values, bool* found) const {
    if (perfect_.has_value()) {
      return perfect_->ProbeBatch(keys, count, values, found);
    }
    return linear_->ProbeBatch(keys, count, values, found);
  }

  /// The table kind actually constructed.
  HashTableKind kind() const { return kind_; }
  /// Keys inserted (post dimension-filter).
  std::size_t entries() const { return entries_; }

 private:
  using Perfect = hash::PerfectHashTable<std::int64_t, std::int64_t>;
  using Linear = hash::LinearProbingHashTable<std::int64_t, std::int64_t>;

  DimensionTable() = default;

  HashTableKind kind_ = HashTableKind::kLinearProbing;
  std::size_t entries_ = 0;
  std::optional<Perfect> perfect_;
  std::optional<Linear> linear_;
};

/// One filter operator with its column resolved to a raw pointer.
struct BoundFilter {
  const std::int64_t* column = nullptr;
  ops::CompareOp op = ops::CompareOp::kEq;
  std::int64_t literal = 0;
};

/// One probe operator bound to its fact key column and built table.
struct BoundProbeStep {
  const std::int64_t* keys = nullptr;
  const DimensionTable* table = nullptr;
};

/// The probe pipeline with every column resolved — no name lookups in
/// the probe loop. Column pointers reference the fact table's own columns
/// under every placement: a GPU placement pulls them in place (the
/// pull-based transfer methods read host memory where it lives) instead
/// of copying them, and every placement, the shards included, runs the
/// same block loop (ProcessRange / ProcessIndices), which is what makes
/// them bit-compatible.
struct BoundProbe {
  const std::int64_t* measure = nullptr;
  std::vector<BoundFilter> filters;
  std::vector<BoundProbeStep> probes;
};

/// Maps a fact column name to the pointer the pipeline reads. GPU
/// placements pull the column in place here (its chunks walk the
/// transfer failpoints) and return the host pointer; a null pointer is
/// only valid for an empty fact table.
using ColumnSource =
    std::function<Result<const std::int64_t*>(const std::string&)>;

/// Resolves `plan`'s probe pipeline against `tables` (one per build
/// pipeline, in order) and `source`. Columns are resolved in the fixed
/// order measure, filters, probe keys, so a seeded transfer-fault
/// schedule meets the pulled chunks in the same order on every run and
/// replays identically. Tables are shared handles so a probe can
/// reference cache-resident builds owned jointly with other queries
/// (plan/build_cache.h); the bound pipeline keeps them alive.
Result<BoundProbe> BindProbe(
    const PhysicalPlan& plan,
    const std::vector<std::shared_ptr<const DimensionTable>>& tables,
    const ColumnSource& source);

/// Tuples per block of the probe loop. A block's selection vector,
/// gathered keys and probe outputs (about 25 KiB) stay cache-resident
/// while the filters and probes narrow it, and each probe step hands
/// the table one ProbeBatch call with up to this many keys.
inline constexpr std::size_t kProbeBlockTuples = 1024;

/// Executes the bound pipeline over fact tuples [begin, end), a block of
/// kProbeBlockTuples tuples at a time: the filters narrow the block's
/// selection vector in order, then each probe step gathers the
/// survivors' keys and probes them with one DimensionTable::ProbeBatch,
/// and the last survivors feed the aggregate. Adds the qualifying count
/// to `*rows` and their measures to `*sum`; the sum wraps modulo 2^64,
/// so it does not depend on the order tuples arrive in and every
/// placement, worker count and morsel split gives a bit-identical
/// result.
void ProcessRange(const BoundProbe& bound, std::size_t begin,
                  std::size_t end, std::uint64_t* rows, std::int64_t* sum);

/// Executes the bound pipeline over an explicit tuple index list — the
/// shard-local probe of a hash-partitioned plan. The same block loop as
/// ProcessRange, which seeds each block's selection vector from
/// `indices` instead of a row range, so sharded execution stays
/// bit-identical to the single-device plan.
void ProcessIndices(const BoundProbe& bound, const std::uint32_t* indices,
                    std::size_t count, std::uint64_t* rows,
                    std::int64_t* sum);

}  // namespace pump::plan

#endif  // PUMP_PLAN_OPERATORS_H_
