#include "ops/q6.h"

#include <atomic>

#include "exec/morsel.h"
#include "exec/parallel.h"

namespace pump::ops {

namespace {

using data::kQ6DateHi;
using data::kQ6DateLo;
using data::kQ6DiscountHi;
using data::kQ6DiscountLo;
using data::kQ6QuantityLt;

Q6Result BranchingRange(const data::LineitemQ6& table, std::size_t begin,
                        std::size_t end) {
  Q6Result result;
  for (std::size_t i = begin; i < end; ++i) {
    const std::int32_t date = table.shipdate[i];
    if (date < kQ6DateLo || date >= kQ6DateHi) continue;
    const std::int32_t discount = table.discount[i];
    if (discount < kQ6DiscountLo || discount > kQ6DiscountHi) continue;
    if (table.quantity[i] >= kQ6QuantityLt) continue;
    result.revenue += table.extendedprice[i] * discount;
    ++result.qualifying_rows;
  }
  return result;
}

Q6Result PredicatedRange(const data::LineitemQ6& table, std::size_t begin,
                         std::size_t end) {
  Q6Result result;
  for (std::size_t i = begin; i < end; ++i) {
    const std::int32_t date = table.shipdate[i];
    const std::int32_t discount = table.discount[i];
    const std::int32_t quantity = table.quantity[i];
    // Branch-free predicate mask; the compiler vectorizes this loop.
    const std::int64_t qualifies =
        static_cast<std::int64_t>(date >= kQ6DateLo) &
        static_cast<std::int64_t>(date < kQ6DateHi) &
        static_cast<std::int64_t>(discount >= kQ6DiscountLo) &
        static_cast<std::int64_t>(discount <= kQ6DiscountHi) &
        static_cast<std::int64_t>(quantity < kQ6QuantityLt);
    result.revenue += qualifies * table.extendedprice[i] * discount;
    result.qualifying_rows += static_cast<std::uint64_t>(qualifies);
  }
  return result;
}

template <typename RangeFn>
Q6Result RunParallel(const data::LineitemQ6& table, std::size_t workers,
                     RangeFn range_fn) {
  exec::MorselDispatcher dispatcher(table.size(),
                                    exec::kDefaultMorselTuples);
  std::atomic<std::int64_t> revenue{0};
  std::atomic<std::uint64_t> rows{0};
  exec::ParallelFor(workers, [&](std::size_t) {
    Q6Result local;
    while (auto morsel = dispatcher.Next()) {
      const Q6Result part = range_fn(table, morsel->begin, morsel->end);
      local.revenue += part.revenue;
      local.qualifying_rows += part.qualifying_rows;
    }
    revenue.fetch_add(local.revenue, std::memory_order_relaxed);
    rows.fetch_add(local.qualifying_rows, std::memory_order_relaxed);
  });
  return Q6Result{revenue.load(), rows.load()};
}

}  // namespace

Q6Result RunQ6Branching(const data::LineitemQ6& table) {
  return BranchingRange(table, 0, table.size());
}

Q6Result RunQ6Predicated(const data::LineitemQ6& table) {
  return PredicatedRange(table, 0, table.size());
}

Q6Result RunQ6BranchingParallel(const data::LineitemQ6& table,
                                std::size_t workers) {
  return RunParallel(table, workers, BranchingRange);
}

Q6Result RunQ6PredicatedParallel(const data::LineitemQ6& table,
                                 std::size_t workers) {
  return RunParallel(table, workers, PredicatedRange);
}

}  // namespace pump::ops
