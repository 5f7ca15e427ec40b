#include "plan/operators.h"

#include <algorithm>
#include <atomic>

#include "exec/morsel.h"
#include "exec/parallel.h"
#include "obs/trace.h"

namespace pump::plan {

namespace {

/// Inserts the keys of the `alive` selected rows into `table`, each
/// mapped to 1; stops at the first key the table rejects.
template <typename HashTable>
Status InsertSelected(HashTable* table, const std::int64_t* keys,
                      const std::size_t* selection, std::size_t alive) {
  for (std::size_t n = 0; n < alive; ++n) {
    PUMP_RETURN_NOT_OK(table->Insert(keys[selection[n]], 1));
  }
  return Status::OK();
}

}  // namespace

Result<DimensionTable> DimensionTable::Build(const BuildPipeline& build,
                                             std::size_t workers,
                                             std::size_t morsel_tuples) {
  PUMP_ASSIGN_OR_RETURN(const auto* key_column,
                        build.dimension->Column(build.key_column));
  const std::int64_t* filter = nullptr;
  if (build.has_dim_filter) {
    PUMP_ASSIGN_OR_RETURN(const auto* filter_column,
                          build.dimension->Column(build.dim_filter.column));
    filter = filter_column->data();
  }
  const std::int64_t* keys = key_column->data();

  DimensionTable table;
  table.kind_ = build.table_kind;
  if (build.table_kind == HashTableKind::kLinearProbing) {
    table.linear_.emplace(std::max<std::size_t>(1, key_column->size()));
  } else {
    // Perfect (and hybrid, whose probe layout is the same perfect table):
    // slot = key over the dense domain [0, max_key].
    table.perfect_.emplace(static_cast<std::size_t>(build.keys.max_key + 1));
  }

  // Every slot CAS-inserts into the one table. A slot stops at its first
  // rejected key and the others stop claiming, so a duplicate or sentinel
  // key fails the build whichever slot meets it.
  exec::MorselDispatcher dispatcher(key_column->size(), morsel_tuples);
  const std::size_t slots = dispatcher.Slots(workers);
  std::vector<Status> errors(slots);
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> entries{0};
  exec::ParallelFor(slots, [&](std::size_t slot) {
    PUMP_TRACE_NAMED_SPAN(span, obs::TraceCategory::kHash, "hash.build");
    std::size_t selection[kProbeBlockTuples] = {};
    // Claimed tuples only tag the span (compiled out without tracing).
    [[maybe_unused]] std::size_t claimed = 0;
    std::size_t inserted = 0;
    Status status;
    while (status.ok() && !failed.load(std::memory_order_relaxed)) {
      const auto morsel = dispatcher.Next();
      if (!morsel) break;
      claimed += morsel->size();
      for (std::size_t base = morsel->begin; status.ok() && base < morsel->end;
           base += kProbeBlockTuples) {
        std::size_t alive = std::min(kProbeBlockTuples, morsel->end - base);
        for (std::size_t n = 0; n < alive; ++n) selection[n] = base + n;
        if (filter != nullptr) {
          std::size_t kept = 0;
          for (std::size_t n = 0; n < alive; ++n) {
            const std::size_t row = selection[n];
            selection[kept] = row;
            kept += ops::Compare(build.dim_filter.op, filter[row],
                                 build.dim_filter.literal);
          }
          alive = kept;
        }
        status = table.perfect_.has_value()
                     ? InsertSelected(&*table.perfect_, keys, selection, alive)
                     : InsertSelected(&*table.linear_, keys, selection, alive);
        inserted += alive;
      }
    }
    PUMP_TRACE_END_ARGS(span, static_cast<double>(slot),
                        static_cast<double>(claimed));
    entries.fetch_add(inserted, std::memory_order_relaxed);
    if (!status.ok()) {
      errors[slot] = std::move(status);
      failed.store(true, std::memory_order_relaxed);
    }
  });
  for (Status& error : errors) {
    if (!error.ok()) return std::move(error);
  }
  table.entries_ = entries.load(std::memory_order_relaxed);
  return table;
}

Result<BoundProbe> BindProbe(
    const PhysicalPlan& plan,
    const std::vector<std::shared_ptr<const DimensionTable>>& tables,
    const ColumnSource& source) {
  BoundProbe bound;
  // Fixed binding order (measure, filters, probe keys): for GPU
  // placements the source pulls columns chunk by chunk, and this order
  // keeps a seeded transfer-chunk fault stream replayable.
  for (const Operator& op : plan.probe.ops) {
    if (op.kind != OpKind::kAggregate) continue;
    PUMP_ASSIGN_OR_RETURN(bound.measure, source(op.column));
  }
  for (const Operator& op : plan.probe.ops) {
    if (op.kind != OpKind::kScanFilter) continue;
    BoundFilter filter;
    PUMP_ASSIGN_OR_RETURN(filter.column, source(op.column));
    filter.op = op.op;
    filter.literal = op.literal;
    bound.filters.push_back(filter);
  }
  for (const Operator& op : plan.probe.ops) {
    if (op.kind != OpKind::kProbe) continue;
    if (op.build_index >= tables.size()) {
      return Status::Internal("probe references missing build pipeline " +
                              std::to_string(op.build_index));
    }
    BoundProbeStep step;
    PUMP_ASSIGN_OR_RETURN(step.keys, source(op.column));
    step.table = tables[op.build_index].get();
    bound.probes.push_back(step);
  }
  return bound;
}

namespace {

/// The one probe loop behind ProcessRange and ProcessIndices, over tuples
/// `indices[n]` — or `begin + n` when `indices` is null — for n < count.
/// Forced inline, so each entry point holds a whole copy of the loop (the
/// range copy without the index loads) and the loop's placement is that
/// of the two aligned symbols.
__attribute__((always_inline)) inline void ProbeBlocks(
    const BoundProbe& bound, const std::uint32_t* indices, std::size_t begin,
    std::size_t count, std::uint64_t* rows, std::int64_t* sum) {
  std::size_t selection[kProbeBlockTuples] = {};
  std::int64_t keys[kProbeBlockTuples] = {};
  std::int64_t values[kProbeBlockTuples] = {};
  bool found[kProbeBlockTuples] = {};
  std::uint64_t qualifying = 0;
  // Unsigned, so the sum wraps modulo 2^64 instead of overflowing.
  std::uint64_t measures = 0;
  for (std::size_t base = 0; base < count; base += kProbeBlockTuples) {
    std::size_t alive = std::min(kProbeBlockTuples, count - base);
    for (std::size_t n = 0; n < alive; ++n) {
      selection[n] = indices != nullptr ? indices[base + n] : begin + base + n;
    }
    for (const BoundFilter& filter : bound.filters) {
      std::size_t kept = 0;
      for (std::size_t n = 0; n < alive; ++n) {
        const std::size_t row = selection[n];
        selection[kept] = row;
        kept += ops::Compare(filter.op, filter.column[row], filter.literal);
      }
      alive = kept;
    }
    for (const BoundProbeStep& probe : bound.probes) {
      if (alive == 0) break;
      for (std::size_t n = 0; n < alive; ++n) {
        keys[n] = probe.keys[selection[n]];
      }
      probe.table->ProbeBatch(keys, alive, values, found);
      std::size_t kept = 0;
      for (std::size_t n = 0; n < alive; ++n) {
        selection[kept] = selection[n];
        kept += found[n];
      }
      alive = kept;
    }
    qualifying += alive;
    for (std::size_t n = 0; n < alive; ++n) {
      measures += static_cast<std::uint64_t>(bound.measure[selection[n]]);
    }
  }
  *rows += qualifying;
  *sum = static_cast<std::int64_t>(static_cast<std::uint64_t>(*sum) +
                                   measures);
}

}  // namespace

// Both entry points start on a cache line, so the loop's speed does not
// depend on where the linker happens to place it: builds that differ
// only elsewhere (PUMP_TRACE on and off) then time the same code.
__attribute__((aligned(64))) void ProcessRange(const BoundProbe& bound,
                                               std::size_t begin,
                                               std::size_t end,
                                               std::uint64_t* rows,
                                               std::int64_t* sum) {
  ProbeBlocks(bound, nullptr, begin, end - begin, rows, sum);
}

__attribute__((aligned(64))) void ProcessIndices(
    const BoundProbe& bound, const std::uint32_t* indices, std::size_t count,
    std::uint64_t* rows, std::int64_t* sum) {
  ProbeBlocks(bound, indices, 0, count, rows, sum);
}

}  // namespace pump::plan
