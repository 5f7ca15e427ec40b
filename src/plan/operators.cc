#include "plan/operators.h"

#include <algorithm>

#include "obs/trace.h"

namespace pump::plan {

Result<DimensionTable> DimensionTable::Build(const BuildPipeline& build) {
  PUMP_ASSIGN_OR_RETURN(const auto* keys,
                        build.dimension->Column(build.key_column));
  PUMP_TRACE_SPAN(obs::TraceCategory::kHash, "hash.build",
                  static_cast<double>(keys->size()),
                  static_cast<double>(static_cast<int>(build.table_kind)));
  const std::vector<std::int64_t>* filter_column = nullptr;
  if (build.has_dim_filter) {
    PUMP_ASSIGN_OR_RETURN(filter_column,
                          build.dimension->Column(build.dim_filter.column));
  }

  DimensionTable table;
  table.kind_ = build.table_kind;
  if (build.table_kind == HashTableKind::kLinearProbing) {
    table.linear_.emplace(std::max<std::size_t>(1, keys->size()));
  } else {
    // Perfect (and hybrid, whose probe layout is the same perfect table):
    // slot = key over the dense domain [0, max_key].
    table.perfect_.emplace(static_cast<std::size_t>(build.keys.max_key + 1));
  }

  for (std::size_t i = 0; i < keys->size(); ++i) {
    if (filter_column != nullptr &&
        !ops::Compare(build.dim_filter.op, (*filter_column)[i],
                      build.dim_filter.literal)) {
      continue;
    }
    if (table.perfect_.has_value()) {
      PUMP_RETURN_NOT_OK(table.perfect_->Insert((*keys)[i], 1));
    } else {
      PUMP_RETURN_NOT_OK(table.linear_->Insert((*keys)[i], 1));
    }
    ++table.entries_;
  }
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
