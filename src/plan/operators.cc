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
  // placements the source stages columns, and this order keeps a seeded
  // transfer-chunk fault stream replayable.
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

void ProcessRange(const BoundProbe& bound, std::size_t begin,
                  std::size_t end, std::uint64_t* rows, std::int64_t* sum) {
  for (std::size_t i = begin; i < end; ++i) {
    bool qualifies = true;
    for (const BoundFilter& filter : bound.filters) {
      if (!ops::Compare(filter.op, filter.column[i], filter.literal)) {
        qualifies = false;
        break;
      }
    }
    if (!qualifies) continue;
    for (const BoundProbeStep& probe : bound.probes) {
      if (!probe.table->Contains(probe.keys[i])) {
        qualifies = false;
        break;
      }
    }
    if (!qualifies) continue;
    ++*rows;
    *sum += bound.measure[i];
  }
}

void ProcessIndices(const BoundProbe& bound, const std::uint32_t* indices,
                    std::size_t count, std::uint64_t* rows,
                    std::int64_t* sum) {
  for (std::size_t n = 0; n < count; ++n) {
    const std::size_t i = indices[n];
    bool qualifies = true;
    for (const BoundFilter& filter : bound.filters) {
      if (!ops::Compare(filter.op, filter.column[i], filter.literal)) {
        qualifies = false;
        break;
      }
    }
    if (!qualifies) continue;
    for (const BoundProbeStep& probe : bound.probes) {
      if (!probe.table->Contains(probe.keys[i])) {
        qualifies = false;
        break;
      }
    }
    if (!qualifies) continue;
    ++*rows;
    *sum += bound.measure[i];
  }
}

}  // namespace pump::plan
