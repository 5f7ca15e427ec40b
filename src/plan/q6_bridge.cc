#include "plan/q6_bridge.h"

#include <vector>

#include "plan/compiler.h"
#include "plan/executor.h"

namespace pump::plan {

Q6PlanInput Q6PlanInput::From(const data::LineitemQ6& source) {
  const std::size_t rows = source.size();
  std::vector<std::int64_t> shipdate(rows), quantity(rows), discount(rows),
      revenue(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    shipdate[i] = source.shipdate[i];
    quantity[i] = source.quantity[i];
    discount[i] = source.discount[i];
    revenue[i] = source.extendedprice[i] *
                 static_cast<std::int64_t>(source.discount[i]);
  }
  Q6PlanInput input;
  (void)input.table.AddColumn("l_shipdate", std::move(shipdate));
  (void)input.table.AddColumn("l_quantity", std::move(quantity));
  (void)input.table.AddColumn("l_discount", std::move(discount));
  (void)input.table.AddColumn("l_revenue", std::move(revenue));
  return input;
}

engine::Query Q6PlanInput::MakeQuery() const {
  engine::Query query;
  query.fact = &table;
  // Predicates in the branching kernel's evaluation order.
  query.filters = {
      {"l_shipdate", ops::CompareOp::kGe, data::kQ6DateLo},
      {"l_shipdate", ops::CompareOp::kLt, data::kQ6DateHi},
      {"l_discount", ops::CompareOp::kGe, data::kQ6DiscountLo},
      {"l_discount", ops::CompareOp::kLe, data::kQ6DiscountHi},
      {"l_quantity", ops::CompareOp::kLt, data::kQ6QuantityLt},
  };
  query.measure_column = "l_revenue";
  return query;
}

Result<ops::Q6Result> RunQ6Plan(const Q6PlanInput& input,
                                std::size_t workers) {
  const engine::Query query = input.MakeQuery();
  CompileOptions compile_options;
  compile_options.policy = PlacementPolicy::kCpuOnly;
  PUMP_ASSIGN_OR_RETURN(const PhysicalPlan plan,
                        Compile(query, compile_options));
  engine::ExecOptions options;
  options.workers = workers;
  PUMP_ASSIGN_OR_RETURN(const engine::ExecReport report,
                        ExecutePlan(plan, options));
  ops::Q6Result result;
  result.revenue = report.result.sum;
  result.qualifying_rows = report.result.rows;
  return result;
}

}  // namespace pump::plan
