#ifndef PUMP_TESTS_ORACLE_H_
#define PUMP_TESTS_ORACLE_H_

// Reference oracle for query results: plain row loops and
// std::unordered_set semi-joins over engine::Query. It shares no plan/,
// hash/ or ops/ code with the engine (only the ops::CompareOp enum), so
// a defect in the shared hash tables or operators cannot give the same
// wrong answer on both sides.

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/query.h"
#include "engine/table.h"
#include "ops/scan.h"

namespace pump::test {

inline bool OracleCompare(ops::CompareOp op, std::int64_t value,
                          std::int64_t literal) {
  switch (op) {
    case ops::CompareOp::kLt:
      return value < literal;
    case ops::CompareOp::kLe:
      return value <= literal;
    case ops::CompareOp::kEq:
      return value == literal;
    case ops::CompareOp::kGe:
      return value >= literal;
    case ops::CompareOp::kGt:
      return value > literal;
    case ops::CompareOp::kNe:
      return value != literal;
  }
  return false;
}

inline const std::vector<std::int64_t>& OracleColumn(
    const engine::Table& table, const std::string& name) {
  return *table.Column(name).value();
}

/// COUNT(*) and SUM(measure) over the fact rows that pass every filter
/// and whose every join key is among the dimension's qualifying keys. The
/// sum wraps modulo 2^64, as the engine's does.
inline engine::QueryResult Oracle(const engine::Query& query) {
  const engine::Table& fact = *query.fact;
  std::vector<bool> keep(fact.rows(), true);
  for (const engine::Filter& filter : query.filters) {
    const auto& column = OracleColumn(fact, filter.column);
    for (std::size_t row = 0; row < fact.rows(); ++row) {
      keep[row] = keep[row] &&
                  OracleCompare(filter.op, column[row], filter.literal);
    }
  }
  for (const engine::JoinClause& join : query.joins) {
    const engine::Table& dim = *join.dimension;
    const auto& dim_keys = OracleColumn(dim, join.dim_key_column);
    std::unordered_set<std::int64_t> qualifying;
    for (std::size_t i = 0; i < dim_keys.size(); ++i) {
      if (!join.has_dim_filter ||
          OracleCompare(join.dim_filter.op,
                        OracleColumn(dim, join.dim_filter.column)[i],
                        join.dim_filter.literal)) {
        qualifying.insert(dim_keys[i]);
      }
    }
    const auto& fact_keys = OracleColumn(fact, join.fact_key_column);
    for (std::size_t row = 0; row < fact.rows(); ++row) {
      keep[row] = keep[row] && qualifying.count(fact_keys[row]) > 0;
    }
  }
  engine::QueryResult result;
  // Unsigned, so the sum wraps modulo 2^64 instead of overflowing.
  std::uint64_t sum = 0;
  const auto& measure = OracleColumn(fact, query.measure_column);
  for (std::size_t row = 0; row < fact.rows(); ++row) {
    if (keep[row]) {
      ++result.rows;
      sum += static_cast<std::uint64_t>(measure[row]);
    }
  }
  result.sum = static_cast<std::int64_t>(sum);
  return result;
}

}  // namespace pump::test

#endif  // PUMP_TESTS_ORACLE_H_
