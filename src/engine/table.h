#ifndef PUMP_ENGINE_TABLE_H_
#define PUMP_ENGINE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace pump::engine {

/// The smallest and largest value of a column; an empty column reads
/// min 0, max -1 (an empty domain).
struct ColumnRange {
  std::int64_t min = 0;
  std::int64_t max = -1;
};

/// A named, column-oriented table of 64-bit integer columns — the storage
/// unit of the engine layer. Narrow integer columns match the paper's
/// workloads (Sec. 7.1) and keep the executor simple; wider types would
/// dictionary-encode into this representation. Move-only: each column
/// keeps its memoized range beside its values.
class Table {
 public:
  Table() = default;

  /// Adds a column; every column must have the same length. The first
  /// column fixes the row count.
  Status AddColumn(const std::string& name,
                   std::vector<std::int64_t> values) {
    if (columns_.count(name) > 0) {
      return Status::AlreadyExists("column '" + name + "' exists");
    }
    if (!columns_.empty() && values.size() != rows_) {
      return Status::InvalidArgument("column length mismatch");
    }
    rows_ = values.size();
    order_.push_back(name);
    columns_.try_emplace(name, std::move(values));
    return Status::OK();
  }

  /// Looks up a column by name.
  Result<const std::vector<std::int64_t>*> Column(
      const std::string& name) const {
    auto it = columns_.find(name);
    if (it == columns_.end()) {
      return Status::NotFound("no column '" + name + "'");
    }
    return &it->second.values;
  }

  /// The column's range, computed in one pass the first time it is asked
  /// for and kept: columns are immutable once added, and computing it in
  /// AddColumn would make every fact column nobody joins on pay the pass.
  /// Thread-safe, so concurrent compiles may share the table.
  Result<ColumnRange> Range(const std::string& name) const {
    auto it = columns_.find(name);
    if (it == columns_.end()) {
      return Status::NotFound("no column '" + name + "'");
    }
    const Stored& column = it->second;
    std::call_once(column.range_once, [&column] {
      if (column.values.empty()) return;
      ColumnRange range{column.values.front(), column.values.front()};
      for (const std::int64_t value : column.values) {
        range.min = std::min(range.min, value);
        range.max = std::max(range.max, value);
      }
      column.range = range;
    });
    return column.range;
  }

  /// True when the column exists.
  bool HasColumn(const std::string& name) const {
    return columns_.count(name) > 0;
  }

  /// Number of rows.
  std::size_t rows() const { return rows_; }
  /// Number of columns.
  std::size_t column_count() const { return columns_.size(); }
  /// Column names in insertion order.
  const std::vector<std::string>& column_names() const { return order_; }
  /// Total bytes across all columns (8 B per value).
  std::uint64_t bytes() const { return rows_ * column_count() * 8; }

 private:
  struct Stored {
    explicit Stored(std::vector<std::int64_t> column)
        : values(std::move(column)) {}

    std::vector<std::int64_t> values;
    mutable std::once_flag range_once;
    /// Written once, under `range_once`.
    mutable ColumnRange range;
  };

  std::size_t rows_ = 0;
  std::vector<std::string> order_;
  std::unordered_map<std::string, Stored> columns_;
};

}  // namespace pump::engine

#endif  // PUMP_ENGINE_TABLE_H_
