#include "workload.h"

#include <algorithm>
#include <numeric>
#include <random>

namespace perfbench {

namespace pe = pump::engine;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

// Ad-hoc join shape: a fact table with a foreign key into a large
// dimension whose attribute takes kAttrValues values; query i keeps the
// dimension rows with attr < kAttrStep * (i + 1).
constexpr std::size_t kAdhocDimRows = 1'000'000;
constexpr std::int64_t kAttrValues = 64;
constexpr std::size_t kAdhocQueries = 16;
constexpr std::int64_t kAttrStep = kAttrValues / kAdhocQueries;

const std::vector<WorkloadSpec> kWorkloads = {
    {"hot-probe",
     "probe dominant",
     DataKind::kSsb, 1'000'000, pump::plan::PlacementPolicy::kCpuOnly,
     2, 8, 512 * kMiB, 2, 2},
    {"staged-probe",
     "transfer.stage dominant",
     DataKind::kSsb, 200'000, pump::plan::PlacementPolicy::kGpuPreferred,
     2, 8, 512 * kMiB, 2, 2},
    {"adhoc-build",
     "build + compile dominant",
     DataKind::kAdhocJoin, 200'000, pump::plan::PlacementPolicy::kCpuOnly,
     2, 8, 64 * kMiB, 2, 2},
    {"short-queries",
     "time outside the pipelines: p50 at least 2x solo ExecutePlan",
     DataKind::kSsb, 100'000, pump::plan::PlacementPolicy::kCpuOnly,
     2, 8, 512 * kMiB, 4, 2},
};

void AddColumn(pe::Table* table, const char* name,
               std::vector<std::int64_t> values) {
  // Column names are fixed and distinct, lengths equal by construction.
  (void)table->AddColumn(name, std::move(values));
}

bool Compare(pump::ops::CompareOp op, std::int64_t value,
             std::int64_t literal) {
  switch (op) {
    case pump::ops::CompareOp::kLt:
      return value < literal;
    case pump::ops::CompareOp::kLe:
      return value <= literal;
    case pump::ops::CompareOp::kEq:
      return value == literal;
    case pump::ops::CompareOp::kGe:
      return value >= literal;
    case pump::ops::CompareOp::kGt:
      return value > literal;
    case pump::ops::CompareOp::kNe:
      return value != literal;
  }
  return false;
}

const std::vector<std::int64_t>& Column(const pe::Table& table,
                                        const std::string& name) {
  return *table.Column(name).value();
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

pump::server::EngineOptions EngineOptionsFor(const WorkloadSpec& spec) {
  pump::server::EngineOptions options;
  options.session_threads = spec.session_threads;
  options.queue_capacity = spec.queue_capacity;
  options.cache_capacity_bytes = spec.cache_capacity_bytes;
  options.policy = spec.policy;
  return options;
}

pump::plan::CompileOptions CompileOptionsFor(const WorkloadSpec& spec) {
  pump::plan::CompileOptions options;
  options.policy = spec.policy;
  return options;
}

std::unique_ptr<Dataset> Dataset::Load(const WorkloadSpec& spec,
                                       std::uint64_t seed) {
  std::unique_ptr<Dataset> data(new Dataset());
  if (spec.data == DataKind::kSsb) {
    data->ssb_ = pe::SsbDatabase::Generate(spec.fact_rows, seed);
    for (pe::NamedQuery& named : pe::SsbSuite(data->ssb_)) {
      data->types_.push_back({named.name, std::move(named.query)});
    }
    return data;
  }

  // Ad-hoc join: dense dimension keys in row order (so the compiler picks
  // the perfect table), seeded uniform attributes and foreign keys.
  std::mt19937_64 rng(seed);
  std::vector<std::int64_t> keys(kAdhocDimRows);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<std::int64_t> attr(kAdhocDimRows);
  for (std::int64_t& value : attr) {
    value = static_cast<std::int64_t>(rng() % kAttrValues);
  }
  AddColumn(&data->dim_, "d_key", std::move(keys));
  AddColumn(&data->dim_, "d_attr", std::move(attr));

  std::vector<std::int64_t> fk(spec.fact_rows), measure(spec.fact_rows);
  for (std::size_t i = 0; i < spec.fact_rows; ++i) {
    fk[i] = static_cast<std::int64_t>(rng() % kAdhocDimRows);
    measure[i] = static_cast<std::int64_t>(1 + rng() % 1000);
  }
  AddColumn(&data->fact_, "f_dimkey", std::move(fk));
  AddColumn(&data->fact_, "f_measure", std::move(measure));

  for (std::size_t i = 0; i < kAdhocQueries; ++i) {
    const std::int64_t k = kAttrStep * static_cast<std::int64_t>(i + 1);
    pe::Query query;
    query.fact = &data->fact_;
    pe::JoinClause join;
    join.fact_key_column = "f_dimkey";
    join.dimension = &data->dim_;
    join.dim_key_column = "d_key";
    join.dim_filter = {"d_attr", pump::ops::CompareOp::kLt, k};
    join.has_dim_filter = true;
    query.joins.push_back(join);
    query.measure_column = "f_measure";
    data->types_.push_back({"attr<" + std::to_string(k), std::move(query)});
  }
  return data;
}

pe::QueryResult OracleResult(const pe::Query& query) {
  // Qualifying dimension keys per join, sorted for binary search.
  std::vector<std::vector<std::int64_t>> members;
  for (const pe::JoinClause& join : query.joins) {
    const auto& keys = Column(*join.dimension, join.dim_key_column);
    const std::vector<std::int64_t>* filter =
        join.has_dim_filter ? &Column(*join.dimension, join.dim_filter.column)
                            : nullptr;
    std::vector<std::int64_t> kept;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (filter == nullptr ||
          Compare(join.dim_filter.op, (*filter)[i], join.dim_filter.literal)) {
        kept.push_back(keys[i]);
      }
    }
    std::sort(kept.begin(), kept.end());
    members.push_back(std::move(kept));
  }

  std::vector<const std::vector<std::int64_t>*> filters;
  for (const pe::Filter& filter : query.filters) {
    filters.push_back(&Column(*query.fact, filter.column));
  }
  std::vector<const std::vector<std::int64_t>*> fact_keys;
  for (const pe::JoinClause& join : query.joins) {
    fact_keys.push_back(&Column(*query.fact, join.fact_key_column));
  }
  const auto& measure = Column(*query.fact, query.measure_column);

  pe::QueryResult result;
  for (std::size_t row = 0; row < query.fact->rows(); ++row) {
    bool keep = true;
    for (std::size_t f = 0; keep && f < filters.size(); ++f) {
      keep = Compare(query.filters[f].op, (*filters[f])[row],
                     query.filters[f].literal);
    }
    for (std::size_t j = 0; keep && j < members.size(); ++j) {
      keep = std::binary_search(members[j].begin(), members[j].end(),
                                (*fact_keys[j])[row]);
    }
    if (!keep) continue;
    ++result.rows;
    result.sum += measure[row];
  }
  return result;
}

}  // namespace perfbench
