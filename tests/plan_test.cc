// Tests of the physical-plan IR: the golden equivalence suite (every SSB
// query must equal an independent reference oracle across worker counts
// and under injected faults, with each fault scenario's ladder outcome
// pinned), edge inputs against the same oracle, the compiler's
// hash-table/placement choices, compile-time validation with query-shape
// diagnostics, the structural plan self-check, build-pipeline caching
// across the degradation ladder, and the JSON dump.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/tpch.h"
#include "engine/executor.h"
#include "engine/ssb.h"
#include "engine/table.h"
#include "fault/fault_injector.h"
#include "gtest/gtest.h"
#include "hw/system_profile.h"
#include "hw/topology.h"
#include "oracle.h"
#include "ops/q6.h"
#include "plan/compiler.h"
#include "plan/dump.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "plan/q6_bridge.h"

namespace pump::plan {
namespace {

using test::Oracle;

// ---------------------------------------------------------------------
// Golden equivalence: plan IR vs the oracle, with pinned ladder outcomes.

/// One fault scenario of the golden suite. `Arm` configures a fresh
/// injector with the scenario's seed, so every run observes the same
/// deterministic fault schedule; `used_gpu`/`degraded` pin the ladder
/// outcome the scenario must produce.
struct FaultScenario {
  const char* name;
  std::uint64_t seed;  // 0 = no injector.
  void (*arm)(fault::FaultInjector*);
  void (*tune)(engine::ExecOptions*);
  bool used_gpu;
  bool degraded;
};

void ArmTransientTransfer(fault::FaultInjector* injector) {
  fault::FaultSpec spec;
  spec.probability = 0.2;
  injector->Arm(fault::kTransferChunk, spec);
}

void TuneTransientTransfer(engine::ExecOptions* options) {
  options->chunk_bytes = 8 * 1024;
  options->retry.max_attempts = 30;
}

void ArmDeviceOom(fault::FaultInjector* injector) {
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kResourceExhausted;
  injector->Arm(fault::kAllocDevice, spec);
}

void ArmGroupStall(fault::FaultInjector* injector) {
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.after_hits = 2;
  spec.max_fires = 1;
  injector->Arm(fault::kSchedWorkerStall, spec);
}

void TuneGroupStall(engine::ExecOptions* options) {
  options->morsel_tuples = 500;
}

// Transient transfer faults retry below the ladder (no degradation);
// device OOM spills the hash tables and a stalled group fails over, both
// degraded but still GPU-executed.
const FaultScenario kScenarios[] = {
    {"fault_free", 0, nullptr, nullptr, true, false},
    {"transient_transfer", 51, ArmTransientTransfer, TuneTransientTransfer,
     true, false},
    {"device_oom", 52, ArmDeviceOom, nullptr, true, true},
    {"group_stall", 53, ArmGroupStall, TuneGroupStall, true, true},
};

/// Transfer-fault counts `transient_transfer` reports per query. The
/// seeded schedule meets the probe's column chunks in bind order, before
/// any worker starts, so they replay exactly at every worker count.
struct TransferFaultCounts {
  std::uint64_t transfer_retries;
  std::uint64_t faults_injected;
};
const std::map<std::string, TransferFaultCounts> kTransientTransferCounts = {
    {"ssb-q1", {24, 24}},
    {"ssb-q2", {10, 10}},
    {"ssb-q3", {24, 24}},
};

class GoldenEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new engine::SsbDatabase(engine::SsbDatabase::Generate(20'000, 17));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static const engine::SsbDatabase* db_;
};

const engine::SsbDatabase* GoldenEquivalenceTest::db_ = nullptr;

TEST_F(GoldenEquivalenceTest, SsbSuiteMatchesOracleAcrossWorkersAndFaults) {
  for (const engine::NamedQuery& named : engine::SsbSuite(*db_)) {
    const engine::QueryResult expected = Oracle(named.query);
    for (const std::size_t workers : {1u, 2u, 4u}) {
      {
        SCOPED_TRACE(std::string(named.name) +
                     " workers=" + std::to_string(workers) + " plain");
        const auto plain = engine::Executor::Run(named.query, workers);
        ASSERT_TRUE(plain.ok()) << plain.status();
        EXPECT_EQ(plain.value(), expected);
      }
      for (const FaultScenario& scenario : kScenarios) {
        SCOPED_TRACE(std::string(named.name) +
                     " workers=" + std::to_string(workers) + " " +
                     scenario.name);
        engine::ExecOptions options;
        options.workers = workers;
        options.morsel_tuples = 1'000;
        if (scenario.tune != nullptr) scenario.tune(&options);
        fault::FaultInjector injector(scenario.seed);
        if (scenario.arm != nullptr) {
          scenario.arm(&injector);
          options.injector = &injector;
        }
        const auto report =
            engine::Executor::RunResilient(named.query, options);
        ASSERT_TRUE(report.ok()) << report.status();
        EXPECT_EQ(report.value().result, expected);
        EXPECT_EQ(report.value().used_gpu, scenario.used_gpu);
        EXPECT_EQ(report.value().degraded, scenario.degraded);
        if (std::string(scenario.name) == "transient_transfer") {
          const TransferFaultCounts& counts =
              kTransientTransferCounts.at(named.name);
          EXPECT_EQ(report.value().transfer_retries, counts.transfer_retries);
          EXPECT_EQ(report.value().faults_injected, counts.faults_injected);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Edge inputs: small hand-built one-join queries against the oracle,
// under both the CPU and the GPU placement.

constexpr PlacementPolicy kEdgePolicies[] = {PlacementPolicy::kCpuOnly,
                                             PlacementPolicy::kGpuPreferred};

/// Fills `fact` (f_key, f_measure = 1, 2, 4, ...) and `dim` (d_key, plus
/// d_flag when `dim_flags` is non-empty) and returns
///   SELECT SUM(f_measure) FROM fact JOIN dim ON f_key = d_key
///   [WHERE d_flag = 1].
engine::Query OneJoinQuery(engine::Table* fact, engine::Table* dim,
                           const std::vector<std::int64_t>& fact_keys,
                           const std::vector<std::int64_t>& dim_keys,
                           const std::vector<std::int64_t>& dim_flags) {
  std::vector<std::int64_t> measure;
  for (std::size_t i = 0; i < fact_keys.size(); ++i) {
    measure.push_back(std::int64_t{1} << i);
  }
  EXPECT_TRUE(fact->AddColumn("f_key", fact_keys).ok());
  EXPECT_TRUE(fact->AddColumn("f_measure", measure).ok());
  EXPECT_TRUE(dim->AddColumn("d_key", dim_keys).ok());
  engine::JoinClause join;
  join.fact_key_column = "f_key";
  join.dimension = dim;
  join.dim_key_column = "d_key";
  if (!dim_flags.empty()) {
    EXPECT_TRUE(dim->AddColumn("d_flag", dim_flags).ok());
    join.dim_filter = {"d_flag", ops::CompareOp::kEq, 1};
    join.has_dim_filter = true;
  }
  engine::Query query;
  query.fact = fact;
  query.measure_column = "f_measure";
  query.joins.push_back(join);
  return query;
}

/// Compiles `query` under `policy` and executes it with two workers.
Result<engine::QueryResult> RunUnderPolicy(const engine::Query& query,
                                           PlacementPolicy policy) {
  CompileOptions compile_options;
  compile_options.policy = policy;
  PUMP_ASSIGN_OR_RETURN(const PhysicalPlan plan,
                        Compile(query, compile_options));
  engine::ExecOptions options;
  options.workers = 2;
  PUMP_ASSIGN_OR_RETURN(const engine::ExecReport report,
                        ExecutePlan(plan, options));
  return report.result;
}

TEST(EdgeInputTest, HandBuiltQueriesMatchOracle) {
  struct Case {
    const char* name;
    std::vector<std::int64_t> fact_keys;
    std::vector<std::int64_t> dim_keys;
    std::vector<std::int64_t> dim_flags;  // Empty = no dimension filter.
  };
  const Case cases[] = {
      {"empty fact table", {}, {1, 2}, {}},
      {"empty dimension", {1, 2, 3}, {}, {}},
      {"filter keeps no dimension row", {0, 1, 2, 1}, {0, 1, 2}, {0, 0, 0}},
      {"duplicates only among filtered-out rows",
       {5, 6, 9, 6, 5},
       {5, 6, 6, 9, 9},
       {1, 1, 0, 0, 0}},
      {"negative keys other than -1", {-5, -2, 3, -7, -2}, {-5, -2, 3, 8}, {}},
  };
  for (const Case& c : cases) {
    engine::Table fact;
    engine::Table dim;
    const engine::Query query =
        OneJoinQuery(&fact, &dim, c.fact_keys, c.dim_keys, c.dim_flags);
    const engine::QueryResult expected = Oracle(query);
    for (const PlacementPolicy policy : kEdgePolicies) {
      SCOPED_TRACE(std::string(c.name) +
                   (policy == PlacementPolicy::kCpuOnly ? " cpu" : " gpu"));
      const auto got = RunUnderPolicy(query, policy);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got.value(), expected);
    }
  }

  // A key that qualifies twice has no semi-join answer: the build fails.
  engine::Table fact;
  engine::Table dim;
  const engine::Query duplicate =
      OneJoinQuery(&fact, &dim, {4, 5}, {4, 4, 5}, {});
  for (const PlacementPolicy policy : kEdgePolicies) {
    EXPECT_EQ(RunUnderPolicy(duplicate, policy).status().code(),
              StatusCode::kAlreadyExists);
  }
}

TEST(EdgeInputTest, SentinelDimensionKeyFailsInsteadOfDroppingRows) {
  // -1 is the linear-probing empty-slot sentinel. Storing it would claim
  // a slot that lookups still read as empty and drop both -1 fact rows
  // (rows=1 sum=2 instead of the oracle's rows=3 sum=7), so the build
  // must fail instead.
  engine::Table fact;
  engine::Table dim;
  const engine::Query query =
      OneJoinQuery(&fact, &dim, {-1, 3, -1, 7}, {-1, 3}, {});
  EXPECT_EQ(Oracle(query), (engine::QueryResult{3, 1 + 2 + 4}));
  for (const PlacementPolicy policy : kEdgePolicies) {
    EXPECT_EQ(RunUnderPolicy(query, policy).status().code(),
              StatusCode::kInvalidArgument);
  }

  // Only qualifying keys reach the table: a -1 in a filtered-out
  // dimension row is harmless.
  engine::Table filtered_fact;
  engine::Table filtered_dim;
  const engine::Query filtered = OneJoinQuery(
      &filtered_fact, &filtered_dim, {-1, 3, -1, 7}, {-1, 3}, {0, 1});
  for (const PlacementPolicy policy : kEdgePolicies) {
    const auto got = RunUnderPolicy(filtered, policy);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), Oracle(filtered));
  }
}

TEST(Q6EquivalenceTest, PlanPathMatchesEveryQ6Kernel) {
  const data::LineitemQ6 lineitem = data::GenerateLineitemQ6(50'000, 7);
  const ops::Q6Result branching = ops::RunQ6Branching(lineitem);
  const ops::Q6Result predicated = ops::RunQ6Predicated(lineitem);
  ASSERT_EQ(branching, predicated);

  const Q6PlanInput input = Q6PlanInput::From(lineitem);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto via_plan = RunQ6Plan(input, workers);
    ASSERT_TRUE(via_plan.ok()) << via_plan.status();
    EXPECT_EQ(via_plan.value(), branching);
    EXPECT_EQ(via_plan.value(),
              ops::RunQ6BranchingParallel(lineitem, workers));
  }
}

// ---------------------------------------------------------------------
// Compiler: hash-table selection and placements.

class CompilerTest : public ::testing::Test {
 protected:
  // The compiled plan holds a pointer to its query, so the queries must
  // outlive every plan a test compiles — they live in the fixture.
  void SetUp() override {
    db_ = engine::SsbDatabase::Generate(5'000, 3);
    q1_ = engine::SsbQ1(db_);
    q2_ = engine::SsbQ2(db_);
    q3_ = engine::SsbQ3(db_);
  }

  engine::SsbDatabase db_;
  engine::Query q1_;
  engine::Query q2_;
  engine::Query q3_;
};

TEST_F(CompilerTest, DenseKeyDimensionSelectsPerfectHashTable) {
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  const auto plan = Compile(q1_, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan.value().builds.size(), 1u);
  const BuildPipeline& build = plan.value().builds[0];
  // d_datekey is a dense [0, 2555) domain.
  EXPECT_EQ(build.table_kind, HashTableKind::kPerfect);
  EXPECT_GE(build.keys.density, 0.5);
  EXPECT_EQ(build.placement, PipelinePlacement::kGpu);
  EXPECT_EQ(plan.value().probe.placement,
            PipelinePlacement::kHeterogeneous);
  EXPECT_GT(build.table_bytes, 0u);
}

TEST_F(CompilerTest, DenseKeysBeyondGpuBudgetSelectHybrid) {
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  options.gpu_budget_bytes = 1024;  // Far below any date table.
  const auto plan = Compile(q1_, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan.value().builds.size(), 1u);
  EXPECT_EQ(plan.value().builds[0].table_kind, HashTableKind::kHybrid);
}

TEST_F(CompilerTest, SparseKeyDimensionSelectsLinearProbing) {
  engine::Table fact;
  ASSERT_TRUE(fact.AddColumn("f_key", {10, 900'000, 10, 7}).ok());
  ASSERT_TRUE(fact.AddColumn("f_measure", {1, 2, 3, 4}).ok());
  engine::Table dim;
  ASSERT_TRUE(dim.AddColumn("d_key", {10, 900'000}).ok());

  engine::Query query;
  query.fact = &fact;
  query.measure_column = "f_measure";
  engine::JoinClause join;
  join.fact_key_column = "f_key";
  join.dimension = &dim;
  join.dim_key_column = "d_key";
  query.joins.push_back(join);

  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  const auto plan = Compile(query, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan.value().builds.size(), 1u);
  EXPECT_EQ(plan.value().builds[0].table_kind,
            HashTableKind::kLinearProbing);
  EXPECT_LT(plan.value().builds[0].keys.density, 0.5);

  // The sparse plan still executes correctly (rows 10, 10, and the
  // 900'000 match; 7 does not).
  const auto result = engine::Executor::Run(query, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows, 3u);
  EXPECT_EQ(result.value().sum, 1 + 2 + 3);
}

TEST_F(CompilerTest, CpuOnlyPolicyPlacesEveryPipelineOnCpu) {
  const auto plan = Compile(q3_);  // Default: kCpuOnly.
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan.value().UsesGpu());
  EXPECT_EQ(plan.value().probe.placement, PipelinePlacement::kCpu);
  for (const BuildPipeline& build : plan.value().builds) {
    EXPECT_EQ(build.placement, PipelinePlacement::kCpu);
  }
}

TEST_F(CompilerTest, CostModelPolicyRecordsRationaleAndCosts) {
  CompileOptions options;
  options.policy = PlacementPolicy::kCostModel;
  options.scale = 100.0;  // Paper-scale cardinalities for the model.
  const auto plan = Compile(q2_, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan.value().rationale.empty());
  EXPECT_GT(plan.value().probe.modelled_cost_s, 0.0);
  for (const BuildPipeline& build : plan.value().builds) {
    EXPECT_GT(build.modelled_cost_s, 0.0);
  }
  // Whatever the model picked must execute to the reference result.
  const auto report = ExecutePlan(plan.value(), {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().result, Oracle(q2_));
}

TEST_F(CompilerTest, ProbeOperatorsAreFiltersThenProbesThenAggregate) {
  const auto plan = Compile(q3_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::vector<Operator>& ops = plan.value().probe.ops;
  // Q3: one fact filter, three joins, one aggregate.
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0].kind, OpKind::kScanFilter);
  EXPECT_EQ(ops[1].kind, OpKind::kProbe);
  EXPECT_EQ(ops[2].kind, OpKind::kProbe);
  EXPECT_EQ(ops[3].kind, OpKind::kProbe);
  EXPECT_EQ(ops[4].kind, OpKind::kAggregate);
  EXPECT_EQ(ops[1].build_index, 0u);
  EXPECT_EQ(ops[2].build_index, 1u);
  EXPECT_EQ(ops[3].build_index, 2u);
}

// ---------------------------------------------------------------------
// Validation: exactly once, at compile time, with the query shape.

TEST_F(CompilerTest, ValidationErrorCarriesQueryShape) {
  engine::Query query = engine::SsbQ1(db_);
  query.measure_column = "no_such_column";
  const auto plan = Compile(query);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
  EXPECT_NE(plan.status().ToString().find("query shape:"),
            std::string::npos);
  EXPECT_NE(plan.status().ToString().find("filters=3"), std::string::npos)
      << plan.status().ToString();

  // The facade surfaces the same compile-time error (not masked by any
  // fallback), shape included.
  engine::ExecOptions options;
  options.workers = 2;
  const auto report = engine::Executor::RunResilient(query, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
  EXPECT_NE(report.status().ToString().find("query shape:"),
            std::string::npos);
}

TEST_F(CompilerTest, NullFactTableFailsCompilation) {
  engine::Query query;
  query.measure_column = "m";
  const auto plan = Compile(query);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// ValidatePlan: structural self-check.

TEST_F(CompilerTest, ValidatePlanAcceptsCompiledPlans) {
  for (const engine::NamedQuery& named : engine::SsbSuite(db_)) {
    CompileOptions options;
    options.policy = PlacementPolicy::kGpuPreferred;
    const auto plan = Compile(named.query, options);
    ASSERT_TRUE(plan.ok()) << named.name << ": " << plan.status();
    EXPECT_TRUE(ValidatePlan(plan.value()).ok()) << named.name;
  }
}

TEST_F(CompilerTest, ValidatePlanRejectsStructuralCorruption) {
  const auto compiled = Compile(q1_);
  ASSERT_TRUE(compiled.ok());

  {  // Missing aggregate.
    PhysicalPlan plan = compiled.value();
    plan.probe.ops.pop_back();
    EXPECT_FALSE(ValidatePlan(plan).ok());
  }
  {  // Probe referencing a nonexistent build pipeline.
    PhysicalPlan plan = compiled.value();
    for (Operator& op : plan.probe.ops) {
      if (op.kind == OpKind::kProbe) op.build_index = 99;
    }
    EXPECT_FALSE(ValidatePlan(plan).ok());
  }
  {  // Perfect hash table over sparse keys.
    PhysicalPlan plan = compiled.value();
    plan.builds[0].keys.density = 0.1;
    plan.builds[0].table_kind = HashTableKind::kPerfect;
    EXPECT_FALSE(ValidatePlan(plan).ok());
  }
  {  // Operator stage ordering violated (aggregate before a probe).
    PhysicalPlan plan = compiled.value();
    std::swap(plan.probe.ops.front(), plan.probe.ops.back());
    EXPECT_FALSE(ValidatePlan(plan).ok());
  }
  {  // Build pipeline count out of sync with the query's joins.
    PhysicalPlan plan = compiled.value();
    plan.builds.clear();
    EXPECT_FALSE(ValidatePlan(plan).ok());
  }
}

// ---------------------------------------------------------------------
// Build caching across the degradation ladder.

TEST_F(CompilerTest, ProbeFailureReusesCachedBuildsInsteadOfRebuilding) {
  const engine::Query query = engine::SsbQ3(db_);  // Three joins.
  fault::FaultInjector injector(61);
  fault::FaultSpec spec;
  spec.probability = 1.0;  // Every pipeline's GPU stage fails.
  injector.Arm(fault::kPlanPipeline, spec);

  engine::ExecOptions options;
  options.workers = 2;
  options.morsel_tuples = 1'000;
  options.injector = &injector;
  const auto report = engine::Executor::RunResilient(query, options);
  ASSERT_TRUE(report.ok()) << report.status();

  // The probe pipeline lost its GPU placement, but the three dimension
  // hash tables were built exactly once and reused by the CPU
  // re-placement — the seed rebuilt them from scratch.
  EXPECT_FALSE(report.value().used_gpu);
  EXPECT_TRUE(report.value().degraded);
  EXPECT_EQ(report.value().dim_tables_built, 3u);
  EXPECT_EQ(report.value().dim_tables_reused, 3u);
  EXPECT_NE(report.value().degradation_reason.find("fell back to CPU"),
            std::string::npos);
  EXPECT_EQ(report.value().result, Oracle(query));
}

TEST_F(CompilerTest, GpuOomSpillDoesNotDiscardBuilds) {
  const engine::Query query = engine::SsbQ2(db_);  // Two joins.
  fault::FaultInjector injector(62);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kResourceExhausted;
  injector.Arm(fault::kAllocDevice, spec);

  engine::ExecOptions options;
  options.workers = 2;
  options.injector = &injector;
  const auto report = engine::Executor::RunResilient(query, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().used_gpu);  // Spill, not fallback.
  EXPECT_EQ(report.value().dim_tables_built, 2u);
  EXPECT_EQ(report.value().dim_tables_reused, 0u);
  EXPECT_EQ(report.value().result, Oracle(query));
}

// ---------------------------------------------------------------------
// JSON dump.

TEST_F(CompilerTest, ToJsonDescribesPipelinesAndChoices) {
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  const auto plan = Compile(q1_, options);
  ASSERT_TRUE(plan.ok());
  const std::string json = ToJson(plan.value(), "ssb-q1");
  EXPECT_NE(json.find("\"query\":\"ssb-q1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_table\":\"perfect\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"placement\":\"heterogeneous\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"op\":\"aggregate\""), std::string::npos) << json;

  options.gpu_budget_bytes = 1024;
  const auto hybrid_plan = Compile(q1_, options);
  ASSERT_TRUE(hybrid_plan.ok());
  EXPECT_NE(ToJson(hybrid_plan.value(), "ssb-q1")
                .find("\"hash_table\":\"hybrid\""),
            std::string::npos);
}

TEST_F(CompilerTest, SaturatedDevicePoolDroppedFromShardSet) {
  const hw::SystemProfile ring = hw::NvlinkRingProfile(4);
  CompileOptions options;
  options.policy = PlacementPolicy::kGpuPreferred;
  options.profile = &ring;
  options.shard_devices = ring.topology.DevicesOfKind(hw::DeviceKind::kGpu);
  options.gpu_budget_bytes = 1ull << 20;

  // Device 3's pool already holds more than the whole budget: it must be
  // dropped from the shard set; the other three shards proceed.
  std::map<hw::DeviceId, std::uint64_t> in_use{{3, 2ull << 20}};
  options.device_budget_in_use = &in_use;
  const auto plan = Compile(q2_, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().shard.devices, (DeviceSet{1, 2, 4}));
  EXPECT_NE(plan.value().rationale.find("dropped from shard set"),
            std::string::npos)
      << plan.value().rationale;

  // Every pool saturated: the whole plan degrades to CPU.
  for (const hw::DeviceId device : options.shard_devices) {
    in_use[device] = 2ull << 20;
  }
  const auto cpu_plan = Compile(q2_, options);
  ASSERT_TRUE(cpu_plan.ok()) << cpu_plan.status();
  EXPECT_FALSE(cpu_plan.value().UsesGpu());
  EXPECT_TRUE(cpu_plan.value().forced_cpu_by_pressure);
  EXPECT_TRUE(cpu_plan.value().shard.devices.empty());

  // A single-GPU plan's one candidate is the primary GPU: its saturated
  // pool forces the plan onto the CPU, where the date table stays perfect
  // although it exceeds the budget.
  CompileOptions single;
  single.policy = PlacementPolicy::kGpuPreferred;
  single.gpu_budget_bytes = 1024;
  const std::map<hw::DeviceId, std::uint64_t> primary_full{{hw::kGpu0, 2048}};
  single.device_budget_in_use = &primary_full;
  const auto forced = Compile(q1_, single);
  ASSERT_TRUE(forced.ok()) << forced.status();
  EXPECT_TRUE(forced.value().forced_cpu_by_pressure);
  EXPECT_FALSE(forced.value().UsesGpu());
  EXPECT_EQ(forced.value().builds[0].table_kind, HashTableKind::kPerfect);
}

TEST_F(CompilerTest, CpuPlacedBuildsNeverSelectHybrid) {
  // The cost model keeps these small queries on the CPU; the budget is
  // below every date table. A hybrid table spills a GPU table into CPU
  // memory, so a build the cost model placed on the CPU is never hybrid.
  CompileOptions options;
  options.policy = PlacementPolicy::kCostModel;
  options.gpu_budget_bytes = 1000;
  for (const engine::Query* query : {&q1_, &q3_}) {
    const auto plan = Compile(*query, options);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_FALSE(plan.value().UsesGpu()) << plan.value().rationale;
    for (const BuildPipeline& build : plan.value().builds) {
      EXPECT_NE(build.table_kind, HashTableKind::kHybrid) << build.key_column;
    }
  }
}

// ---------------------------------------------------------------------
// Sharded execution over N-GPU meshes: every sharded plan must stay
// bit-identical to the single-device plan, across mesh shapes, worker
// counts, and shard-level device loss.

class ShardedMeshTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new engine::SsbDatabase(engine::SsbDatabase::Generate(20'000, 17));
    ring4_ = new hw::SystemProfile(hw::NvlinkRingProfile(4));
    crossbar8_ = new hw::SystemProfile(hw::NvSwitchCrossbarProfile(8));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete ring4_;
    delete crossbar8_;
    db_ = nullptr;
    ring4_ = nullptr;
    crossbar8_ = nullptr;
  }

  static CompileOptions ShardedOptions(const hw::SystemProfile* profile) {
    CompileOptions options;
    options.policy = PlacementPolicy::kGpuPreferred;
    if (profile != nullptr) {
      options.profile = profile;
      options.shard_devices =
          profile->topology.DevicesOfKind(hw::DeviceKind::kGpu);
    }
    return options;
  }

  static const engine::SsbDatabase* db_;
  static const hw::SystemProfile* ring4_;
  static const hw::SystemProfile* crossbar8_;
};

const engine::SsbDatabase* ShardedMeshTest::db_ = nullptr;
const hw::SystemProfile* ShardedMeshTest::ring4_ = nullptr;
const hw::SystemProfile* ShardedMeshTest::crossbar8_ = nullptr;

TEST_F(ShardedMeshTest, ShardedPlansMatchSingleDeviceAcrossMeshesAndWorkers) {
  const data::LineitemQ6 lineitem = data::GenerateLineitemQ6(20'000, 7);
  const Q6PlanInput q6_input = Q6PlanInput::From(lineitem);
  std::vector<std::pair<std::string, engine::Query>> queries;
  for (const engine::NamedQuery& named : engine::SsbSuite(*db_)) {
    queries.emplace_back(named.name, named.query);
  }
  queries.emplace_back("q6", q6_input.MakeQuery());

  struct Mesh {
    const char* name;
    const hw::SystemProfile* profile;
    std::size_t shards;
  };
  const Mesh meshes[] = {{"single", nullptr, 1},
                         {"ring-4", ring4_, 4},
                         {"crossbar-8", crossbar8_, 8}};

  for (const auto& [name, query] : queries) {
    const auto reference_plan = Compile(query, ShardedOptions(nullptr));
    ASSERT_TRUE(reference_plan.ok()) << name << ": "
                                     << reference_plan.status();
    engine::ExecOptions reference_exec;
    reference_exec.workers = 2;
    const auto reference = ExecutePlan(reference_plan.value(),
                                       reference_exec);
    ASSERT_TRUE(reference.ok()) << name << ": " << reference.status();
    EXPECT_EQ(reference.value().result, Oracle(query)) << name;

    for (const Mesh& mesh : meshes) {
      const auto plan = Compile(query, ShardedOptions(mesh.profile));
      ASSERT_TRUE(plan.ok()) << name << ": " << plan.status();
      if (mesh.profile != nullptr) {
        ASSERT_EQ(plan.value().shard.shard_count(), mesh.shards);
        EXPECT_TRUE(plan.value().shard.active());
      }
      for (const std::size_t workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(name + std::string(" mesh=") + mesh.name +
                     " workers=" + std::to_string(workers));
        engine::ExecOptions exec;
        exec.workers = workers;
        const auto sharded = ExecutePlan(plan.value(), exec);
        ASSERT_TRUE(sharded.ok()) << sharded.status();
        EXPECT_EQ(sharded.value().result, reference.value().result);
        EXPECT_EQ(sharded.value().shards_replaced, 0u);
        EXPECT_TRUE(sharded.value().used_gpu);
        if (mesh.profile != nullptr) {
          // One exchange row plus one probe row per shard.
          EXPECT_EQ(sharded.value().shards.size(), mesh.shards + 1);
        }
      }
    }
  }
}

TEST_F(ShardedMeshTest, DeviceOomOnOneShardDegradesOnlyThatShard) {
  const data::LineitemQ6 lineitem = data::GenerateLineitemQ6(20'000, 7);
  const Q6PlanInput q6_input = Q6PlanInput::From(lineitem);
  const engine::Query query = q6_input.MakeQuery();

  const auto reference_plan = Compile(query, ShardedOptions(nullptr));
  ASSERT_TRUE(reference_plan.ok()) << reference_plan.status();
  engine::ExecOptions reference_exec;
  reference_exec.workers = 2;
  const auto reference = ExecutePlan(reference_plan.value(),
                                     reference_exec);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (const hw::SystemProfile* profile : {ring4_, crossbar8_}) {
    SCOPED_TRACE(profile->name);
    const auto plan = Compile(query, ShardedOptions(profile));
    ASSERT_TRUE(plan.ok()) << plan.status();

    // Q6 has no build pipelines, so the plan.pipeline site sees one
    // "probe" hit then one "shard" hit per shard; after_hits=1 with one
    // allowed fire OOMs exactly the second shard's device admission.
    fault::FaultInjector injector(11);
    fault::FaultSpec spec;
    spec.probability = 1.0;
    spec.after_hits = 1;
    spec.max_fires = 1;
    spec.code = StatusCode::kResourceExhausted;
    injector.Arm(fault::kPlanPipeline, spec);

    engine::ExecOptions exec;
    exec.workers = 2;
    exec.injector = &injector;
    const auto sharded = ExecutePlan(plan.value(), exec);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    EXPECT_EQ(sharded.value().result, reference.value().result);
    EXPECT_EQ(sharded.value().shards_replaced, 1u);
    EXPECT_TRUE(sharded.value().used_gpu);
    EXPECT_TRUE(sharded.value().degraded);

    std::size_t cpu_shards = 0;
    for (const engine::PipelineOutcome& row : sharded.value().shards) {
      if (row.kind == "probe" && row.placement_used == "cpu") ++cpu_shards;
    }
    EXPECT_EQ(cpu_shards, 1u);
  }
}

TEST_F(ShardedMeshTest, ProbeFaultOnShardedPlanDescendsToCpu) {
  const data::LineitemQ6 lineitem = data::GenerateLineitemQ6(20'000, 7);
  const Q6PlanInput q6_input = Q6PlanInput::From(lineitem);
  const engine::Query query = q6_input.MakeQuery();

  const auto plan = Compile(query, ShardedOptions(ring4_));
  ASSERT_TRUE(plan.ok()) << plan.status();

  fault::FaultInjector injector(13);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 1;
  spec.code = StatusCode::kResourceExhausted;
  injector.Arm(fault::kPlanPipeline, spec);

  engine::ExecOptions exec;
  exec.workers = 2;
  exec.injector = &injector;
  const auto sharded = ExecutePlan(plan.value(), exec);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_FALSE(sharded.value().used_gpu);

  engine::ExecOptions clean_exec;
  clean_exec.workers = 2;
  const auto reference = ExecutePlan(plan.value(), clean_exec);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(sharded.value().result, reference.value().result);
}

TEST_F(ShardedMeshTest, ShardedDumpCarriesDeviceSetsAndExchange) {
  const engine::Query q2 = engine::SsbQ2(*db_);
  const auto plan = Compile(q2, ShardedOptions(ring4_));
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::string json = ToJson(plan.value(), "ssb-q2");
  EXPECT_NE(json.find("\"device_set\":[1,2,3,4]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shard\":{\"devices\":[1,2,3,4],\"partitions\":4}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"exchange\":{\"modelled_cost_s\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"bottleneck_gib_s\":"), std::string::npos) << json;
  // 4 devices exchange over all 12 ordered pairs.
  std::size_t routes = 0;
  for (std::size_t pos = json.find("\"src\":"); pos != std::string::npos;
       pos = json.find("\"src\":", pos + 1)) {
    ++routes;
  }
  EXPECT_EQ(routes, 12u);

  // A single-device plan still records its one device; the shard
  // descriptor stays inactive (one partition, no exchange routes).
  const auto single = Compile(q2, ShardedOptions(nullptr));
  ASSERT_TRUE(single.ok());
  const std::string single_json = ToJson(single.value(), "ssb-q2");
  EXPECT_NE(single_json.find("\"shard\":{\"devices\":[2],\"partitions\":1}"),
            std::string::npos)
      << single_json;
  EXPECT_NE(single_json.find("\"routes\":[]"), std::string::npos)
      << single_json;
}

}  // namespace
}  // namespace pump::plan
