#include "verify/models.h"

#if defined(PUMP_VERIFY) && PUMP_VERIFY

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/cancel.h"
#include "common/status.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/table.h"
#include "exec/executor.h"
#include "exec/morsel.h"
#include "obs/trace.h"
#include "plan/build_cache.h"
#include "plan/compiler.h"
#include "plan/operators.h"
#include "plan/plan.h"
#include "server/query_engine.h"
#include "verify/mutation.h"
#include "verify/sync.h"

namespace pump::verify {

namespace {

// ---------------------------------------------------------------------
// Shared fixtures. Built once, outside any model run, and only ever read
// by model bodies — fixture state carries no verify:: primitives, so it
// adds no sequence points.

struct CacheFixture {
  engine::Table dim_a;
  engine::Table dim_b;
  engine::Table poison;
  plan::BuildPipeline good_a;
  plan::BuildPipeline good_b;
  plan::BuildPipeline bad;
};

plan::BuildPipeline PipelineFor(const engine::Table& dim,
                                std::uint64_t table_bytes) {
  plan::BuildPipeline build;
  build.dimension = &dim;
  build.key_column = "pk";
  build.table_kind = plan::HashTableKind::kLinearProbing;
  build.keys.rows = dim.rows();
  build.table_bytes = table_bytes;
  return build;
}

/// True when `key` is in `table`: a one-key semi-join probe.
bool Holds(const plan::DimensionTable& table, std::int64_t key) {
  std::int64_t value = 0;
  bool found = false;
  return table.ProbeBatch(&key, 1, &value, &found) == 1;
}

const CacheFixture& Cache() {
  static const CacheFixture* fixture = [] {
    auto* f = new CacheFixture();
    (void)f->dim_a.AddColumn("pk", {0, 1, 2, 3});
    (void)f->dim_b.AddColumn("pk", {10, 11, 12});
    // Duplicate key: DimensionTable::Build fails with kAlreadyExists.
    (void)f->poison.AddColumn("pk", {0, 1, 1});
    f->good_a = PipelineFor(f->dim_a, 64);
    f->good_b = PipelineFor(f->dim_b, 64);
    f->bad = PipelineFor(f->poison, 64);
    return f;
  }();
  return *fixture;
}

struct ServerFixture {
  engine::Table fact;
  engine::Table dim;
  engine::Query query;
  /// What admitting `query` charges each device pool under the engine's
  /// default options (kGpuPreferred on the AC922).
  std::map<hw::DeviceId, std::uint64_t> charge;
};

const ServerFixture& Server() {
  static const ServerFixture* fixture = [] {
    auto* f = new ServerFixture();
    (void)f->fact.AddColumn("fk", {0, 1, 2, 0, 1, 2});
    (void)f->fact.AddColumn("m", {1, 2, 3, 4, 5, 6});
    (void)f->dim.AddColumn("pk", {0, 1, 2});
    f->query.fact = &f->fact;
    // Move-assign dodges a GCC 12 -Wrestrict false positive on the
    // inlined literal assign.
    f->query.measure_column = std::string("m");
    f->query.joins.push_back(
        engine::JoinClause{"fk", &f->dim, "pk", {}, false});
    plan::CompileOptions gpu;
    gpu.policy = plan::PlacementPolicy::kGpuPreferred;
    f->charge = plan::EstimatedGpuFootprintPerDevice(
        plan::Compile(f->query, gpu).value());
    return f;
  }();
  return *fixture;
}

// ---------------------------------------------------------------------
// plan::BuildCache — single-flight handoff: concurrent misses on one key
// build once and agree on the table.

void BuildCacheSingleFlightModel() {
  plan::BuildCache cache(1 << 20);
  const plan::BuildPipeline& build = Cache().good_a;
  Result<std::shared_ptr<const plan::DimensionTable>> got_a =
      Status::Internal("unset");
  Thread worker([&] { got_a = cache.GetOrBuild(build); });
  Result<std::shared_ptr<const plan::DimensionTable>> got_b =
      cache.GetOrBuild(build);
  worker.join();

  VERIFY_INVARIANT(got_a.ok() && got_b.ok(),
                   "single-flight build of a valid pipeline failed");
  VERIFY_INVARIANT(got_a.value().get() == got_b.value().get(),
                   "concurrent misses on one key produced distinct tables");
  VERIFY_INVARIANT(got_a.value()->entries() == 4,
                   "built dimension table lost keys");
  const plan::BuildCache::Stats stats = cache.stats();
  VERIFY_INVARIANT(stats.entries == 1,
                   "one key must leave exactly one resident entry");
  VERIFY_INVARIANT(stats.single_flight_waits + 1 == stats.misses,
                   "miss accounting: every miss is one builder or one "
                   "single-flight wait");
}

// plan::BuildCache — failure propagation: a failed build reports its
// error to every concurrent requester (never the placeholder status) and
// clears the in-flight slot so a retry builds fresh.

void BuildCacheFailureModel() {
  plan::BuildCache cache(1 << 20);
  const plan::BuildPipeline& build = Cache().bad;
  Result<std::shared_ptr<const plan::DimensionTable>> got_a =
      Status::Internal("unset");
  Thread worker([&] { got_a = cache.GetOrBuild(build); });
  Result<std::shared_ptr<const plan::DimensionTable>> got_b =
      cache.GetOrBuild(build);
  worker.join();

  VERIFY_INVARIANT(!got_a.ok() && !got_b.ok(),
                   "poison build reported success");
  VERIFY_INVARIANT(got_a.status().code() == StatusCode::kAlreadyExists,
                   "waiter observed a placeholder status instead of the "
                   "builder's failure");
  VERIFY_INVARIANT(got_b.status().code() == StatusCode::kAlreadyExists,
                   "waiter observed a placeholder status instead of the "
                   "builder's failure");
  // The failed slot must be cleared: a retry is a fresh miss that fails
  // the same way, not a hit on a poisoned entry.
  Result<std::shared_ptr<const plan::DimensionTable>> retry =
      cache.GetOrBuild(build);
  VERIFY_INVARIANT(!retry.ok() &&
                       retry.status().code() == StatusCode::kAlreadyExists,
                   "retry after a failed build did not rebuild");
  VERIFY_INVARIANT(cache.stats().entries == 0,
                   "failed build left a resident entry");
}

// plan::BuildCache — eviction under concurrent inserts: capacity bounds
// resident bytes; evicted tables stay alive through outstanding handles.

void BuildCacheEvictionModel() {
  // Room for exactly one 64-byte entry: the second insert evicts the
  // first, whichever order the schedules choose.
  plan::BuildCache cache(64);
  const CacheFixture& fx = Cache();
  Result<std::shared_ptr<const plan::DimensionTable>> got_a =
      Status::Internal("unset");
  Thread worker([&] { got_a = cache.GetOrBuild(fx.good_a); });
  Result<std::shared_ptr<const plan::DimensionTable>> got_b =
      cache.GetOrBuild(fx.good_b);
  worker.join();

  VERIFY_INVARIANT(got_a.ok() && got_b.ok(), "eviction-model build failed");
  // The evicted table is still usable through the handle we hold.
  VERIFY_INVARIANT(Holds(*got_a.value(), 0) && Holds(*got_b.value(), 10),
                   "evicted table became unusable while a handle exists");
  const plan::BuildCache::Stats stats = cache.stats();
  VERIFY_INVARIANT(stats.resident_bytes <= cache.capacity_bytes(),
                   "resident bytes exceeded the cache capacity");
  VERIFY_INVARIANT(stats.entries <= 1, "capacity admits one entry at most");
}

// ---------------------------------------------------------------------
// common::CancelToken — the first latched cause is terminal: once any
// thread observed a terminal status it never changes, whatever races
// between user cancellation and deadline expiry.

void CancelLatchModel() {
  CancelToken token;
  token.SetDeadlineAfter(-1.0);  // Already expired: observers latch it.
  Status first = Status::OK();
  Thread canceller([&] {
    token.Cancel();
    first = token.ToStatus();
  });
  // Deadline observer: may latch kDeadlineExpired if it wins the race.
  (void)token.Cancelled();
  canceller.join();

  VERIFY_INVARIANT(!first.ok(), "cancelled token reported OK");
  const Status final_status = token.ToStatus();
  VERIFY_INVARIANT(final_status.code() == first.code(),
                   "terminal cancellation cause changed after it was "
                   "observed (latch must be first-cause-wins)");
}

// ---------------------------------------------------------------------
// exec::MorselDispatcher — exactly-once coverage: two claimants drain
// the cursor, one in GPU batches of two morsels (NextBatch) and one in
// single CPU morsels (Next), the mix RunHeterogeneous's groups produce;
// every tuple is handed out exactly once, never past total.

void MorselCoverageModel() {
  constexpr std::size_t kTotal = 10;
  constexpr std::size_t kMorsel = 3;
  exec::MorselDispatcher dispatcher(kTotal, kMorsel);
  std::vector<int> cover(kTotal, 0);
  auto drain = [&](std::size_t batch_morsels) {
    while (auto morsel = batch_morsels > 1
                             ? dispatcher.NextBatch(batch_morsels)
                             : dispatcher.Next()) {
      VERIFY_INVARIANT(morsel->begin < morsel->end,
                       "dispatcher handed out an empty morsel");
      VERIFY_INVARIANT(morsel->end <= kTotal,
                       "morsel claim overran the input (cursor not "
                       "saturated at total)");
      // Model threads serialize, and claims are disjoint when correct,
      // so plain increments are safe here.
      for (std::size_t i = morsel->begin; i < morsel->end; ++i) ++cover[i];
    }
  };
  Thread gpu([&] { drain(2); });
  drain(1);
  gpu.join();
  for (std::size_t i = 0; i < kTotal; ++i) {
    VERIFY_INVARIANT(cover[i] == 1,
                     "morsel coverage is not exactly-once");
  }
  VERIFY_INVARIANT(dispatcher.dispatched() == kTotal,
                   "dispatched count diverged from the input size");
}

// ---------------------------------------------------------------------
// exec::Executor — one pool, many jobs: two callers each Run(3) on a
// private 2-thread pool, as the serving engine's session threads share
// the process-wide one. Every slot of every job runs exactly once, Run
// returns only after all of its slots ran, and a Run inside a slot runs
// inline on that slot's thread.

struct PoolJobRecord {
  int ran[3] = {0, 0, 0};
  bool nested_inline = false;
};

/// One caller's Run(3), checked the moment it returns: no sequence point
/// lies between the return and the check, so a barrier that released
/// early is seen before the late slot can finish.
void RunPoolJob(exec::Executor& pool,
                const std::function<void(std::size_t)>& slot_fn,
                const PoolJobRecord& record) {
  // The job lives in Run's frame, below this one. Under the
  // exec.pool.early_release mutant a pool thread can still record its
  // completion there after Run returned; the pad keeps the frames this
  // thread enters next (joins, thread exit) above that dead job.
  volatile char pad[16 * 1024];
  pad[0] = 0;
  pad[sizeof(pad) - 1] = 0;
  pool.Run(3, slot_fn);
  for (const int ran : record.ran) {
    VERIFY_INVARIANT(ran == 1,
                     "Run returned before every slot of its job ran "
                     "exactly once");
  }
}

void ExecutorJobsModel() {
  PoolJobRecord records[2];
  // A sequence point in every slot, so the explorer interleaves slot
  // bodies with claims, completions and wake-ups.
  Atomic<int> slot_steps{0};
  exec::Executor* pool = nullptr;
  const auto slot_fn = [&](PoolJobRecord* record) {
    return std::function<void(std::size_t)>([&, record](std::size_t slot) {
      slot_steps.fetch_add(1);
      if (slot == 1) {
        const std::thread::id outer = std::this_thread::get_id();
        int inner = 0;
        bool same_thread = true;
        pool->Run(2, [&](std::size_t) {
          ++inner;
          same_thread = same_thread && std::this_thread::get_id() == outer;
        });
        record->nested_inline = inner == 2 && same_thread;
      }
      // Model threads serialize, so a plain increment counts exactly.
      ++record->ran[slot];
    });
  };
  // The slot functions outlive the pool, whose destructor joins its
  // threads: a pool thread never calls a destroyed function.
  const std::function<void(std::size_t)> jobs[2] = {slot_fn(&records[0]),
                                                    slot_fn(&records[1])};
  exec::Executor executor(2);
  pool = &executor;
  Thread second([&] { RunPoolJob(executor, jobs[1], records[1]); });
  RunPoolJob(executor, jobs[0], records[0]);
  second.join();
  for (const PoolJobRecord& record : records) {
    VERIFY_INVARIANT(record.nested_inline,
                     "a Run inside a slot did not run inline on that "
                     "slot's thread");
  }
  VERIFY_INVARIANT(executor.dispatches() == 2,
                   "a nested Run dispatched to the pool");
}

// ---------------------------------------------------------------------
// server::QueryEngine — admission queue and handle resolution: every
// admitted query resolves exactly once, budget bookkeeping returns to
// zero, and the client's Wait never hangs (a lost wakeup in the
// resolve/wait handoff surfaces as a model deadlock).

void QueryEngineAdmissionModel() {
  server::EngineOptions options;
  options.session_threads = 1;
  options.queue_capacity = 4;
  options.cache_capacity_bytes = 0;
  // Stub runner: models must never touch the process-wide persistent
  // executor pool (its threads are outside the schedule).
  options.runner_for_test = [](const plan::PhysicalPlan&,
                               const engine::ExecOptions&) {
    return Result<engine::ExecReport>(engine::ExecReport{});
  };
  {
    server::QueryEngine engine(options);
    Result<std::shared_ptr<server::QueryHandle>> first =
        engine.Submit(Server().query);
    Result<std::shared_ptr<server::QueryHandle>> second =
        engine.Submit(Server().query);
    VERIFY_INVARIANT(first.ok() && second.ok(),
                     "valid query rejected at admission");
    VERIFY_INVARIANT(first.value()->Wait().ok(),
                     "admitted query resolved with an error");
    VERIFY_INVARIANT(second.value()->Wait().ok(),
                     "admitted query resolved with an error");
    const server::EngineStats stats = engine.stats();
    VERIFY_INVARIANT(stats.admitted == 2 && stats.completed == 2,
                     "admitted queries did not all complete");
    for (const auto& [device, bytes] : stats.device_inflight_bytes) {
      VERIFY_INVARIANT(bytes == 0, "GPU budget not returned after completion");
    }
    engine.Shutdown();
    VERIFY_INVARIANT(engine.stats().running == 0,
                     "scheduler still running after shutdown");
  }
}

// server::QueryEngine — per-device budget pools: every admitted query
// charges each of its devices' pools exactly once at admission and
// releases it exactly once when its handle resolves (completion and
// cancellation take the same release path), so every pool holds the
// same whole number of the plan's per-device charge and drains to zero
// — no double-spend, no partial charge, no leak. The
// server.budget.leak_on_release mutant skips one device's release and
// must be caught here.

void QueryEngineBudgetModel() {
  server::EngineOptions options;
  options.session_threads = 1;
  options.queue_capacity = 4;
  options.cache_capacity_bytes = 0;
  options.runner_for_test = [](const plan::PhysicalPlan&,
                               const engine::ExecOptions&) {
    return Result<engine::ExecReport>(engine::ExecReport{});
  };
  server::QueryEngine engine(options);
  Result<std::shared_ptr<server::QueryHandle>> first =
      engine.Submit(Server().query);
  Result<std::shared_ptr<server::QueryHandle>> second =
      engine.Submit(Server().query);
  VERIFY_INVARIANT(first.ok() && second.ok(),
                   "valid query rejected at admission");
  // The cancelled query must release its pools exactly like a completed
  // one (the release precedes resolution, whatever the outcome).
  second.value()->Cancel();
  {
    // Every pool holds k whole charges, k = queries not yet released.
    const server::EngineStats stats = engine.stats();
    const auto& [device, charge] = *Server().charge.begin();
    const auto pool = stats.device_inflight_bytes.find(device);
    const std::uint64_t k =
        pool == stats.device_inflight_bytes.end() ? 0 : pool->second / charge;
    std::map<hw::DeviceId, std::uint64_t> k_charges;
    for (const auto& [d, bytes] : Server().charge) k_charges[d] = k * bytes;
    VERIFY_INVARIANT(k <= 2 && stats.device_inflight_bytes == k_charges,
                     "the device pools do not each hold the same whole "
                     "number of the plan's per-device charge (double-spend "
                     "or partial charge)");
  }
  (void)first.value()->Wait();
  (void)second.value()->Wait();
  const server::EngineStats stats = engine.stats();
  for (const auto& [device, bytes] : stats.device_inflight_bytes) {
    VERIFY_INVARIANT(bytes == 0,
                     "a device pool leaked in-flight bytes after its "
                     "queries resolved");
  }
}

// server::QueryHandle — the resolve/wait handoff in isolation: one
// query, one waiter. The smallest tree containing the lost-wakeup
// window of a notify that fires before the terminal state is published.

void QueryHandleResolveModel() {
  server::EngineOptions options;
  options.session_threads = 1;
  options.queue_capacity = 2;
  options.cache_capacity_bytes = 0;
  options.runner_for_test = [](const plan::PhysicalPlan&,
                               const engine::ExecOptions&) {
    return Result<engine::ExecReport>(engine::ExecReport{});
  };
  server::QueryEngine engine(options);
  Result<std::shared_ptr<server::QueryHandle>> handle =
      engine.Submit(Server().query);
  VERIFY_INVARIANT(handle.ok(), "valid query rejected at admission");
  VERIFY_INVARIANT(handle.value()->Wait().ok(),
                   "admitted query resolved with an error");
  VERIFY_INVARIANT(handle.value()->Done(),
                   "Wait returned before the terminal state");
}

// ---------------------------------------------------------------------
// obs::trace — the single-writer ring publish: a reader that trusts an
// acquired count must see fully initialized slots (slot writes happen
// strictly before the count store).

void TraceRingModel() {
  obs::TraceRecorder recorder(16);
  Thread writer([&] {
    recorder.Record(obs::TraceCategory::kExec, "model.a", 'B');
    recorder.Record(obs::TraceCategory::kExec, "model.a", 'E');
  });
  // Concurrent snapshot: may see 0, 1 or 2 events — every visible one
  // must be complete.
  for (const obs::ThreadTrace& trace : recorder.Snapshot()) {
    for (const obs::TraceEvent& event : trace.events) {
      VERIFY_INVARIANT(event.name != nullptr,
                       "ring count published before the slot write "
                       "(reader saw an uninitialized event)");
    }
  }
  writer.join();
  const std::vector<obs::ThreadTrace> final_traces = recorder.Snapshot();
  std::size_t events = 0;
  for (const obs::ThreadTrace& trace : final_traces) {
    events += trace.events.size();
    VERIFY_INVARIANT(trace.dropped == 0, "tiny trace load dropped events");
  }
  VERIFY_INVARIANT(events == 2, "quiescent snapshot lost events");
}

ExploreOptions OptionsFor(const Model& model, const SuiteOptions& suite) {
  ExploreOptions options;
  options.max_schedules = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(model.max_schedules) * suite.budget_scale));
  options.sample_schedules = static_cast<std::uint64_t>(
      static_cast<double>(model.sample_schedules) * suite.budget_scale);
  options.seed = suite.seed;
  return options;
}

}  // namespace

const std::vector<Model>& Models() {
  static const std::vector<Model> models = {
      {"plan.cache.single_flight", BuildCacheSingleFlightModel, 1'500, 200},
      {"plan.cache.failure_propagation", BuildCacheFailureModel, 1'500, 200},
      {"plan.cache.eviction", BuildCacheEvictionModel, 1'500, 200},
      {"common.cancel.latch", CancelLatchModel, 800, 100},
      {"exec.morsel.coverage", MorselCoverageModel, 1'200, 200},
      {"exec.pool.jobs", ExecutorJobsModel, 2'000, 300},
      {"server.engine.admission", QueryEngineAdmissionModel, 2'500, 400},
      {"server.engine.budget", QueryEngineBudgetModel, 2'000, 300},
      {"server.handle.resolve", QueryHandleResolveModel, 1'500, 300},
      {"obs.trace.ring", TraceRingModel, 1'200, 200},
  };
  return models;
}

const std::vector<Mutant>& Mutants() {
  static const std::vector<Mutant> mutants = {
      {"plan.cache.notify_before_done", "plan.cache.single_flight"},
      {"plan.cache.drop_failed_result", "plan.cache.failure_propagation"},
      {"common.cancel.latch_blind_store", "common.cancel.latch"},
      {"exec.morsel.unsaturated_claim", "exec.morsel.coverage"},
      {"exec.pool.early_release", "exec.pool.jobs"},
      {"server.handle.notify_before_done", "server.handle.resolve"},
      {"server.budget.leak_on_release", "server.engine.budget"},
      {"obs.trace.count_before_slot", "obs.trace.ring"},
  };
  return mutants;
}

SuiteReport RunSuite(const SuiteOptions& options,
                     LockOrderGraph* lock_order) {
  SuiteReport report;
  report.clean_pass = true;
  for (const Model& model : Models()) {
    ExploreOptions explore = OptionsFor(model, options);
    ModelRunReport run;
    run.model = model.name;
    run.result = Explore(model.body, explore, lock_order);
    report.schedules_explored += run.result.schedules_explored;
    report.schedules_pruned += run.result.schedules_pruned;
    report.total_steps += run.result.total_steps;
    report.max_lock_depth =
        std::max(report.max_lock_depth, run.result.max_lock_depth);
    if (run.result.failed) report.clean_pass = false;
    report.models.push_back(std::move(run));
  }

  if (options.run_mutants) {
    report.mutants_all_killed = true;
    for (const Mutant& mutant : Mutants()) {
      MutantRunReport run;
      run.mutation = mutant.mutation;
      run.model = mutant.model;
      const Model* model = nullptr;
      for (const Model& candidate : Models()) {
        if (candidate.name == mutant.model) model = &candidate;
      }
      if (model == nullptr) {
        run.failure = "mutant references an unknown model";
        report.mutants_all_killed = false;
        report.mutants.push_back(std::move(run));
        continue;
      }
      ExploreOptions explore = OptionsFor(*model, options);
      // Kill hunts always sample on top of DFS: the lost-wakeup windows
      // sit mid-schedule, where PCT's priority demotions reach quickly.
      explore.sample_schedules = std::max<std::uint64_t>(
          explore.sample_schedules, explore.max_schedules / 2);
      explore.stop_on_failure = true;
      ExploreResult result;
      {
        ScopedMutation armed(mutant.mutation.c_str());
        result = Explore(model->body, explore, lock_order);
      }
      run.killed = result.failed;
      run.failure = result.failure;
      run.failing_schedule = result.failing_schedule;
      if (!run.killed) report.mutants_all_killed = false;
      report.mutants.push_back(std::move(run));
    }
  }
  return report;
}

}  // namespace pump::verify

#endif  // PUMP_VERIFY
