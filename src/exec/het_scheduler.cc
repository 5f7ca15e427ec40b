#include "exec/het_scheduler.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/happens_before.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pump::exec {

namespace {

struct HetMetrics {
  obs::Counter& batches;
  obs::Counter& orphaned_batches;
  obs::Counter& failover_batches;
  obs::Counter& group_stalls;
};

HetMetrics& Metrics() {
  static HetMetrics metrics{
      obs::MetricsRegistry::Instance().GetCounter("exec.het.batches"),
      obs::MetricsRegistry::Instance().GetCounter(
          "exec.het.orphaned_batches"),
      obs::MetricsRegistry::Instance().GetCounter(
          "exec.het.failover_batches"),
      obs::MetricsRegistry::Instance().GetCounter("exec.het.group_stalls")};
  return metrics;
}

/// Morsel batches whose claiming group died before processing them. The
/// surviving groups drain this queue after (and interleaved with) the main
/// dispatcher, so a mid-run group failure never loses tuples.
class OrphanQueue {
 public:
  void Push(const Morsel& morsel) {
    std::lock_guard<std::mutex> lock(mutex_);
    orphans_.push_back(morsel);
    hb_pushes_.Bump();
  }

  std::optional<Morsel> Pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (orphans_.empty()) return std::nullopt;
    Morsel morsel = orphans_.back();
    orphans_.pop_back();
    hb_pops_.Bump();
    return morsel;
  }

  bool Empty() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return orphans_.empty();
  }

  /// Orphaned / adopted batch epochs (debug builds only; 0 in release).
  std::uint64_t hb_pushes() const { return hb_pushes_.Load(); }
  std::uint64_t hb_pops() const { return hb_pops_.Load(); }

 private:
  mutable std::mutex mutex_;
  std::vector<Morsel> orphans_;
  hb::EpochCounter hb_pushes_;
  hb::EpochCounter hb_pops_;
};

}  // namespace

std::vector<GroupStats> RunHeterogeneous(std::size_t total,
                                         std::size_t morsel_tuples,
                                         std::vector<ProcessorGroup> groups,
                                         fault::FaultInjector* injector,
                                         const CancelToken* cancel) {
  MorselDispatcher dispatcher(total, morsel_tuples);

  std::vector<GroupStats> stats(groups.size());
  std::vector<std::atomic<std::size_t>> tuples(groups.size());
  std::vector<std::atomic<std::size_t>> dispatches(groups.size());
  std::vector<std::atomic<std::size_t>> failover_tuples(groups.size());
  std::vector<std::atomic<std::size_t>> failover_dispatches(groups.size());
  std::vector<std::atomic<bool>> failed(groups.size());
  for (auto& flag : failed) flag.store(false);

  OrphanQueue orphans;
  // Workers currently holding a claimed batch. When groups can die (an
  // injector is set), a worker may only exit when the dispatcher is dry,
  // no orphans are queued, AND nothing is in flight — an in-flight batch
  // can still be orphaned by a dying group.
  std::atomic<std::size_t> in_flight{0};

  // Flatten the groups' workers into executor slots: slot -> group. The
  // persistent pool replaces the former per-call std::thread spawning; the
  // fork-join barrier of Run is the same join-all the threads provided.
  std::vector<std::size_t> slot_group;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    stats[g].name = groups[g].name;
    for (std::size_t w = 0; w < groups[g].workers; ++w) {
      slot_group.push_back(g);
    }
  }
  if (!slot_group.empty()) {
    Executor::Default().Run(slot_group.size(), [&](std::size_t slot) {
      const std::size_t g = slot_group[slot];
      const ProcessorGroup& group = groups[g];
      // The cancel poll sits before the claim, so a cancelled query's
      // worker exits holding nothing: at most the one batch it was
      // already processing finishes after the token fires.
      while (!failed[g].load(std::memory_order_acquire) &&
             !(cancel != nullptr && cancel->Cancelled())) {
        in_flight.fetch_add(1, std::memory_order_acq_rel);
        bool from_orphan = false;
        std::optional<Morsel> batch =
            dispatcher.NextBatch(group.batch_morsels);
        if (!batch) {
          batch = orphans.Pop();
          from_orphan = batch.has_value();
        }
        if (!batch) {
          // Nothing claimable right now. Without an injector no group can
          // die, so nothing can be orphaned and a dry dispatcher is final.
          // With one, exit only once no other worker holds a batch (it
          // could die and orphan it) and the orphan queue stayed empty
          // after that observation.
          const std::size_t others =
              in_flight.fetch_sub(1, std::memory_order_acq_rel) - 1;
          if (injector == nullptr || (others == 0 && orphans.Empty())) {
            // Happens-before: every orphan Push precedes its worker's
            // in_flight release, so with no batch in flight and the
            // queue empty, every orphaned batch has been adopted.
            PUMP_HB_ASSERT(orphans.hb_pushes() == orphans.hb_pops(),
                           "worker exiting while an orphaned batch is "
                           "still unadopted; Push must happen before "
                           "the dying worker releases in_flight");
            break;
          }
          std::this_thread::yield();
          continue;
        }
        if (injector != nullptr &&
            !injector->Check(fault::kSchedWorkerStall, group.name).ok()) {
          // The group stalls/dies: orphan the claimed batch for the
          // survivors, then stop the whole group. Push before releasing
          // in_flight so waiting workers re-observe the queue.
          failed[g].store(true, std::memory_order_release);
          Metrics().group_stalls.Add();
          Metrics().orphaned_batches.Add();
          PUMP_TRACE_INSTANT(obs::TraceCategory::kExec, "het.group_stall",
                             static_cast<double>(g),
                             static_cast<double>(batch->size()));
          // Happens-before: this worker's claim still holds its
          // in_flight slot; orphaning after the release would let every
          // peer exit and strand the batch.
          PUMP_HB_ASSERT(in_flight.load(std::memory_order_acquire) >= 1,
                         "dying worker orphaned its batch after "
                         "releasing its in-flight slot");
          orphans.Push(*batch);
          in_flight.fetch_sub(1, std::memory_order_acq_rel);
          break;
        }
        {
          PUMP_TRACE_SPAN(obs::TraceCategory::kExec, "het.batch",
                          static_cast<double>(g),
                          static_cast<double>(batch->size()));
          group.process(batch->begin, batch->end);
        }
        Metrics().batches.Add();
        tuples[g].fetch_add(batch->size(), std::memory_order_relaxed);
        dispatches[g].fetch_add(1, std::memory_order_relaxed);
        if (from_orphan) {
          Metrics().failover_batches.Add();
          failover_tuples[g].fetch_add(batch->size(),
                                       std::memory_order_relaxed);
          failover_dispatches[g].fetch_add(1, std::memory_order_relaxed);
        }
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }

  // Exactly-once ledger (debug builds): every batch claimed from the
  // dispatcher or adopted from the orphan queue was either processed or
  // re-orphaned, so processed = claims + adoptions - orphanings.
  PUMP_HB_ASSERT(orphans.hb_pops() <= orphans.hb_pushes(),
                 "more orphan batches adopted than were ever orphaned");
#if PUMP_HB_ASSERTIONS
  std::uint64_t processed_batches = 0;
  for (const auto& count : dispatches) processed_batches += count.load();
  PUMP_HB_ASSERT(processed_batches ==
                     dispatcher.hb_claims() + orphans.hb_pops() -
                         orphans.hb_pushes(),
                 "processed batch count does not balance the "
                 "claim/orphan/adopt ledger; a batch was lost or "
                 "double-processed across the failover path");
#endif

  for (std::size_t g = 0; g < groups.size(); ++g) {
    stats[g].tuples = tuples[g].load();
    stats[g].dispatches = dispatches[g].load();
    stats[g].failed = failed[g].load();
    stats[g].failover_tuples = failover_tuples[g].load();
    stats[g].failover_dispatches = failover_dispatches[g].load();
  }
  return stats;
}

}  // namespace pump::exec
