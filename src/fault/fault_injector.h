#ifndef PUMP_FAULT_FAULT_INJECTOR_H_
#define PUMP_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/status.h"

namespace pump::fault {

/// Canonical failpoint names. Library code queries these sites; tests and
/// benches arm them. Naming convention: `<layer>.<event>`.
inline constexpr const char kTransferChunk[] = "transfer.chunk";
inline constexpr const char kAllocDevice[] = "alloc.device";
inline constexpr const char kUmMigrate[] = "um.migrate";
inline constexpr const char kSchedWorkerStall[] = "sched.worker_stall";
inline constexpr const char kLinkDegrade[] = "link.degrade";
/// Fired before a GPU-side plan stage launches. Scopes: "build" before
/// each build fragment's device placement (builds in plan order, then
/// devices in set order), "probe" before the probe pipeline. A failed
/// fragment re-places its build on the CPU in a single-device plan and
/// degrades its device's shard in a sharded one. Lets tests fail one
/// pipeline or shard of a plan and assert the others' results are
/// reused instead of recomputed.
inline constexpr const char kPlanPipeline[] = "plan.pipeline";
/// Fired by the server when a query is admitted into the session queue
/// (scope: the query's SQL-ish tag, empty by default). Lets soak tests
/// shed a deterministic subset of admissions without filling the queue.
inline constexpr const char kServerAdmission[] = "server.admission";
/// Fired by the server's scheduler right before a query starts
/// executing. A fired check cancels the query as if the client had
/// called QueryHandle::Cancel — deterministic cancellation pressure for
/// the soak suite.
inline constexpr const char kServerCancel[] = "server.cancel";

/// Configuration of one armed failpoint. The fault schedule is a pure
/// function of (injector seed, site, scope, hit index): replaying a run
/// with the same seed reproduces the identical schedule, which is what
/// makes injected-fault tests deterministic.
struct FaultSpec {
  /// Chance that an eligible hit fires, in [0, 1].
  double probability = 1.0;
  /// The first `after_hits` hits of every (site, scope) stream never fire
  /// (deterministic targeting: "fail the Nth chunk").
  std::uint64_t after_hits = 0;
  /// Total fires allowed across all scopes of the site; further hits pass.
  std::uint64_t max_fires = std::numeric_limits<std::uint64_t>::max();
  /// Status code of the injected error. kUnavailable faults are transient
  /// (retryable); anything else is a hard fault.
  StatusCode code = StatusCode::kUnavailable;
};

/// A deterministic, seeded fault injector with named failpoints.
///
/// Library code calls `Check(site)` at well-defined sites; when the site
/// is armed the call returns an injected error according to the armed
/// `FaultSpec`, otherwise OK. Each (site, scope) pair owns an independent
/// deterministic random stream so concurrent callers (e.g. scheduler
/// groups, one scope per group) observe schedules that do not depend on
/// thread interleaving.
///
/// Thread-safe; `Check` on an unarmed site is a single map lookup under a
/// mutex, so production code may leave injector pointers threaded through
/// hot paths as long as they are null in normal operation (null checks are
/// free).
class FaultInjector {
 public:
  /// Creates an injector whose entire schedule derives from `seed`.
  explicit FaultInjector(std::uint64_t seed) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms (or re-arms) a failpoint. Re-arming resets the site's hit and
  /// fire counters and all of its scope streams.
  void Arm(const std::string& site, FaultSpec spec);

  /// Disarms a failpoint; subsequent checks pass.
  void Disarm(const std::string& site);

  /// Queries the failpoint: OK when unarmed or when this hit does not
  /// fire, otherwise the injected error. `scope` selects the
  /// deterministic stream (empty = the site's default stream).
  Status Check(const std::string& site, const std::string& scope = "");

  /// Times the site was checked while armed (across all scopes).
  std::uint64_t hits(const std::string& site) const;
  /// Times the site actually fired (across all scopes).
  std::uint64_t fires(const std::string& site) const;

 private:
  struct Stream {
    Rng rng;
    std::uint64_t hits = 0;
  };
  struct Site {
    FaultSpec spec;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    std::map<std::string, Stream> streams;
  };

  std::uint64_t StreamSeed(const std::string& site,
                           const std::string& scope) const;

  mutable std::mutex mutex_;
  std::uint64_t seed_;
  std::map<std::string, Site> sites_;
};

}  // namespace pump::fault

#endif  // PUMP_FAULT_FAULT_INJECTOR_H_
