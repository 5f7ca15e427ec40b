#ifndef PUMP_EXEC_MORSEL_H_
#define PUMP_EXEC_MORSEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/happens_before.h"
#include "verify/mutation.h"
#include "verify/sync.h"

namespace pump::exec {

/// A contiguous range of tuple indices [begin, end) handed to a worker.
struct Morsel {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// Default morsel size, following the morsel-driven parallelism literature
/// [57]: large enough to amortize dispatch, small enough to balance load.
inline constexpr std::size_t kDefaultMorselTuples = 100'000;

/// Morsels per GPU batch: GPUs receive batches of morsels to amortize the
/// kernel launch latency over more data (Sec. 6.1, Fig. 10).
inline constexpr std::size_t kDefaultGpuBatchMorsels = 16;

/// The central dispatcher of morsel-driven execution: an atomic read
/// cursor over [0, total). Workers of any processor pull work at their own
/// rate, which automatically balances load between heterogeneous
/// processors (Sec. 6.1).
class MorselDispatcher {
 public:
  /// Creates a dispatcher over `total` tuples with the given morsel size.
  MorselDispatcher(std::size_t total, std::size_t morsel_tuples)
      : total_(total),
        morsel_tuples_(morsel_tuples == 0 ? 1 : morsel_tuples) {}

  /// Claims the next morsel; nullopt when the input is exhausted.
  /// Thread-safe and lock-free.
  std::optional<Morsel> Next() { return Claim(morsel_tuples_); }

  /// Claims a batch of `batch_morsels` morsels as one contiguous range
  /// (GPU dispatch, Fig. 10). The tail batch may be smaller.
  std::optional<Morsel> NextBatch(std::size_t batch_morsels) {
    return Claim(morsel_tuples_ * (batch_morsels == 0 ? 1 : batch_morsels));
  }

  /// Total tuples dispatched so far (monotonic, never exceeds `total`:
  /// the claim cursor saturates at drain, so a long-lived dispatcher
  /// polled by spinning workers cannot creep toward overflow).
  std::size_t dispatched() const {
    return cursor_.load(std::memory_order_relaxed);
  }

  /// Total input size.
  std::size_t total() const { return total_; }

  /// Worker slots to open for up to `workers` workers: at least one and
  /// no more than there are morsels, since a slot that finds the
  /// dispatcher dry only costs a wake-up and a wait at the barrier. A
  /// one-morsel input thus runs inline on the caller.
  std::size_t Slots(std::size_t workers) const {
    const std::size_t morsels =
        (total_ + morsel_tuples_ - 1) / morsel_tuples_;
    return std::clamp<std::size_t>(morsels, 1,
                                   std::max<std::size_t>(1, workers));
  }

  /// Successful claims so far (debug builds only; 0 in release). Used by
  /// the scheduler's exactly-once ledger assertion.
  std::uint64_t hb_claims() const { return hb_claims_.Load(); }

 private:
  std::optional<Morsel> Claim(std::size_t tuples) {
    // Happens-before probe: if any thread observed the dispatcher dry
    // before our claim, the cursor had already saturated at `total_` —
    // a successful claim after a drain observation means the cursor was
    // rewound or replaced.
    [[maybe_unused]] const std::uint64_t drains_before = hb_drains_.Load();
    // Saturating CAS claim: a drained dispatcher never modifies the
    // cursor, so spinning workers polling a dry dispatcher cannot creep
    // it toward overflow, and the cursor is exactly the dispatched count.
    std::size_t begin = cursor_.load(std::memory_order_relaxed);
    while (begin < total_) {
      // Seeded bug (verify builds, armed only): an unsaturated claim
      // hands out tuples past `total_` — the coverage invariant of the
      // dispatcher models catches the overrun.
      const std::size_t end = PUMP_VERIFY_MUTATE("exec.morsel.unsaturated_claim")
                                  ? begin + tuples
                                  : std::min(begin + tuples, total_);
      if (cursor_.compare_exchange_weak(begin, end,
                                        std::memory_order_relaxed)) {
        PUMP_HB_ASSERT(drains_before == 0,
                       "morsel claim succeeded after another worker "
                       "observed the dispatcher dry; the claim cursor "
                       "must be monotone");
        hb_claims_.Bump();
        return Morsel{begin, end};
      }
    }
    hb_drains_.Bump();
    return std::nullopt;
  }

  std::size_t total_;
  std::size_t morsel_tuples_;
  // verify::Atomic = std::atomic in normal builds; under PUMP_VERIFY the
  // model checker explores every interleaving of the claim CAS loop.
  verify::Atomic<std::size_t> cursor_{0};
  hb::EpochCounter hb_claims_;
  hb::EpochCounter hb_drains_;
};

}  // namespace pump::exec

#endif  // PUMP_EXEC_MORSEL_H_
