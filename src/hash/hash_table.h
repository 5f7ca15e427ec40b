#ifndef PUMP_HASH_HASH_TABLE_H_
#define PUMP_HASH_HASH_TABLE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "common/cpu_features.h"
#include "common/status.h"
#include "hash/hash_function.h"
#include "hash/simd_probe.h"

namespace pump::hash {

/// Key sentinel marking an empty slot, so it cannot be stored as a key:
/// both table kinds reject it on Insert (PerfectHashTable as outside its
/// [0, capacity) domain, LinearProbingHashTable explicitly). Every other
/// key, negative ones included, is valid for the linear-probing table.
template <typename K>
inline constexpr K kEmptySlot = static_cast<K>(-1);

/// Width of the interleaved group probe (ProbeBatch): the number of
/// bucket addresses kept in flight before any is dereferenced. Sized to
/// the ~10-16 line-fill buffers of a modern core, so a batch of
/// independent probes overlaps its cache misses instead of serializing
/// them — the CPU-side analogue of the memory-level parallelism a GPU's
/// warp scheduler extracts from the same probe stream (Sec. 5.2).
inline constexpr std::size_t kProbeBatchWidth = 16;

/// Issues a read prefetch for `address` with low temporal locality (hash
/// probes touch a line once). No-op on compilers without the builtin.
inline void PrefetchRead(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/1);
#else
  (void)address;
#endif
}

/// Flat <key, value> hash-table storage: a keys array (atomic, to support
/// concurrent CPU+GPU builds on a shared table, Sec. 6) followed by a
/// values array. Storage may be owned or external (e.g. a hybrid buffer
/// spanning GPU and CPU memory, Sec. 5.3).
template <typename K, typename V>
class TableStorage {
 public:
  /// Bytes needed for `capacity` slots.
  static constexpr std::size_t BytesFor(std::size_t capacity) {
    return capacity * (sizeof(K) + sizeof(V));
  }
  /// Bytes per slot.
  static constexpr std::size_t slot_bytes() { return sizeof(K) + sizeof(V); }

  TableStorage() = default;

  /// Allocates owned storage for `capacity` slots and clears it.
  explicit TableStorage(std::size_t capacity)
      : owned_(new std::byte[BytesFor(capacity)]),
        base_(owned_.get()),
        capacity_(capacity) {
    Clear();
  }

  /// Wraps external storage of at least BytesFor(capacity) bytes. The
  /// storage must outlive the table. Clears the slots.
  TableStorage(std::byte* external, std::size_t capacity)
      : base_(external), capacity_(capacity) {
    Clear();
  }

  TableStorage(TableStorage&&) = default;
  TableStorage& operator=(TableStorage&&) = default;

  /// Number of slots.
  std::size_t capacity() const { return capacity_; }

  /// Atomic view of the key at `slot`.
  std::atomic<K>& key(std::size_t slot) {
    return reinterpret_cast<std::atomic<K>*>(base_)[slot];
  }
  const std::atomic<K>& key(std::size_t slot) const {
    return reinterpret_cast<const std::atomic<K>*>(base_)[slot];
  }
  /// The value at `slot`.
  V& value(std::size_t slot) {
    return reinterpret_cast<V*>(base_ + capacity_ * sizeof(K))[slot];
  }
  const V& value(std::size_t slot) const {
    return reinterpret_cast<const V*>(base_ + capacity_ * sizeof(K))[slot];
  }

  /// Raw (non-atomic) views of the key and value arrays for the
  /// vectorized probe kernels (hash/simd_probe.h), whose gathers cannot
  /// go through std::atomic. Valid only after the build/probe barrier:
  /// the atomic wrapper is lock-free and layout-identical to K, and the
  /// happens-before edge that already licenses the relaxed scalar reads
  /// licenses plain (and gathered) loads just the same.
  const K* raw_keys() const {
    static_assert(std::atomic<K>::is_always_lock_free);
    static_assert(sizeof(std::atomic<K>) == sizeof(K));
    return reinterpret_cast<const K*>(base_);
  }
  const V* raw_values() const {
    return reinterpret_cast<const V*>(base_ + capacity_ * sizeof(K));
  }

  /// Prefetches the key at `slot` (and nothing else: values are loaded
  /// only on a match, Sec. 7.2.9).
  void PrefetchKey(std::size_t slot) const {
    PrefetchRead(base_ + slot * sizeof(K));
  }
  /// Prefetches the value at `slot` (for tables whose lookups resolve the
  /// slot exactly, like the perfect hash, where a hit is likely).
  void PrefetchValue(std::size_t slot) const {
    PrefetchRead(base_ + capacity_ * sizeof(K) + slot * sizeof(V));
  }

  /// Marks every slot empty.
  void Clear() {
    for (std::size_t i = 0; i < capacity_; ++i) {
      key(i).store(kEmptySlot<K>, std::memory_order_relaxed);
    }
  }

 private:
  std::unique_ptr<std::byte[]> owned_;
  std::byte* base_ = nullptr;
  std::size_t capacity_ = 0;
};

/// Perfect-hash table over dense keys [0, capacity): slot = key, load
/// factor 1, no probing. This is the table of the paper's NOPA join
/// (Sec. 7.1) — a lookup touches exactly one slot, which makes the join's
/// random-access behaviour easy to reason about.
template <typename K, typename V>
class PerfectHashTable {
 public:
  /// Creates a table for the key domain [0, capacity) with owned storage.
  explicit PerfectHashTable(std::size_t capacity)
      : storage_(capacity) {}
  /// Creates a table over external storage (hybrid placement).
  PerfectHashTable(std::byte* external, std::size_t capacity)
      : storage_(external, capacity) {}

  /// Inserts a tuple. Thread-safe against concurrent inserts: the key CAS
  /// claims the slot and only the winner writes the value. Lookups must be
  /// separated from inserts by a happens-before edge — the join algorithms'
  /// build/probe barrier provides it. Fails with AlreadyExists on duplicate
  /// keys and InvalidArgument when the key is outside the domain.
  Status Insert(K key, V value) {
    if (key < 0 || static_cast<std::size_t>(key) >= storage_.capacity()) {
      return Status::InvalidArgument("key outside perfect-hash domain");
    }
    const auto slot = static_cast<std::size_t>(PerfectHash(key));
    K expected = kEmptySlot<K>;
    if (!storage_.key(slot).compare_exchange_strong(
            expected, key, std::memory_order_acq_rel)) {
      return Status::AlreadyExists("duplicate key in perfect hash table");
    }
    storage_.value(slot) = value;
    return Status::OK();
  }

  /// Looks up `key`; returns true and sets *value on a match.
  bool Lookup(K key, V* value) const {
    if (key < 0 || static_cast<std::size_t>(key) >= storage_.capacity()) {
      return false;
    }
    const auto slot = static_cast<std::size_t>(PerfectHash(key));
    if (storage_.key(slot).load(std::memory_order_acquire) != key) {
      return false;
    }
    *value = storage_.value(slot);
    return true;
  }

  /// Batched probe: resolves `count` keys, setting `found[i]` and (on a
  /// match) `values[i]`; returns the match count. Bit-identical results
  /// to calling Lookup per key. Dispatches at runtime between the
  /// 8-wide AVX2 gather kernel and the interleaved-prefetch fallback
  /// (common/cpu_features.h); every call site — ProbePhase/ProbeRange,
  /// the star probe, the hybrid table and the plan IR's probe loop
  /// (plan/operators.cc, through DimensionTable::ProbeBatch, which every
  /// served query runs) — picks the vectorized path up through this
  /// entry point unchanged.
  std::size_t ProbeBatch(const K* keys, std::size_t count, V* values,
                         bool* found) const {
    if constexpr (std::is_same_v<K, std::int64_t> &&
                  std::is_same_v<V, std::int64_t>) {
      if (common::ActiveSimdDispatch() == common::SimdDispatch::kAvx2) {
        return simd::ProbePerfectAvx2(storage_.raw_keys(),
                                      storage_.raw_values(),
                                      storage_.capacity(), keys, count,
                                      values, found);
      }
    }
    return ProbeBatchInterleaved(keys, count, values, found);
  }

  /// Interleaved group probe, the portable ProbeBatch path: keys are
  /// processed in groups of kProbeBatchWidth — all bucket addresses of a
  /// group are computed and prefetched before any is dereferenced, so the
  /// dependent cache misses of a scalar Lookup loop become overlapped
  /// ones.
  std::size_t ProbeBatchInterleaved(const K* keys, std::size_t count,
                                    V* values, bool* found) const {
    std::size_t matches = 0;
    const std::size_t capacity = storage_.capacity();
    std::size_t slots[kProbeBatchWidth];
    for (std::size_t base = 0; base < count; base += kProbeBatchWidth) {
      const std::size_t n = std::min(kProbeBatchWidth, count - base);
      // Stage 1: compute and prefetch every slot before touching any.
      for (std::size_t i = 0; i < n; ++i) {
        const K key = keys[base + i];
        if (key < 0 || static_cast<std::size_t>(key) >= capacity) {
          slots[i] = capacity;  // Out-of-domain sentinel.
          continue;
        }
        const auto slot = static_cast<std::size_t>(PerfectHash(key));
        slots[i] = slot;
        storage_.PrefetchKey(slot);
        storage_.PrefetchValue(slot);
      }
      // Stage 2: resolve against (hopefully) in-flight lines.
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t slot = slots[i];
        if (slot >= capacity ||
            storage_.key(slot).load(std::memory_order_acquire) !=
                keys[base + i]) {
          found[base + i] = false;
          continue;
        }
        values[base + i] = storage_.value(slot);
        found[base + i] = true;
        ++matches;
      }
    }
    return matches;
  }

  /// Number of slots (== key domain size).
  std::size_t capacity() const { return storage_.capacity(); }
  /// Bytes of table storage.
  std::size_t bytes() const {
    return TableStorage<K, V>::BytesFor(storage_.capacity());
  }
  /// Occupied slot count (linear scan; for tests and diagnostics).
  std::size_t Size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < storage_.capacity(); ++i) {
      if (storage_.key(i).load(std::memory_order_relaxed) !=
          kEmptySlot<K>) {
        ++n;
      }
    }
    return n;
  }

 private:
  TableStorage<K, V> storage_;
};

/// Open-addressing hash table with linear probing and Murmur3 mixing, the
/// general-purpose variant for non-dense keys. Thread-safe inserts via CAS
/// claim-then-publish on the key slot.
template <typename K, typename V>
class LinearProbingHashTable {
 public:
  /// Rounds `min_slots / load_factor` up to a power of two.
  static std::size_t CapacityFor(std::size_t min_slots, double load_factor) {
    const auto needed = static_cast<std::size_t>(
        static_cast<double>(min_slots) / load_factor);
    return std::bit_ceil(needed < 2 ? std::size_t{2} : needed);
  }

  /// Creates a table sized for `expected_entries` at `load_factor`.
  explicit LinearProbingHashTable(std::size_t expected_entries,
                                  double load_factor = 0.5)
      : storage_(CapacityFor(expected_entries, load_factor)),
        mask_(storage_.capacity() - 1) {}

  /// Creates a table over external storage; `capacity` must be a power of
  /// two.
  LinearProbingHashTable(std::byte* external, std::size_t capacity)
      : storage_(external, capacity), mask_(capacity - 1) {}

  /// Inserts a tuple. Thread-safe against concurrent inserts (the key CAS
  /// claims the slot; only the winner writes the value). As with
  /// PerfectHashTable, lookups require a happens-before edge after the
  /// build phase. Duplicate keys are rejected; fails with InvalidArgument
  /// for the empty-slot sentinel and with OutOfMemory when the table is
  /// full.
  Status Insert(K key, V value) {
    if (key == kEmptySlot<K>) {
      return Status::InvalidArgument(
          "key equals the linear-probing empty-slot sentinel");
    }
    std::size_t slot = HashKey(key) & mask_;
    for (std::size_t probes = 0; probes <= mask_; ++probes) {
      K expected = kEmptySlot<K>;
      if (storage_.key(slot).compare_exchange_strong(
              expected, key, std::memory_order_acq_rel)) {
        storage_.value(slot) = value;
        return Status::OK();
      }
      if (expected == key) {
        return Status::AlreadyExists("duplicate key");
      }
      slot = (slot + 1) & mask_;
    }
    return Status::OutOfMemory("hash table full");
  }

  /// Looks up `key`; returns true and sets *value on a match.
  bool Lookup(K key, V* value) const {
    std::size_t slot = HashKey(key) & mask_;
    for (std::size_t probes = 0; probes <= mask_; ++probes) {
      const K stored = storage_.key(slot).load(std::memory_order_acquire);
      if (stored == kEmptySlot<K>) return false;
      if (stored == key) {
        *value = storage_.value(slot);
        return true;
      }
      slot = (slot + 1) & mask_;
    }
    return false;
  }

  /// Batched probe (see PerfectHashTable::ProbeBatch): dispatches at
  /// runtime between the 8-wide AVX2 kernel — vectorized Murmur3 mix,
  /// gather of each probe's first bucket, compare mask, scalar collision
  /// fallback — and the interleaved-prefetch path. Bit-identical results
  /// to calling Lookup per key.
  std::size_t ProbeBatch(const K* keys, std::size_t count, V* values,
                         bool* found) const {
    if constexpr (std::is_same_v<K, std::int64_t> &&
                  std::is_same_v<V, std::int64_t>) {
      if (common::ActiveSimdDispatch() == common::SimdDispatch::kAvx2) {
        return simd::ProbeLinearAvx2(storage_.raw_keys(),
                                     storage_.raw_values(), mask_, keys,
                                     count, values, found);
      }
    }
    return ProbeBatchInterleaved(keys, count, values, found);
  }

  /// Interleaved group probe, the portable ProbeBatch path: hashes and
  /// prefetches the first bucket of kProbeBatchWidth keys before
  /// resolving any, overlapping the initial — usually only — miss of each
  /// probe chain. Chain steps past the first bucket proceed scalar; at
  /// the 0.5 default load factor chains are short and mostly stay on the
  /// prefetched line (8 keys per 64-byte line for 64-bit keys).
  std::size_t ProbeBatchInterleaved(const K* keys, std::size_t count,
                                    V* values, bool* found) const {
    std::size_t matches = 0;
    std::size_t slots[kProbeBatchWidth];
    for (std::size_t base = 0; base < count; base += kProbeBatchWidth) {
      const std::size_t n = std::min(kProbeBatchWidth, count - base);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t slot = HashKey(keys[base + i]) & mask_;
        slots[i] = slot;
        storage_.PrefetchKey(slot);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const K key = keys[base + i];
        std::size_t slot = slots[i];
        found[base + i] = false;
        for (std::size_t probes = 0; probes <= mask_; ++probes) {
          const K stored =
              storage_.key(slot).load(std::memory_order_acquire);
          if (stored == kEmptySlot<K>) break;
          if (stored == key) {
            values[base + i] = storage_.value(slot);
            found[base + i] = true;
            ++matches;
            break;
          }
          slot = (slot + 1) & mask_;
        }
      }
    }
    return matches;
  }

  /// Number of slots.
  std::size_t capacity() const { return storage_.capacity(); }
  /// Bytes of table storage.
  std::size_t bytes() const {
    return TableStorage<K, V>::BytesFor(storage_.capacity());
  }

 private:
  TableStorage<K, V> storage_;
  std::size_t mask_;
};

}  // namespace pump::hash

#endif  // PUMP_HASH_HASH_TABLE_H_
