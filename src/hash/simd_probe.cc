#include "hash/simd_probe.h"

#include "hash/hash_function.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define PUMP_SIMD_X86 1
#endif

namespace pump::hash::simd {
namespace {

constexpr std::int64_t kEmpty = -1;  // == kEmptySlot<int64_t>

// Scalar reference paths, shared by the tail loops and the non-x86
// fallback bodies. These mirror PerfectHashTable::Lookup and
// LinearProbingHashTable::Lookup over the raw arrays.

inline bool ScalarPerfectLookup(const std::int64_t* slot_keys,
                                const std::int64_t* slot_values,
                                std::size_t capacity, std::int64_t key,
                                std::int64_t* value) {
  if (key < 0 || static_cast<std::size_t>(key) >= capacity) return false;
  const auto slot = static_cast<std::size_t>(key);
  if (slot_keys[slot] != key) return false;
  *value = slot_values[slot];
  return true;
}

// Walks a linear-probing chain starting at `slot` with `probes_done`
// buckets already inspected; identical traversal (and therefore
// identical result) to the scalar Lookup's `probes <= mask` loop.
inline bool ScalarLinearChain(const std::int64_t* slot_keys,
                              const std::int64_t* slot_values,
                              std::size_t mask, std::int64_t key,
                              std::size_t slot, std::size_t probes_done,
                              std::int64_t* value) {
  for (std::size_t probes = probes_done; probes <= mask; ++probes) {
    const std::int64_t stored = slot_keys[slot];
    if (stored == kEmpty) return false;
    if (stored == key) {
      *value = slot_values[slot];
      return true;
    }
    slot = (slot + 1) & mask;
  }
  return false;
}

inline bool ScalarLinearLookup(const std::int64_t* slot_keys,
                               const std::int64_t* slot_values,
                               std::size_t mask, std::int64_t key,
                               std::int64_t* value) {
  const std::size_t slot =
      static_cast<std::size_t>(HashKey(key)) & mask;
  return ScalarLinearChain(slot_keys, slot_values, mask, key, slot,
                           /*probes_done=*/0, value);
}

#ifdef PUMP_SIMD_X86

// 64x64 -> low-64 multiply. AVX2 has no vpmullq; compose it from
// vpmuludq (32x32 -> 64) partial products:
//   a*b mod 2^64 = lo32(a)*lo32(b) + ((hi32(a)*lo32(b) + lo32(a)*hi32(b)) << 32)
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// Vector Murmur3 64-bit finalizer; bit-identical per lane to
// hash_function.h's Murmur3Mix64 (xor-shift is exact, MulLo64 is exact
// mod 2^64).
inline __m256i Murmur3Mix64Vec(__m256i k) {
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = MulLo64(k, _mm256_set1_epi64x(
                     static_cast<long long>(0xff51afd7ed558ccdull)));
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = MulLo64(k, _mm256_set1_epi64x(
                     static_cast<long long>(0xc4ceb9fe1a85ec53ull)));
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  return k;
}

inline int MoveMask64(__m256i lanes) {
  return _mm256_movemask_pd(_mm256_castsi256_pd(lanes));
}

// Resolves four perfect-hash lanes: `stored` is the gathered slot keys
// (empty sentinel in out-of-domain lanes), `valid` the in-domain mask.
inline std::size_t ResolvePerfect4(const std::int64_t* slot_values,
                                   __m256i k, __m256i valid, __m256i stored,
                                   std::int64_t* values, bool* found) {
  // A masked-out lane carries the -1 sentinel, which only equals an
  // out-of-domain key (-1) — and `valid` kills that lane anyway.
  const __m256i hit = _mm256_and_si256(valid, _mm256_cmpeq_epi64(stored, k));
  const int mask = MoveMask64(hit);
  // Gather and store the hit lanes' values under the hit mask, without a
  // branch per lane: at the hit rates of selective joins those branches
  // mispredict. Miss lanes' values stay untouched, as in the scalar path.
  const __m256i vals = _mm256_mask_i64gather_epi64(
      _mm256_setzero_si256(), reinterpret_cast<const long long*>(slot_values),
      k, hit, 8);
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(values), hit, vals);
  for (int lane = 0; lane < 4; ++lane) {
    found[lane] = ((mask >> lane) & 1) != 0;
  }
  return static_cast<std::size_t>(
      __builtin_popcount(static_cast<unsigned>(mask)));
}

// Resolves four linear-probing lanes against their gathered first
// buckets; collision lanes continue on the scalar chain.
inline std::size_t ResolveLinear4(const std::int64_t* slot_keys,
                                  const std::int64_t* slot_values,
                                  std::size_t table_mask, __m256i k,
                                  __m256i slot, __m256i stored,
                                  std::int64_t* values, bool* found) {
  const __m256i empty = _mm256_set1_epi64x(kEmpty);
  const __m256i is_empty = _mm256_cmpeq_epi64(stored, empty);
  // Empty beats hit: a probe key of -1 compares equal to the sentinel
  // but must miss, exactly as the scalar chain checks empty first.
  const __m256i is_hit =
      _mm256_andnot_si256(is_empty, _mm256_cmpeq_epi64(stored, k));
  const int empty_mask = MoveMask64(is_empty);
  const int hit_mask = MoveMask64(is_hit);

  alignas(32) std::int64_t hit_vals[4];
  if (hit_mask != 0) {
    const __m256i vals = _mm256_mask_i64gather_epi64(
        _mm256_setzero_si256(),
        reinterpret_cast<const long long*>(slot_values), slot, is_hit, 8);
    _mm256_store_si256(reinterpret_cast<__m256i*>(hit_vals), vals);
  }

  std::size_t matches = 0;
  alignas(32) std::int64_t keys4[4];
  alignas(32) std::int64_t slots4[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(keys4), k);
  _mm256_store_si256(reinterpret_cast<__m256i*>(slots4), slot);
  for (int lane = 0; lane < 4; ++lane) {
    if ((hit_mask >> lane) & 1) {
      values[lane] = hit_vals[lane];
      found[lane] = true;
      ++matches;
    } else if ((empty_mask >> lane) & 1) {
      found[lane] = false;
    } else {
      // Collision: keep walking from the next bucket with one probe of
      // the budget already spent on the gathered bucket.
      const std::size_t next =
          (static_cast<std::size_t>(slots4[lane]) + 1) & table_mask;
      found[lane] = ScalarLinearChain(slot_keys, slot_values, table_mask,
                                      keys4[lane], next, /*probes_done=*/1,
                                      &values[lane]);
      if (found[lane]) ++matches;
    }
  }
  return matches;
}

#endif  // PUMP_SIMD_X86

}  // namespace

// Both kernels start on a cache line, like the plan's probe loop that
// calls them (plan/operators.cc), so builds that differ only elsewhere
// time the same code.
__attribute__((aligned(64))) std::size_t ProbePerfectAvx2(
    const std::int64_t* slot_keys, const std::int64_t* slot_values,
    std::size_t capacity, const std::int64_t* keys, std::size_t count,
    std::int64_t* values, bool* found) {
  std::size_t matches = 0;
  std::size_t i = 0;
#ifdef PUMP_SIMD_X86
  const __m256i cap = _mm256_set1_epi64x(static_cast<long long>(capacity));
  const __m256i minus_one = _mm256_set1_epi64x(-1);
  const auto* base = reinterpret_cast<const long long*>(slot_keys);
  // Two 4-lane halves per iteration: both gathers issue before either
  // half resolves, keeping 8 independent loads in flight (the SIMD
  // analogue of the interleaved-prefetch batch).
  for (; i + 8 <= count; i += 8) {
    const __m256i k0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    const __m256i k1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i + 4));
    // In-domain: 0 <= key < capacity. Out-of-domain lanes are masked
    // out of the gather (masked lanes are fault-suppressed and read
    // nothing).
    const __m256i valid0 = _mm256_and_si256(_mm256_cmpgt_epi64(k0, minus_one),
                                            _mm256_cmpgt_epi64(cap, k0));
    const __m256i valid1 = _mm256_and_si256(_mm256_cmpgt_epi64(k1, minus_one),
                                            _mm256_cmpgt_epi64(cap, k1));
    // Perfect hash is the identity, so the key vector doubles as the
    // gather index vector.
    const __m256i stored0 =
        _mm256_mask_i64gather_epi64(minus_one, base, k0, valid0, 8);
    const __m256i stored1 =
        _mm256_mask_i64gather_epi64(minus_one, base, k1, valid1, 8);
    matches += ResolvePerfect4(slot_values, k0, valid0, stored0, values + i,
                               found + i);
    matches += ResolvePerfect4(slot_values, k1, valid1, stored1,
                               values + i + 4, found + i + 4);
  }
  for (; i + 4 <= count; i += 4) {
    const __m256i k0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    const __m256i valid0 = _mm256_and_si256(_mm256_cmpgt_epi64(k0, minus_one),
                                            _mm256_cmpgt_epi64(cap, k0));
    const __m256i stored0 =
        _mm256_mask_i64gather_epi64(minus_one, base, k0, valid0, 8);
    matches += ResolvePerfect4(slot_values, k0, valid0, stored0, values + i,
                               found + i);
  }
#endif
  for (; i < count; ++i) {
    found[i] = ScalarPerfectLookup(slot_keys, slot_values, capacity, keys[i],
                                   &values[i]);
    if (found[i]) ++matches;
  }
  return matches;
}

__attribute__((aligned(64))) std::size_t ProbeLinearAvx2(
    const std::int64_t* slot_keys, const std::int64_t* slot_values,
    std::size_t mask, const std::int64_t* keys, std::size_t count,
    std::int64_t* values, bool* found) {
  std::size_t matches = 0;
  std::size_t i = 0;
#ifdef PUMP_SIMD_X86
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const auto* base = reinterpret_cast<const long long*>(slot_keys);
  for (; i + 8 <= count; i += 8) {
    const __m256i k0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    const __m256i k1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i + 4));
    const __m256i slot0 = _mm256_and_si256(Murmur3Mix64Vec(k0), vmask);
    const __m256i slot1 = _mm256_and_si256(Murmur3Mix64Vec(k1), vmask);
    // First buckets; every slot is in [0, mask], so no gather mask.
    const __m256i stored0 = _mm256_i64gather_epi64(base, slot0, 8);
    const __m256i stored1 = _mm256_i64gather_epi64(base, slot1, 8);
    matches += ResolveLinear4(slot_keys, slot_values, mask, k0, slot0,
                              stored0, values + i, found + i);
    matches += ResolveLinear4(slot_keys, slot_values, mask, k1, slot1,
                              stored1, values + i + 4, found + i + 4);
  }
  for (; i + 4 <= count; i += 4) {
    const __m256i k0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    const __m256i slot0 = _mm256_and_si256(Murmur3Mix64Vec(k0), vmask);
    const __m256i stored0 = _mm256_i64gather_epi64(base, slot0, 8);
    matches += ResolveLinear4(slot_keys, slot_values, mask, k0, slot0,
                              stored0, values + i, found + i);
  }
#endif
  for (; i < count; ++i) {
    found[i] = ScalarLinearLookup(slot_keys, slot_values, mask, keys[i],
                                  &values[i]);
    if (found[i]) ++matches;
  }
  return matches;
}

}  // namespace pump::hash::simd
