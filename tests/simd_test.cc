// SIMD-vs-scalar golden equivalence suite for the runtime-dispatched
// probe kernels (hash/simd_probe.h) and the software write-combining
// radix scatter (join/swwc.h).
//
// The dispatch contract is bit-identity: for any input, ProbeBatch under
// AVX2 dispatch must produce exactly the found/values streams and match
// count of the interleaved path, which in turn must match a scalar
// Lookup loop. Every test therefore runs its workload under BOTH
// dispatch modes (auto and ScopedForceScalar) and memcmps the outputs
// against a scalar reference. On hosts without usable AVX2 the two
// modes collapse to the same interleaved path and the suite degenerates
// to (still useful) self-consistency checks.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "data/generator.h"
#include "exec/morsel.h"
#include "gtest/gtest.h"
#include "hash/hash_table.h"
#include "hash/hybrid_table.h"
#include "hw/topology.h"
#include "join/nopa.h"
#include "join/radix.h"
#include "join/swwc.h"
#include "memory/allocator.h"

namespace pump {
namespace {

using hash::LinearProbingHashTable;
using hash::PerfectHashTable;

struct ProbeOutput {
  std::size_t matches = 0;
  std::vector<std::int64_t> values;
  std::vector<char> found;

  friend bool operator==(const ProbeOutput&, const ProbeOutput&) = default;
};

/// Scalar-reference probe: one Lookup per key, the semantics every
/// batched variant must reproduce exactly.
template <typename Table>
ProbeOutput ScalarReference(const Table& table,
                            const std::vector<std::int64_t>& keys) {
  ProbeOutput out;
  out.values.assign(keys.size(), 0);
  out.found.assign(keys.size(), 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::int64_t value = 0;
    if (table.Lookup(keys[i], &value)) {
      out.values[i] = value;
      out.found[i] = 1;
      ++out.matches;
    }
  }
  return out;
}

/// Runs ProbeBatch under the current dispatch mode.
template <typename Table>
ProbeOutput RunBatch(const Table& table,
                     const std::vector<std::int64_t>& keys) {
  ProbeOutput out;
  out.values.assign(keys.size(), 0);
  out.found.assign(keys.size(), 0);
  out.matches = table.ProbeBatch(
      keys.data(), keys.size(), out.values.data(),
      reinterpret_cast<bool*>(out.found.data()));
  for (char& f : out.found) f = f ? 1 : 0;
  return out;
}

/// The golden check: scalar reference == forced-scalar ProbeBatch ==
/// auto-dispatch ProbeBatch, all three streams bit-identical.
template <typename Table>
void ExpectDispatchEquivalence(const Table& table,
                               const std::vector<std::int64_t>& keys,
                               const std::string& label) {
  const ProbeOutput reference = ScalarReference(table, keys);
  ProbeOutput interleaved;
  {
    common::ScopedForceScalar force;
    interleaved = RunBatch(table, keys);
  }
  const ProbeOutput dispatched = RunBatch(table, keys);
  EXPECT_EQ(reference, interleaved) << label << ": interleaved != scalar";
  EXPECT_EQ(reference, dispatched) << label << ": dispatched != scalar";
}

TEST(CpuFeaturesTest, ParseForceScalarEnv) {
  EXPECT_FALSE(common::ParseForceScalarEnv(nullptr));
  EXPECT_FALSE(common::ParseForceScalarEnv(""));
  EXPECT_FALSE(common::ParseForceScalarEnv("0"));
  EXPECT_TRUE(common::ParseForceScalarEnv("1"));
  EXPECT_TRUE(common::ParseForceScalarEnv("true"));
  EXPECT_TRUE(common::ParseForceScalarEnv("yes"));
}

TEST(CpuFeaturesTest, ForceScalarOverridesDispatch) {
  const bool avx2_host = common::Avx2KernelsCompiledIn() &&
                         common::DetectCpuFeatures().avx2_usable;
  // The ambient flag may already be set (PUMP_FORCE_SCALAR=1 lane).
  const bool ambient_force = common::ForceScalar();
  {
    common::ScopedForceScalar force;
    EXPECT_EQ(common::ActiveSimdDispatch(), common::SimdDispatch::kScalar);
  }
  // Restored on scope exit: dispatch reflects host + ambient flag again.
  EXPECT_EQ(common::ForceScalar(), ambient_force);
  EXPECT_EQ(common::ActiveSimdDispatch() == common::SimdDispatch::kAvx2,
            avx2_host && !ambient_force);
}

TEST(CpuFeaturesTest, DispatchNameRoundTrips) {
  EXPECT_STREQ(common::SimdDispatchName(common::SimdDispatch::kScalar),
               "scalar");
  EXPECT_STREQ(common::SimdDispatchName(common::SimdDispatch::kAvx2),
               "avx2");
}

TEST(CpuFeaturesTest, UsableImpliesReported) {
  const common::CpuFeatures features = common::DetectCpuFeatures();
  if (features.avx2_usable) {
    EXPECT_TRUE(features.avx2);
    EXPECT_TRUE(features.osxsave);
  }
}

class SimdProbeTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kEntries = 1 << 12;

  PerfectHashTable<std::int64_t, std::int64_t> MakePerfect() {
    PerfectHashTable<std::int64_t, std::int64_t> table(kEntries);
    for (std::int64_t key = 0; key < static_cast<std::int64_t>(kEntries);
         ++key) {
      EXPECT_TRUE(table.Insert(key, key * 3 + 1).ok());
    }
    return table;
  }

  LinearProbingHashTable<std::int64_t, std::int64_t> MakeLinear(
      double load_factor = 0.5) {
    LinearProbingHashTable<std::int64_t, std::int64_t> table(kEntries,
                                                             load_factor);
    for (std::int64_t key = 0; key < static_cast<std::int64_t>(kEntries);
         ++key) {
      EXPECT_TRUE(table.Insert(key * 7 + 1, key - 5).ok());
    }
    return table;
  }
};

TEST_F(SimdProbeTest, PerfectUniform) {
  const auto table = MakePerfect();
  const auto outer = data::GenerateOuterUniform<std::int64_t, std::int64_t>(
      1 << 14, kEntries, 3);
  ExpectDispatchEquivalence(table, outer.keys, "perfect/uniform");
}

TEST_F(SimdProbeTest, PerfectMissHeavy) {
  const auto table = MakePerfect();
  // Selectivity 0: every probe misses (keys shifted out of the domain).
  const auto outer =
      data::GenerateOuterSelective<std::int64_t, std::int64_t>(
          1 << 13, kEntries, 0.0, 5);
  ExpectDispatchEquivalence(table, outer.keys, "perfect/miss-heavy");
}

TEST_F(SimdProbeTest, PerfectOutOfDomainAndNegative) {
  const auto table = MakePerfect();
  std::vector<std::int64_t> keys;
  Rng rng(11);
  for (int i = 0; i < 4096; ++i) {
    switch (i & 3) {
      case 0:
        keys.push_back(static_cast<std::int64_t>(rng.Next64() % kEntries));
        break;
      case 1:  // Above the domain: must miss without faulting.
        keys.push_back(static_cast<std::int64_t>(
            kEntries + rng.Next64() % (1 << 20)));
        break;
      case 2:  // Negative, including the empty sentinel -1.
        keys.push_back(-1 - static_cast<std::int64_t>(rng.Next64() % 3));
        break;
      default:  // INT64 extremes exercise the lane-mask edge cases.
        keys.push_back((i & 4) ? std::numeric_limits<std::int64_t>::max()
                               : std::numeric_limits<std::int64_t>::min());
        break;
    }
  }
  ExpectDispatchEquivalence(table, keys, "perfect/out-of-domain");
}

TEST_F(SimdProbeTest, PerfectUnalignedCountsAndTails) {
  const auto table = MakePerfect();
  const auto outer = data::GenerateOuterUniform<std::int64_t, std::int64_t>(
      64, kEntries, 7);
  // Every count in [0, 33) exercises all tail lengths of the 8-wide and
  // 4-wide loops, including the empty batch.
  for (std::size_t count = 0; count < 33; ++count) {
    std::vector<std::int64_t> keys(outer.keys.begin(),
                                   outer.keys.begin() + count);
    ExpectDispatchEquivalence(table, keys,
                              "perfect/count=" + std::to_string(count));
  }
}

TEST_F(SimdProbeTest, LinearUniform) {
  const auto table = MakeLinear();
  std::vector<std::int64_t> keys;
  Rng rng(13);
  for (int i = 0; i < (1 << 14); ++i) {
    // ~half present (key = 7k+1), ~half absent.
    keys.push_back(static_cast<std::int64_t>(rng.Next64() % (kEntries * 7)));
  }
  ExpectDispatchEquivalence(table, keys, "linear/uniform");
}

TEST_F(SimdProbeTest, LinearZipf) {
  const auto table = MakeLinear();
  const auto outer = data::GenerateOuterZipf<std::int64_t, std::int64_t>(
      1 << 14, kEntries, 1.25, 17);
  // Zipf keys land in [0, kEntries); remap onto the 7k+1 key domain so
  // the skew hits resident keys.
  std::vector<std::int64_t> keys = outer.keys;
  for (std::int64_t& key : keys) key = key * 7 + 1;
  ExpectDispatchEquivalence(table, keys, "linear/zipf");
}

TEST_F(SimdProbeTest, LinearCollisionHeavy) {
  // Load factor 0.85 in a small table: long probe chains, so the vector
  // kernel's scalar collision fallback does real work.
  LinearProbingHashTable<std::int64_t, std::int64_t> table(1 << 8, 0.85);
  for (std::int64_t key = 0; key < (1 << 8); ++key) {
    ASSERT_TRUE(table.Insert(key * 33, key).ok());
  }
  std::vector<std::int64_t> keys;
  for (std::int64_t key = 0; key < (1 << 10); ++key) {
    keys.push_back(key * 11);
  }
  ExpectDispatchEquivalence(table, keys, "linear/collision-heavy");
}

TEST_F(SimdProbeTest, LinearEmptySentinelProbe) {
  // Probing key -1 (the empty-slot sentinel) must miss: the scalar chain
  // reports "empty slot -> absent" before the key compare, and the
  // vector kernel must order its masks the same way.
  const auto table = MakeLinear();
  std::vector<std::int64_t> keys(64, -1);
  keys.push_back(1);  // present (k=0)
  keys.push_back(8);  // present (k=1)
  ExpectDispatchEquivalence(table, keys, "linear/empty-sentinel");
}

TEST_F(SimdProbeTest, LinearUnalignedCountsAndTails) {
  const auto table = MakeLinear();
  Rng rng(19);
  std::vector<std::int64_t> pool;
  for (int i = 0; i < 40; ++i) {
    pool.push_back(static_cast<std::int64_t>(rng.Next64() % (kEntries * 8)));
  }
  for (std::size_t count = 0; count < 33; ++count) {
    std::vector<std::int64_t> keys(pool.begin(), pool.begin() + count);
    ExpectDispatchEquivalence(table, keys,
                              "linear/count=" + std::to_string(count));
  }
}

TEST(SimdHybridTest, HybridSpillProbeBitIdentical) {
  hw::Topology topo = hw::IbmAc922();
  memory::MemoryManager manager(&topo, /*materialize=*/true);
  const std::uint64_t gpu_capacity = topo.memory(hw::kGpu0).capacity.u64();
  auto table = hash::HybridHashTable<std::int64_t, std::int64_t>::Create(
      &manager, hw::kGpu0, 4096,
      /*gpu_reserve_bytes=*/gpu_capacity - 16 * 1024);
  ASSERT_TRUE(table.ok());
  ASSERT_LT(table.value().gpu_fraction(), 1.0);  // actually spilled
  for (std::int64_t key = 0; key < 4096; key += 3) {
    ASSERT_TRUE(table.value().table().Insert(key, key + 100).ok());
  }
  const auto outer = data::GenerateOuterUniform<std::int64_t, std::int64_t>(
      1 << 13, 4096, 23);
  ExpectDispatchEquivalence(table.value(), outer.keys, "hybrid/spill");
}

// --- SWWC radix partition equivalence ------------------------------------

using Partitioned64 = join::Partitioned<std::int64_t, std::int64_t>;

void ExpectSamePartitioning(const Partitioned64& a, const Partitioned64& b,
                            const std::string& label) {
  ASSERT_EQ(a.offsets, b.offsets) << label;
  ASSERT_EQ(a.keys.size(), b.keys.size()) << label;
  EXPECT_TRUE(std::equal(a.keys.begin(), a.keys.end(), b.keys.begin()))
      << label << ": keys differ";
  EXPECT_TRUE(
      std::equal(a.payloads.begin(), a.payloads.end(), b.payloads.begin()))
      << label << ": payloads differ";
}

TEST(SwwcPartitionTest, MatchesDirectScatter) {
  const auto input = data::GenerateOuterUniform<std::int64_t, std::int64_t>(
      /*m=*/50'000, /*n=*/50'000, 29);
  for (int radix_bits : {0, 3, 8}) {
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
      Partitioned64 reference;
      {
        common::ScopedForceScalar force;
        reference = join::RadixPartition(input, radix_bits, workers);
      }
      const Partitioned64 combined =
          join::RadixPartition(input, radix_bits, workers);
      ExpectSamePartitioning(reference, combined,
                             "bits=" + std::to_string(radix_bits) +
                                 " workers=" + std::to_string(workers));
    }
  }
}

TEST(SwwcPartitionTest, RaggedRegionBoundaries) {
  // Worker-region sizes that are not multiples of the 8-tuple line force
  // partial head/tail lines at every region boundary — the stores that
  // must NOT be streamed (they would clobber a neighbour's slots).
  const auto input = data::GenerateOuterUniform<std::int64_t, std::int64_t>(
      /*m=*/1021, /*n=*/1021, 31);  // prime size: every chunk ragged
  for (std::size_t workers = 1; workers <= 5; ++workers) {
    Partitioned64 reference;
    {
      common::ScopedForceScalar force;
      reference = join::RadixPartition(input, /*radix_bits=*/4, workers);
    }
    const Partitioned64 combined =
        join::RadixPartition(input, /*radix_bits=*/4, workers);
    ExpectSamePartitioning(reference, combined,
                           "ragged workers=" + std::to_string(workers));
  }
}

TEST(SwwcPartitionTest, RadixJoinBitIdenticalAcrossDispatch) {
  const auto inner = data::GenerateInner<std::int64_t, std::int64_t>(
      1 << 12, 37);
  const auto outer = data::GenerateOuterUniform<std::int64_t, std::int64_t>(
      1 << 14, 1 << 12, 41);
  join::RadixJoinOptions options;
  options.radix_bits = 6;
  options.workers = 2;
  const auto dispatched = join::RunRadixJoin(inner, outer, options);
  ASSERT_TRUE(dispatched.ok());
  common::ScopedForceScalar force;
  const auto scalar = join::RunRadixJoin(inner, outer, options);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(dispatched.value().matches, scalar.value().matches);
  EXPECT_EQ(dispatched.value().payload_sum, scalar.value().payload_sum);
}

TEST(SwwcPartitionTest, MorselLedgerPreservedAcrossDispatch) {
  // The SWWC scatter changes how stores reach memory, not the morsel
  // structure above it: a morsel-driven probe over the partitioned output
  // must still claim every morsel exactly once (the hb-claims ledger; 0
  // in release builds where the epoch counters compile out).
  const auto inner = data::GenerateInner<std::int64_t, std::int64_t>(
      1 << 10, 43);
  const auto outer = data::GenerateOuterUniform<std::int64_t, std::int64_t>(
      1 << 13, 1 << 10, 47);
  PerfectHashTable<std::int64_t, std::int64_t> table(1 << 10);
  ASSERT_TRUE(join::BuildPhase(&table, inner, 2).ok());

  for (const bool force_scalar : {false, true}) {
    common::ScopedForceScalar force(force_scalar);
    constexpr std::size_t kMorsel = 256;
    exec::MorselDispatcher dispatcher(outer.size(), kMorsel);
    std::uint64_t matches = 0;
    std::uint64_t sum = 0;
    std::size_t morsels = 0;
    while (auto morsel = dispatcher.Next()) {
      ++morsels;
      join::ProbeRange<PerfectHashTable<std::int64_t, std::int64_t>,
                       std::int64_t, std::int64_t>(
          table, outer.keys.data(), morsel->begin, morsel->end, &matches,
          &sum);
    }
    EXPECT_EQ(morsels, (outer.size() + kMorsel - 1) / kMorsel);
    const std::uint64_t claims = dispatcher.hb_claims();
    EXPECT_TRUE(claims == 0 || claims == morsels)
        << "ledger " << claims << " != " << morsels;
  }
}

}  // namespace
}  // namespace pump
