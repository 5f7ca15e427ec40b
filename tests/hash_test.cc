#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "hash/hash_function.h"
#include "hash/hash_table.h"
#include "hash/hybrid_table.h"
#include "hw/topology.h"
#include "memory/allocator.h"

namespace pump::hash {
namespace {

TEST(HashFunctionTest, MurmurAvalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t a = Murmur3Mix64(0x1234);
  const std::uint64_t b = Murmur3Mix64(0x1235);
  const int differing = __builtin_popcountll(a ^ b);
  EXPECT_GT(differing, 16);
  EXPECT_LT(differing, 48);
}

TEST(HashFunctionTest, Mix32Distributes) {
  std::set<std::uint32_t> buckets;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    buckets.insert(Murmur3Mix32(i) & 2047);
  }
  // Near-uniform: at least ~60% distinct buckets for 1024 keys in 2048.
  EXPECT_GT(buckets.size(), 600u);
}

TEST(HashFunctionTest, PerfectHashIsIdentity) {
  EXPECT_EQ(PerfectHash<std::int64_t>(42), 42u);
  EXPECT_EQ(PerfectHash<std::int32_t>(7), 7u);
  EXPECT_EQ(HashKey<std::int64_t>(1), Murmur3Mix64(1));
  EXPECT_EQ(HashKey<std::int32_t>(1), Murmur3Mix32(1));
}

template <typename TableT>
class TableTypedTest : public ::testing::Test {};

using TableTypes =
    ::testing::Types<PerfectHashTable<std::int64_t, std::int64_t>,
                     LinearProbingHashTable<std::int64_t, std::int64_t>>;
TYPED_TEST_SUITE(TableTypedTest, TableTypes);

TYPED_TEST(TableTypedTest, InsertAndLookup) {
  TypeParam table(256);
  for (std::int64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE(table.Insert(key, key * 10).ok());
  }
  for (std::int64_t key = 0; key < 100; ++key) {
    std::int64_t value = -1;
    ASSERT_TRUE(table.Lookup(key, &value));
    EXPECT_EQ(value, key * 10);
  }
}

TYPED_TEST(TableTypedTest, MissingKeyNotFound) {
  TypeParam table(64);
  ASSERT_TRUE(table.Insert(5, 50).ok());
  std::int64_t value = -1;
  EXPECT_FALSE(table.Lookup(6, &value));
}

TYPED_TEST(TableTypedTest, DuplicateKeyRejected) {
  TypeParam table(64);
  ASSERT_TRUE(table.Insert(5, 50).ok());
  Status dup = table.Insert(5, 51);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  // Original value untouched.
  std::int64_t value = -1;
  ASSERT_TRUE(table.Lookup(5, &value));
  EXPECT_EQ(value, 50);
}

TYPED_TEST(TableTypedTest, ConcurrentInsertsAreSafe) {
  constexpr std::int64_t kKeys = 20000;
  TypeParam table(kKeys);
  exec::ParallelFor(4, [&](std::size_t worker) {
    for (std::int64_t key = static_cast<std::int64_t>(worker); key < kKeys;
         key += 4) {
      ASSERT_TRUE(table.Insert(key, key + 1).ok());
    }
  });
  for (std::int64_t key = 0; key < kKeys; ++key) {
    std::int64_t value = -1;
    ASSERT_TRUE(table.Lookup(key, &value)) << key;
    ASSERT_EQ(value, key + 1);
  }
}

TYPED_TEST(TableTypedTest, ConcurrentDuplicateInsertHasOneWinner) {
  TypeParam table(64);
  std::atomic<int> winners{0};
  exec::ParallelFor(8, [&](std::size_t worker) {
    if (table.Insert(7, static_cast<std::int64_t>(worker)).ok()) {
      winners.fetch_add(1);
    }
  });
  EXPECT_EQ(winners.load(), 1);
  std::int64_t value = -1;
  EXPECT_TRUE(table.Lookup(7, &value));
}

/// Checks ProbeBatch against per-key Lookup on the same probe stream: the
/// interleaved pipeline must be a pure reordering of memory accesses,
/// bit-identical in results.
template <typename Table>
void ExpectBatchMatchesScalar(const Table& table,
                              const std::vector<std::int64_t>& probes) {
  std::vector<std::int64_t> values(probes.size(), -1);
  std::vector<char> found_bytes(probes.size(), 2);
  bool* found = reinterpret_cast<bool*>(found_bytes.data());
  const std::size_t matches =
      table.ProbeBatch(probes.data(), probes.size(), values.data(), found);

  std::size_t scalar_matches = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    std::int64_t value = -1;
    const bool hit = table.Lookup(probes[i], &value);
    ASSERT_EQ(found[i], hit) << "probe " << i << " key " << probes[i];
    if (hit) {
      ASSERT_EQ(values[i], value) << "probe " << i;
      ++scalar_matches;
    }
  }
  EXPECT_EQ(matches, scalar_matches);
}

/// Probe mixes covering the batch pipeline's edge cases: hits, ~90%
/// misses, out-of-domain and negative keys, duplicates, a Zipf-skewed
/// stream, and a tail shorter than the batch width.
std::vector<std::vector<std::int64_t>> ProbeMixes(std::size_t domain) {
  Rng rng(7);
  std::vector<std::vector<std::int64_t>> mixes;

  std::vector<std::int64_t> hits;
  for (std::size_t i = 0; i < 3000; ++i) {
    hits.push_back(static_cast<std::int64_t>(rng.NextBounded(domain)));
  }
  mixes.push_back(std::move(hits));

  std::vector<std::int64_t> miss_heavy;
  for (std::size_t i = 0; i < 3000; ++i) {
    // ~90% of keys land outside the inserted domain.
    miss_heavy.push_back(
        static_cast<std::int64_t>(rng.NextBounded(domain * 10)));
  }
  miss_heavy.push_back(-1);
  miss_heavy.push_back(-1000000);
  mixes.push_back(std::move(miss_heavy));

  data::ZipfGenerator zipf(domain, 1.25);
  std::vector<std::int64_t> skewed;
  for (std::size_t i = 0; i < 3000; ++i) {
    // Ranks are 1-based; rank 1 (the hottest key) maps to key 0.
    skewed.push_back(static_cast<std::int64_t>(zipf.Next(rng) - 1));
  }
  mixes.push_back(std::move(skewed));

  // Duplicates back to back, and a short tail (not a multiple of the
  // batch width).
  mixes.push_back({5, 5, 5, 2, 2, static_cast<std::int64_t>(domain), -3});
  return mixes;
}

TYPED_TEST(TableTypedTest, ProbeBatchMatchesScalarLookup) {
  constexpr std::size_t kDomain = 1024;
  TypeParam table(kDomain);
  // Leave holes: only even keys are inserted, so in-domain misses occur.
  for (std::size_t key = 0; key < kDomain; key += 2) {
    ASSERT_TRUE(table
                    .Insert(static_cast<std::int64_t>(key),
                            static_cast<std::int64_t>(key * 3))
                    .ok());
  }
  for (const auto& probes : ProbeMixes(kDomain)) {
    ExpectBatchMatchesScalar(table, probes);
  }
}

TEST(ProbeBatchTest, EmptyAndSubWidthCounts) {
  PerfectHashTable<std::int64_t, std::int64_t> table(64);
  ASSERT_TRUE(table.Insert(3, 30).ok());
  std::int64_t values[4];
  bool found[4];
  EXPECT_EQ(table.ProbeBatch(nullptr, 0, values, found), 0u);
  const std::int64_t keys[3] = {3, 4, 63};
  EXPECT_EQ(table.ProbeBatch(keys, 3, values, found), 1u);
  EXPECT_TRUE(found[0]);
  EXPECT_FALSE(found[1]);
  EXPECT_FALSE(found[2]);
  EXPECT_EQ(values[0], 30);
}

TEST(ProbeBatchTest, LinearProbingCollisionChains) {
  // A nearly full table maximizes chain lengths past the prefetched
  // first bucket.
  LinearProbingHashTable<std::int64_t, std::int64_t> table(48, 0.75);
  ASSERT_EQ(table.capacity(), 64u);
  std::vector<std::int64_t> keys;
  for (std::int64_t key = 0; key < 48; ++key) {
    keys.push_back(key * 977 + 13);
    ASSERT_TRUE(table.Insert(keys.back(), key).ok());
  }
  std::vector<std::int64_t> probes = keys;
  for (std::int64_t key = 0; key < 48; ++key) {
    probes.push_back(key * 977 + 14);  // Interleave misses.
  }
  ExpectBatchMatchesScalar(table, probes);
}

TEST(PerfectHashTableTest, RejectsOutOfDomainKeys) {
  PerfectHashTable<std::int64_t, std::int64_t> table(16);
  EXPECT_EQ(table.Insert(16, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Insert(-1, 0).code(), StatusCode::kInvalidArgument);
  std::int64_t value;
  EXPECT_FALSE(table.Lookup(16, &value));
  EXPECT_FALSE(table.Lookup(-1, &value));
}

TEST(PerfectHashTableTest, SizeCountsOccupiedSlots) {
  PerfectHashTable<std::int64_t, std::int64_t> table(32);
  EXPECT_EQ(table.Size(), 0u);
  ASSERT_TRUE(table.Insert(3, 1).ok());
  ASSERT_TRUE(table.Insert(9, 2).ok());
  EXPECT_EQ(table.Size(), 2u);
  EXPECT_EQ(table.capacity(), 32u);
  EXPECT_EQ(table.bytes(), 32u * 16u);
}

TEST(PerfectHashTableTest, Int32Variant) {
  PerfectHashTable<std::int32_t, std::int32_t> table(128);
  for (std::int32_t key = 0; key < 128; ++key) {
    ASSERT_TRUE(table.Insert(key, key ^ 21).ok());
  }
  std::int32_t value;
  ASSERT_TRUE(table.Lookup(100, &value));
  EXPECT_EQ(value, 100 ^ 21);
}

TEST(LinearProbingTest, CapacityIsPowerOfTwo) {
  using Table = LinearProbingHashTable<std::int64_t, std::int64_t>;
  EXPECT_EQ(Table::CapacityFor(100, 0.5), 256u);
  EXPECT_EQ(Table::CapacityFor(1000, 0.5), 2048u);
  EXPECT_EQ(Table::CapacityFor(1, 1.0), 2u);
}

TEST(LinearProbingTest, HandlesCollisionsViaProbing) {
  // Capacity 8 with 6 entries forces collisions.
  LinearProbingHashTable<std::int64_t, std::int64_t> table(4, 0.5);
  ASSERT_EQ(table.capacity(), 8u);
  for (std::int64_t key = 0; key < 6; ++key) {
    ASSERT_TRUE(table.Insert(key * 1000 + 3, key).ok());
  }
  for (std::int64_t key = 0; key < 6; ++key) {
    std::int64_t value = -1;
    ASSERT_TRUE(table.Lookup(key * 1000 + 3, &value));
    EXPECT_EQ(value, key);
  }
}

TEST(LinearProbingTest, FullTableReportsOutOfMemory) {
  LinearProbingHashTable<std::int64_t, std::int64_t> table(2, 1.0);
  ASSERT_EQ(table.capacity(), 2u);
  ASSERT_TRUE(table.Insert(1, 1).ok());
  ASSERT_TRUE(table.Insert(2, 2).ok());
  EXPECT_EQ(table.Insert(3, 3).code(), StatusCode::kOutOfMemory);
}

TEST(LinearProbingTest, NonDenseKeys) {
  LinearProbingHashTable<std::int64_t, std::int64_t> table(1000);
  std::vector<std::int64_t> keys = {1ll << 40, 7, 999999937, -0x7fffffff,
                                    123456789012345ll};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(table.Insert(keys[i], static_cast<std::int64_t>(i)).ok());
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::int64_t value = -1;
    ASSERT_TRUE(table.Lookup(keys[i], &value));
    EXPECT_EQ(value, static_cast<std::int64_t>(i));
  }
}

TEST(LinearProbingTest, RejectsEmptySlotSentinelKey) {
  // -1 marks an empty slot: storing it would claim a slot that Lookup
  // still reads as empty, silently dropping the key.
  LinearProbingHashTable<std::int64_t, std::int64_t> table(8);
  EXPECT_EQ(table.Insert(-1, 1).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(table.Insert(-2, 2).ok());
  ASSERT_TRUE(table.Insert(3, 3).ok());
  std::int64_t value = 0;
  EXPECT_FALSE(table.Lookup(-1, &value));
  ASSERT_TRUE(table.Lookup(-2, &value));
  EXPECT_EQ(value, 2);
}

TEST(TableStorageTest, ExternalStorageView) {
  using Storage = TableStorage<std::int64_t, std::int64_t>;
  std::vector<std::byte> backing(Storage::BytesFor(16));
  PerfectHashTable<std::int64_t, std::int64_t> table(backing.data(), 16);
  ASSERT_TRUE(table.Insert(4, 44).ok());
  std::int64_t value = -1;
  ASSERT_TRUE(table.Lookup(4, &value));
  EXPECT_EQ(value, 44);
  EXPECT_EQ(Storage::slot_bytes(), 16u);
}

class HybridTableTest : public ::testing::Test {
 protected:
  hw::Topology topo_ = hw::IbmAc922();
  memory::MemoryManager manager_{&topo_, /*materialize=*/true};
};

TEST_F(HybridTableTest, SmallTableAllGpu) {
  auto table = HybridHashTable<std::int64_t, std::int64_t>::Create(
      &manager_, hw::kGpu0, 1024);
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(table.value().gpu_fraction(), 1.0);
  EXPECT_TRUE(table.value().materialized());
}

TEST_F(HybridTableTest, ReserveForcesSpill) {
  // Reserve all but 1 MiB of GPU memory: a 2 MiB table must spill half.
  const std::uint64_t gpu_capacity =
      topo_.memory(hw::kGpu0).capacity.u64();
  auto table = HybridHashTable<std::int64_t, std::int64_t>::Create(
      &manager_, hw::kGpu0, (2 << 20) / 16,
      /*gpu_reserve_bytes=*/gpu_capacity - (1 << 20));
  ASSERT_TRUE(table.ok());
  EXPECT_NEAR(table.value().gpu_fraction(), 0.5, 1e-9);
  ASSERT_EQ(table.value().buffer().extents().size(), 2u);
  EXPECT_EQ(table.value().buffer().extents()[1].node, hw::kCpu0);
}

TEST_F(HybridTableTest, FunctionalAcrossTheSplit) {
  const std::uint64_t gpu_capacity =
      topo_.memory(hw::kGpu0).capacity.u64();
  auto table = HybridHashTable<std::int64_t, std::int64_t>::Create(
      &manager_, hw::kGpu0, 4096,
      /*gpu_reserve_bytes=*/gpu_capacity - 16 * 1024);
  ASSERT_TRUE(table.ok());
  ASSERT_LT(table.value().gpu_fraction(), 1.0);
  // The join algorithm is unchanged (Sec. 5.3): inserts and lookups work
  // across the GPU/CPU extent boundary transparently.
  for (std::int64_t key = 0; key < 4096; ++key) {
    ASSERT_TRUE(table.value().table().Insert(key, key * 3).ok());
  }
  for (std::int64_t key = 0; key < 4096; ++key) {
    std::int64_t value = -1;
    ASSERT_TRUE(table.value().table().Lookup(key, &value));
    ASSERT_EQ(value, key * 3);
  }
}

TEST_F(HybridTableTest, ProbeBatchMatchesScalarAcrossSplit) {
  const std::uint64_t gpu_capacity =
      topo_.memory(hw::kGpu0).capacity.u64();
  auto table = HybridHashTable<std::int64_t, std::int64_t>::Create(
      &manager_, hw::kGpu0, 1024,
      /*gpu_reserve_bytes=*/gpu_capacity - 8 * 1024);
  ASSERT_TRUE(table.ok());
  ASSERT_LT(table.value().gpu_fraction(), 1.0);
  for (std::int64_t key = 0; key < 1024; key += 2) {
    ASSERT_TRUE(table.value().table().Insert(key, key * 7).ok());
  }
  for (const auto& probes : ProbeMixes(1024)) {
    ExpectBatchMatchesScalar(table.value(), probes);
  }
}

TEST_F(HybridTableTest, ReleasesCapacityOnDestruction) {
  {
    auto table = HybridHashTable<std::int64_t, std::int64_t>::Create(
        &manager_, hw::kGpu0, 1 << 20);
    ASSERT_TRUE(table.ok());
    EXPECT_GT(manager_.used_bytes(hw::kGpu0), 0u);
  }
  EXPECT_EQ(manager_.used_bytes(hw::kGpu0), 0u);
}

TEST_F(HybridTableTest, MoveTransfersOwnership) {
  auto table = HybridHashTable<std::int64_t, std::int64_t>::Create(
      &manager_, hw::kGpu0, 1024);
  ASSERT_TRUE(table.ok());
  HybridHashTable<std::int64_t, std::int64_t> moved =
      std::move(table).value();
  EXPECT_TRUE(moved.materialized());
  EXPECT_GT(manager_.used_bytes(hw::kGpu0), 0u);
}

}  // namespace
}  // namespace pump::hash
