// U64Set (the ingest shards' flat nonce filter) against std::unordered_set
// as the semantic reference, across growth, Reserve, collisions and the
// zero-key sentinel. Reserve's sizing is pinned by counting allocations.
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_count.h"
#include "util/rng.h"
#include "util/u64_set.h"

namespace ldpids {
namespace {

TEST(U64SetTest, MatchesUnorderedSetOverRandomWorkload) {
  Rng rng(404);
  U64Set set;
  std::unordered_set<uint64_t> reference;
  for (int op = 0; op < 20000; ++op) {
    // Small key pool so lookups hit often; includes 0 (the slot sentinel).
    const uint64_t key = rng.UniformInt(4096);
    ASSERT_EQ(set.Contains(key), reference.count(key) != 0) << "op " << op;
    if (rng.Bernoulli(0.7)) {
      ASSERT_EQ(set.Insert(key), reference.insert(key).second) << "op " << op;
      ASSERT_TRUE(set.Contains(key));
    }
    ASSERT_EQ(set.size(), reference.size());
  }
}

TEST(U64SetTest, ZeroKeyAndReinsertion) {
  U64Set set;
  EXPECT_FALSE(set.Contains(0));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_FALSE(set.Insert(0));  // no-op
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Insert(7));
  EXPECT_FALSE(set.Insert(7));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(7));
  EXPECT_FALSE(set.Contains(8));
}

TEST(U64SetTest, SurvivesAdversariallySequentialKeys) {
  // Sequential nonces are the common case on the wire; Mix64 scattering
  // must keep probes short and membership exact through many growths.
  U64Set set;
  for (uint64_t i = 1; i <= 100000; ++i) set.Insert(i);
  EXPECT_EQ(set.size(), 100000u);
  for (uint64_t i = 1; i <= 100000; i += 997) EXPECT_TRUE(set.Contains(i));
  EXPECT_FALSE(set.Contains(100001));
  EXPECT_FALSE(set.Contains(0));
}

TEST(U64SetTest, ReserveRehashKeepsMembership) {
  U64Set set;
  EXPECT_TRUE(set.Insert(0));
  for (uint64_t k = 1; k <= 40; ++k) EXPECT_TRUE(set.Insert(k * 7919));
  set.Reserve(10000);  // one rehash, well past the 40 keys' table
  EXPECT_EQ(set.size(), 41u);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_FALSE(set.Insert(0));
  for (uint64_t k = 1; k <= 40; ++k) {
    EXPECT_TRUE(set.Contains(k * 7919));
    EXPECT_FALSE(set.Contains(k * 7919 + 1));
    EXPECT_FALSE(set.Insert(k * 7919));
  }
  EXPECT_EQ(set.size(), 41u);
}

TEST(U64SetTest, ReserveBelowCapacityChangesNothing) {
  U64Set set;
  for (uint64_t k = 1; k <= 1000; ++k) set.Insert(k);
  set.Reserve(3000);
  const uint64_t before = alloc_count::AllocCalls();
  for (const std::size_t n : {0, 1, 500, 1000, 2000, 3000}) set.Reserve(n);
  EXPECT_EQ(alloc_count::AllocCalls(), before);
  EXPECT_EQ(set.size(), 1000u);
  for (uint64_t k = 1; k <= 1000; ++k) ASSERT_TRUE(set.Contains(k));
  EXPECT_FALSE(set.Contains(1001));
  EXPECT_FALSE(set.Contains(0));
}

TEST(U64SetTest, InsertsUpToTheReservationMatchReferenceWithoutGrowing) {
  // Sizes around the first growth points (48 keys fill 64 slots) and a
  // bd-grr round. Keys repeat and one is 0, so some inserts are no-ops.
  for (const std::size_t n : {1, 47, 48, 49, 1000, 4686}) {
    Rng rng(n);
    std::vector<uint64_t> keys(n);
    for (uint64_t& key : keys) key = rng.UniformInt(2 * n);
    keys[n / 2] = 0;
    std::vector<uint8_t> inserted(n);
    U64Set set;
    set.Reserve(n);
    const uint64_t before = alloc_count::AllocCalls();
    for (std::size_t i = 0; i < n; ++i) inserted[i] = set.Insert(keys[i]);
    EXPECT_EQ(alloc_count::AllocCalls(), before) << "n " << n;
    std::unordered_set<uint64_t> reference;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(inserted[i] != 0, reference.insert(keys[i]).second)
          << "n " << n << " insert " << i;
    }
    EXPECT_EQ(set.size(), reference.size());
    for (uint64_t key = 0; key < 2 * n; ++key) {
      ASSERT_EQ(set.Contains(key), reference.count(key) != 0);
    }
  }
}

}  // namespace
}  // namespace ldpids
