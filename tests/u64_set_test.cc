// U64Set (the ingest shards' flat nonce filter) against std::unordered_set
// as the semantic reference, across growth, collisions and the zero-key
// sentinel.
#include <cstdint>
#include <unordered_set>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ldpids
