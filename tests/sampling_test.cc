#include "util/sampling.h"
#include <cmath>

#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ldpids {
namespace {

TEST(SampleFromPoolTest, RemovesRequestedCount) {
  Rng rng(1);
  std::vector<uint32_t> pool(100);
  std::iota(pool.begin(), pool.end(), 0u);
  const auto picked = SampleFromPool(rng, &pool, 30);
  EXPECT_EQ(picked.size(), 30u);
  EXPECT_EQ(pool.size(), 70u);
}

TEST(SampleFromPoolTest, PickedAndRemainingPartitionThePool) {
  Rng rng(2);
  std::vector<uint32_t> pool(200);
  std::iota(pool.begin(), pool.end(), 0u);
  const auto picked = SampleFromPool(rng, &pool, 77);
  std::set<uint32_t> all(picked.begin(), picked.end());
  all.insert(pool.begin(), pool.end());
  EXPECT_EQ(all.size(), 200u);  // no duplicates, no losses
}

TEST(SampleFromPoolTest, TakingMoreThanPoolTakesEverything) {
  Rng rng(3);
  std::vector<uint32_t> pool = {5, 6, 7};
  const auto picked = SampleFromPool(rng, &pool, 10);
  EXPECT_EQ(picked.size(), 3u);
  EXPECT_TRUE(pool.empty());
}

TEST(SampleFromPoolTest, ZeroCountTakesNothing) {
  Rng rng(4);
  std::vector<uint32_t> pool = {1, 2, 3};
  const auto picked = SampleFromPool(rng, &pool, 0);
  EXPECT_TRUE(picked.empty());
  EXPECT_EQ(pool.size(), 3u);
}

TEST(SampleFromPoolTest, SamplingIsUniform) {
  // Each of 20 elements should appear in a size-5 sample with probability
  // 1/4; over many trials the inclusion counts must concentrate.
  Rng rng(5);
  constexpr int kTrials = 40000;
  std::vector<int> inclusion(20, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<uint32_t> pool(20);
    std::iota(pool.begin(), pool.end(), 0u);
    for (uint32_t u : SampleFromPool(rng, &pool, 5)) ++inclusion[u];
  }
  const double expected = kTrials * 5.0 / 20.0;
  const double sigma = std::sqrt(kTrials * 0.25 * 0.75);
  for (int k = 0; k < 20; ++k) {
    EXPECT_NEAR(inclusion[k], expected, 5.0 * sigma) << "element " << k;
  }
}

}  // namespace
}  // namespace ldpids
