#include "util/rng.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace ldpids {
namespace {

TEST(SplitMix64Test, AdvancesStateDeterministically) {
  uint64_t s1 = 42;
  uint64_t s2 = 42;
  EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1, 42u);  // state moved
}

TEST(Mix64Test, IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  // Adjacent inputs should map far apart (avalanche sanity check).
  std::set<uint64_t> outputs;
  for (uint64_t x = 0; x < 1000; ++x) outputs.insert(Mix64(x));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(HashCounterTest, DistinguishesArgumentOrder) {
  EXPECT_NE(HashCounter(1, 2, 3), HashCounter(1, 3, 2));
  EXPECT_NE(HashCounter(1, 2, 3), HashCounter(2, 2, 3));
  EXPECT_EQ(HashCounter(9, 8, 7), HashCounter(9, 8, 7));
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  std::vector<double> xs(200000);
  for (double& x : xs) x = rng.NextDouble();
  EXPECT_TRUE(testing::MeanWithin(xs, 0.5)) << testing::SampleMean(xs);
  // Variance of U(0,1) is 1/12.
  EXPECT_NEAR(testing::SampleVariance(xs), 1.0 / 12.0, 0.002);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(13);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntIsUniform) {
  Rng rng(17);
  constexpr uint64_t kBound = 7;
  constexpr int kDraws = 140000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(kBound)];
  const double expected = static_cast<double>(kDraws) / kBound;
  for (uint64_t k = 0; k < kBound; ++k) {
    // 5-sigma binomial bound.
    const double sigma = std::sqrt(expected * (1.0 - 1.0 / kBound));
    EXPECT_NEAR(counts[k], expected, 5.0 * sigma) << "bucket " << k;
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  for (double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    int hits = 0;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(p);
    const double sigma = std::sqrt(kDraws * std::max(p * (1 - p), 1e-12));
    EXPECT_NEAR(hits, p * kDraws, 5.0 * sigma + 1.0) << "p=" << p;
  }
}

TEST(RngTest, BernoulliEdgeCasesAreExact) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  Rng rng(31);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), std::numeric_limits<uint64_t>::max());
  (void)rng();
}

}  // namespace
}  // namespace ldpids
