#include "util/distributions.h"

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/rng.h"

namespace ldpids {
namespace {

TEST(GaussianTest, MomentsMatch) {
  Rng rng(1);
  std::vector<double> xs(200000);
  for (double& x : xs) x = SampleGaussian(rng);
  EXPECT_TRUE(testing::MeanWithin(xs, 0.0));
  EXPECT_NEAR(testing::SampleVariance(xs), 1.0, 0.02);
}

TEST(GaussianTest, ScaledMomentsMatch) {
  Rng rng(2);
  std::vector<double> xs(100000);
  for (double& x : xs) x = SampleGaussian(rng, 3.0, 0.5);
  EXPECT_TRUE(testing::MeanWithin(xs, 3.0));
  EXPECT_NEAR(testing::SampleVariance(xs), 0.25, 0.01);
}

TEST(LaplaceTest, MomentsMatch) {
  Rng rng(3);
  const double scale = 2.0;
  std::vector<double> xs(200000);
  for (double& x : xs) x = SampleLaplace(rng, scale);
  EXPECT_TRUE(testing::MeanWithin(xs, 0.0));
  // Var(Lap(b)) = 2 b^2.
  EXPECT_NEAR(testing::SampleVariance(xs), 2.0 * scale * scale, 0.3);
}

TEST(LaplaceTest, MedianIsZeroAndTailsAreSymmetric) {
  Rng rng(4);
  int positive = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) positive += (SampleLaplace(rng, 1.0) > 0);
  EXPECT_NEAR(positive, kDraws / 2, 5.0 * std::sqrt(kDraws / 4.0));
}

TEST(BinomialTest, EdgeCases) {
  Rng rng(5);
  EXPECT_EQ(SampleBinomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(SampleBinomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(SampleBinomial(rng, 100, 1.0), 100u);
  EXPECT_EQ(SampleBinomial(rng, 100, -0.1), 0u);
  EXPECT_EQ(SampleBinomial(rng, 100, 1.1), 100u);
}

// Both samplers (inversion for small n*p, BTRS for large) must match the
// binomial mean and variance; sweep regimes that hit each code path.
struct BinomialCase {
  uint64_t n;
  double p;
};

class BinomialMomentsTest : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMomentsTest, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Rng rng(6 + n);
  constexpr int kDraws = 60000;
  std::vector<double> xs(kDraws);
  for (double& x : xs) {
    const uint64_t k = SampleBinomial(rng, n, p);
    ASSERT_LE(k, n);
    x = static_cast<double>(k);
  }
  const double mean = static_cast<double>(n) * p;
  const double var = mean * (1.0 - p);
  EXPECT_TRUE(testing::MeanWithin(xs, mean, 5.0))
      << "n=" << n << " p=" << p << " mean=" << testing::SampleMean(xs);
  EXPECT_NEAR(testing::SampleVariance(xs), var, 5.0 * var / std::sqrt(kDraws) + 0.05)
      << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMomentsTest,
    ::testing::Values(BinomialCase{5, 0.3},        // inversion
                      BinomialCase{100, 0.01},     // inversion, large n
                      BinomialCase{100, 0.99},     // symmetry + inversion
                      BinomialCase{50, 0.5},       // BTRS
                      BinomialCase{1000, 0.2},     // BTRS
                      BinomialCase{1000000, 0.5},  // BTRS, huge n
                      BinomialCase{200000, 0.001}  // inversion boundary
                      ));

TEST(MultinomialTest, CountsSumToN) {
  Rng rng(7);
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  for (int i = 0; i < 100; ++i) {
    const auto counts = SampleMultinomial(rng, 1000, w);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull), 1000ull);
  }
}

TEST(MultinomialTest, MeansMatchWeights) {
  Rng rng(8);
  const std::vector<double> w = {0.1, 0.2, 0.3, 0.4};
  constexpr uint64_t kN = 10000;
  constexpr int kDraws = 20000;
  std::vector<double> totals(w.size(), 0.0);
  for (int i = 0; i < kDraws; ++i) {
    const auto counts = SampleMultinomial(rng, kN, w);
    for (std::size_t k = 0; k < w.size(); ++k) {
      totals[k] += static_cast<double>(counts[k]);
    }
  }
  for (std::size_t k = 0; k < w.size(); ++k) {
    const double mean = totals[k] / kDraws;
    const double expected = kN * w[k];
    const double sigma = std::sqrt(kN * w[k] * (1 - w[k]) / kDraws);
    EXPECT_NEAR(mean, expected, 6.0 * sigma) << "bucket " << k;
  }
}

TEST(MultinomialTest, ZeroWeightGetsZeroCounts) {
  Rng rng(9);
  const auto counts = SampleMultinomial(rng, 5000, {1.0, 0.0, 1.0});
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[0] + counts[2], 5000u);
}

TEST(MultinomialTest, RejectsInvalidWeights) {
  Rng rng(10);
  EXPECT_THROW(SampleMultinomial(rng, 10, {}), std::invalid_argument);
  EXPECT_THROW(SampleMultinomial(rng, 10, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(SampleMultinomial(rng, 10, {1.0, -1.0}), std::invalid_argument);
}

TEST(MultinomialTest, ScratchOverloadMatchesAllocatingOverloadExactly) {
  // The scratch-buffer overload must consume the identical RNG stream, so
  // seed-pinned results agree bit-for-bit.
  const std::vector<double> w = {0.5, 1.5, 3.0, 0.25};
  Rng rng_a(21), rng_b(21);
  std::vector<uint64_t> scratch;
  for (int round = 0; round < 10; ++round) {
    const auto allocated = SampleMultinomial(rng_a, 1000, w);
    SampleMultinomial(rng_b, 1000, w, &scratch);
    EXPECT_EQ(allocated, scratch) << "round " << round;
  }
}

TEST(MultinomialTest, ScratchOverloadResetsStaleBuffer) {
  // A dirty or wrongly-sized caller buffer must not leak into the result.
  Rng rng(22);
  std::vector<uint64_t> scratch = {99, 99, 99, 99, 99, 99, 99};
  SampleMultinomial(rng, 100, {1.0, 1.0, 1.0}, &scratch);
  ASSERT_EQ(scratch.size(), 3u);
  EXPECT_EQ(scratch[0] + scratch[1] + scratch[2], 100u);
}

TEST(HypergeometricTest, EdgeCases) {
  Rng rng(11);
  EXPECT_EQ(SampleHypergeometric(rng, 10, 5, 0), 0u);
  EXPECT_EQ(SampleHypergeometric(rng, 10, 0, 5), 0u);
  EXPECT_EQ(SampleHypergeometric(rng, 10, 10, 4), 4u);
  EXPECT_EQ(SampleHypergeometric(rng, 10, 3, 10), 3u);
}

struct HyperCase {
  uint64_t total, marked, draws;
};

class HypergeometricMomentsTest
    : public ::testing::TestWithParam<HyperCase> {};

TEST_P(HypergeometricMomentsTest, MeanAndVarianceMatch) {
  const auto [total, marked, draws] = GetParam();
  Rng rng(12 + total);
  constexpr int kDraws = 40000;
  std::vector<double> xs(kDraws);
  for (double& x : xs) {
    const uint64_t k = SampleHypergeometric(rng, total, marked, draws);
    ASSERT_LE(k, std::min(marked, draws));
    x = static_cast<double>(k);
  }
  const double N = static_cast<double>(total);
  const double K = static_cast<double>(marked);
  const double n = static_cast<double>(draws);
  const double mean = n * K / N;
  const double var = n * (K / N) * (1 - K / N) * (N - n) / (N - 1);
  EXPECT_TRUE(testing::MeanWithin(xs, mean, 5.5)) << testing::SampleMean(xs);
  EXPECT_NEAR(testing::SampleVariance(xs), var,
              6.0 * var / std::sqrt(kDraws) + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, HypergeometricMomentsTest,
    ::testing::Values(HyperCase{100, 30, 10},     // inversion
                      HyperCase{1000, 500, 100},  // symmetry paths
                      HyperCase{10000, 9000, 50},  // complement reduction
                      HyperCase{5000, 2500, 4000}  // large draws
                      ));

TEST(ZipfWeightsTest, NormalizedAndDecreasing) {
  const auto w = ZipfWeights(10, 1.2);
  EXPECT_EQ(w.size(), 10u);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-12);
  for (std::size_t k = 1; k < w.size(); ++k) EXPECT_LT(w[k], w[k - 1]);
}

TEST(ZipfWeightsTest, ZeroExponentIsUniform) {
  const auto w = ZipfWeights(4, 0.0);
  for (double x : w) EXPECT_NEAR(x, 0.25, 1e-12);
}

}  // namespace
}  // namespace ldpids
