#include "core/dissimilarity.h"

#include <vector>

#include <gtest/gtest.h>

#include "fo/frequency_oracle.h"
#include "test_util.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids {
namespace {

// The unobservable ground truth dis* (Eq. 3) is the mean squared distance
// between the true histogram and the last release; it is this suite's
// oracle for the estimator.
TEST(TrueDissimilarityTest, MatchesHandComputation) {
  const Histogram c = {0.5, 0.5};
  const Histogram r = {0.3, 0.7};
  // ((0.2)^2 + (0.2)^2) / 2 = 0.04.
  EXPECT_NEAR(MeanSquaredDistance(c, r), 0.04, 1e-12);
  EXPECT_DOUBLE_EQ(MeanSquaredDistance(c, c), 0.0);
}

TEST(EstimateDissimilarityTest, SubtractsVarianceCorrection) {
  const Histogram est = {0.6, 0.4};
  const Histogram r = {0.5, 0.5};
  // raw msd = 0.01; correction 0.003.
  EXPECT_NEAR(EstimateDissimilarity(est, r, 0.003), 0.007, 1e-12);
}

TEST(EstimateDissimilarityTest, CanBeNegative) {
  // When the stream has not moved, the raw distance is pure noise and the
  // debiased estimator hovers around zero, going negative about half the
  // time — callers must not clamp it.
  const Histogram est = {0.5, 0.5};
  const Histogram r = {0.5, 0.5};
  EXPECT_LT(EstimateDissimilarity(est, r, 0.001), 0.0);
}

// Theorem 5.2: E[dis] = dis* for every FO. This is the property that makes
// the adaptive strategy choice of LBD/LBA/LPD/LPA meaningful under LDP.
class DissimilarityUnbiasednessTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(DissimilarityUnbiasednessTest, EstimatorIsUnbiased) {
  const auto& fo = GetFrequencyOracle(GetParam());
  const std::size_t d = 4;
  const double eps = 1.0;
  const uint64_t n = 5000;
  Rng rng(42);

  // True current histogram and a stale "last release".
  const Histogram c_t = {0.4, 0.3, 0.2, 0.1};
  const Histogram r_l = {0.25, 0.25, 0.25, 0.25};
  const double dis_star = MeanSquaredDistance(c_t, r_l);

  Counts cohort(d);
  for (std::size_t k = 0; k < d; ++k) {
    cohort[k] = static_cast<uint64_t>(c_t[k] * n);
  }

  std::vector<double> dis_samples;
  for (int rep = 0; rep < 800; ++rep) {
    auto sketch = fo.CreateSketch({eps, d});
    sketch->AddCohort(cohort, rng);
    const Histogram est = sketch->Estimate();
    dis_samples.push_back(
        EstimateDissimilarity(est, r_l, fo.MeanVariance(eps, n, d)));
  }
  EXPECT_TRUE(testing::MeanWithin(dis_samples, dis_star, 5.5))
      << "mean=" << testing::SampleMean(dis_samples)
      << " dis*=" << dis_star << " se=" << testing::StdError(dis_samples);
}

TEST_P(DissimilarityUnbiasednessTest, UnbiasedAtZeroDistance) {
  // Degenerate case: last release equals the truth; E[dis] must be ~0.
  const auto& fo = GetFrequencyOracle(GetParam());
  const std::size_t d = 3;
  const double eps = 0.8;
  const uint64_t n = 4000;
  Rng rng(43);
  const Histogram c_t = {0.5, 0.3, 0.2};
  Counts cohort = {2000, 1200, 800};
  std::vector<double> dis_samples;
  for (int rep = 0; rep < 800; ++rep) {
    auto sketch = fo.CreateSketch({eps, d});
    sketch->AddCohort(cohort, rng);
    dis_samples.push_back(EstimateDissimilarity(sketch->Estimate(), c_t,
                                                fo.MeanVariance(eps, n, d)));
  }
  EXPECT_TRUE(testing::MeanWithin(dis_samples, 0.0, 5.5))
      << testing::SampleMean(dis_samples);
}

INSTANTIATE_TEST_SUITE_P(AllOracles, DissimilarityUnbiasednessTest,
                         ::testing::Values("GRR", "OUE", "OLH", "SUE",
                                           "HR"));

}  // namespace
}  // namespace ldpids
