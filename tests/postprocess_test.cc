#include "core/postprocess.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "analysis/metrics.h"
#include "analysis/runner.h"
#include "datagen/synthetic.h"

namespace ldpids {
namespace {

bool OnSimplex(const Histogram& h, double tol = 1e-9) {
  double total = 0.0;
  for (double x : h) {
    if (x < -tol) return false;
    total += x;
  }
  return std::fabs(total - 1.0) <= tol;
}

TEST(SimplexProjectionTest, FixesNegativeAndOverflowingHistograms) {
  for (const Histogram& h : std::vector<Histogram>{
           {-0.2, 0.5, 0.9},
           {2.0, 3.0},
           {-1.0, -2.0, 0.1},
           {0.25, 0.25, 0.25, 0.25}}) {
    const Histogram p = ProjectToSimplex(h);
    EXPECT_TRUE(OnSimplex(p));
  }
}

TEST(SimplexProjectionTest, SimplexPointsAreFixedPoints) {
  const Histogram h = {0.1, 0.2, 0.7};
  const Histogram p = ProjectToSimplex(h);
  for (std::size_t k = 0; k < h.size(); ++k) EXPECT_NEAR(p[k], h[k], 1e-12);
}

TEST(SimplexProjectionTest, KnownProjection) {
  // Projecting (1.2, 0.2) onto the simplex: shift both by theta = 0.2
  // -> (1.0, 0.0).
  const Histogram p = ProjectToSimplex({1.2, 0.2});
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(NormSubTest, ProducesSimplexHistograms) {
  for (const Histogram& h : std::vector<Histogram>{
           {-0.2, 0.5, 0.9},
           {0.6, 0.6},
           {-0.5, 0.2, 0.1},
           {0.0, 0.0, 0.0}}) {
    EXPECT_TRUE(OnSimplex(NormSub(h)));
  }
}

TEST(NormSubTest, UniformShiftWhenNoClippingNeeded) {
  // (0.2, 0.4): deficit 0.4 split evenly -> (0.4, 0.6).
  const Histogram p = NormSub({0.2, 0.4});
  EXPECT_NEAR(p[0], 0.4, 1e-12);
  EXPECT_NEAR(p[1], 0.6, 1e-12);
}

TEST(NormSubTest, ClipsAndRedistributes) {
  // (-0.5, 0.5, 0.5): first shift +1/6 each -> (-1/3, 2/3, 2/3); clip the
  // negative and re-balance the remaining two to sum 1.
  const Histogram p = NormSub({-0.5, 0.5, 0.5});
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
  EXPECT_NEAR(p[2], 0.5, 1e-12);
}

TEST(ApplyPostProcessTest, DispatchesAllModes) {
  const Histogram h = {-0.1, 0.6, 0.6};
  EXPECT_EQ(ApplyPostProcess(h, PostProcess::kNone), h);
  const Histogram clamped = ApplyPostProcess(h, PostProcess::kClamp);
  EXPECT_DOUBLE_EQ(clamped[0], 0.0);
  EXPECT_TRUE(OnSimplex(ApplyPostProcess(h, PostProcess::kSimplex)));
  EXPECT_TRUE(OnSimplex(ApplyPostProcess(h, PostProcess::kNormSub)));
}

TEST(ParsePostProcessTest, NamesRoundTrip) {
  for (PostProcess mode :
       {PostProcess::kNone, PostProcess::kClamp, PostProcess::kSimplex,
        PostProcess::kNormSub}) {
    EXPECT_EQ(ParsePostProcess(PostProcessName(mode)), mode);
  }
  EXPECT_EQ(ParsePostProcess("Norm-Sub"), PostProcess::kNormSub);
  EXPECT_THROW(ParsePostProcess("bogus"), std::invalid_argument);
}

TEST(PostProcessIntegrationTest, NormSubReleasesAreConsistent) {
  const auto data = MakeLnsDataset(5000, 60, 0.0025, 2);
  MechanismConfig c;
  c.epsilon = 1.0;
  c.window = 10;
  c.post_process = PostProcess::kNormSub;
  const RunResult run = RunMechanism(*data, "LPU", c);
  for (const Histogram& r : run.releases) {
    EXPECT_TRUE(OnSimplex(r, 1e-6));
  }
}

TEST(PostProcessIntegrationTest, ConsistencyImprovesMreOnSparseDomains) {
  // Negative-bin noise dominates MRE on sparse categorical streams; the
  // simplex/norm-sub steps should never hurt much and typically help a lot.
  const auto data = std::make_shared<DistributionSequenceDataset>(
      "sparse", 20000,
      std::vector<Histogram>(40, Histogram{0.85, 0.05, 0.04, 0.03, 0.02,
                                           0.01}),
      9);
  MechanismConfig base;
  base.epsilon = 0.5;
  base.window = 10;
  const auto truth = data->TrueStream();
  const double raw =
      MeanRelativeError(truth, RunMechanism(*data, "LPU", base).releases);
  base.post_process = PostProcess::kNormSub;
  const double processed =
      MeanRelativeError(truth, RunMechanism(*data, "LPU", base).releases);
  EXPECT_LT(processed, raw);
}

}  // namespace
}  // namespace ldpids
