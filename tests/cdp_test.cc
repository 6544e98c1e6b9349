#include "cdp/laplace.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/metrics.h"
#include "analysis/runner.h"
#include "core/factory.h"
#include "core/mechanism.h"
#include "datagen/realworld_sim.h"
#include "datagen/synthetic.h"
#include "test_util.h"
#include "util/rng.h"

namespace ldpids {
namespace {

TEST(LaplaceMechanismTest, PerturbationIsUnbiasedWithKnownVariance) {
  Rng rng(1);
  const Histogram c = {0.3, 0.7};
  const double eps = 0.5;
  const uint64_t n = 1000;
  std::vector<double> bin0;
  for (int rep = 0; rep < 50000; ++rep) {
    bin0.push_back(LaplacePerturbHistogram(c, eps, n, 2.0, rng)[0]);
  }
  EXPECT_TRUE(testing::MeanWithin(bin0, 0.3));
  EXPECT_NEAR(testing::SampleVariance(bin0), LaplaceVariance(eps, n, 2.0),
              LaplaceVariance(eps, n, 2.0) * 0.1);
}

TEST(LaplaceMechanismTest, InputValidation) {
  Rng rng(2);
  EXPECT_THROW(LaplacePerturbHistogram({0.5}, 0.0, 10, 1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(LaplacePerturbHistogram({0.5}, 1.0, 0, 1.0, rng),
               std::invalid_argument);
}

// Kellaris et al.'s w-event CDP methods are the budget-division mechanisms
// run over a trusted aggregator's Laplace release.
struct CdpMethod {
  const char* kellaris;
  const char* mechanism;
};
constexpr CdpMethod kCdpMethods[] = {
    {"Uniform", "LBU"}, {"Sampling", "LSP"}, {"BD", "LBD"}, {"BA", "LBA"}};
constexpr uint64_t kUsers = 20000;

MechanismConfig SmallCdpConfig() {
  MechanismConfig c;
  c.epsilon = 1.0;
  c.window = 10;
  c.seed = 3;
  return c;
}

// Releases of `mechanism` over a LaplaceCollector on `stream`.
std::vector<Histogram> RunCdp(const std::string& mechanism,
                              const MechanismConfig& config,
                              const std::vector<Histogram>& stream,
                              uint64_t num_users = kUsers) {
  LaplaceCollector collector(stream, num_users);
  return CreateMechanism(mechanism, config, num_users)
      ->Run(collector, stream.size())
      .releases;
}

std::vector<Histogram> SmallTrueStream(std::size_t length = 80) {
  const auto data = MakeLnsDataset(kUsers, length, 0.0025, 17);
  return data->TrueStream();
}

TEST(CdpFactoryTest, CreatesAllMethods) {
  for (const CdpMethod& method : kCdpMethods) {
    EXPECT_NO_THROW(CreateMechanism(method.mechanism, SmallCdpConfig(),
                                    kUsers))
        << method.kellaris;
  }
  EXPECT_THROW(CreateMechanism("nope", SmallCdpConfig(), kUsers),
               std::invalid_argument);
}

TEST(CdpMechanismTest, RunReleasesMatchStreamShape) {
  const auto stream = SmallTrueStream();
  for (const CdpMethod& method : kCdpMethods) {
    const auto releases = RunCdp(method.mechanism, SmallCdpConfig(), stream);
    ASSERT_EQ(releases.size(), stream.size()) << method.kellaris;
    for (const auto& r : releases) ASSERT_EQ(r.size(), 2u) << method.kellaris;
    // CDP at n=20k is accurate: MAE well under 5%.
    EXPECT_LT(MeanAbsoluteError(stream, releases), 0.05) << method.kellaris;
  }
}

TEST(CdpMechanismTest, AdaptiveBeatsUniformOnQuietStreams) {
  // On a static stream BD/BA approximate almost always and beat Uniform.
  const std::vector<Histogram> stream(100, Histogram{0.8, 0.2});
  const double mse_uniform =
      MeanSquaredError(stream, RunCdp("LBU", SmallCdpConfig(), stream));
  const double mse_ba =
      MeanSquaredError(stream, RunCdp("LBA", SmallCdpConfig(), stream));
  EXPECT_LT(mse_ba, mse_uniform);
}

TEST(CdpMechanismTest, DomainChangeMidStreamThrows) {
  EXPECT_THROW(LaplaceCollector({{0.5, 0.5}, {0.3, 0.3, 0.4}}, kUsers),
               std::invalid_argument);
  EXPECT_THROW(LaplaceCollector({}, kUsers), std::invalid_argument);
}

// A trusted aggregator sees everyone's value; a population-division cohort
// round has no Laplace counterpart and is refused, not silently widened.
TEST(CdpMechanismTest, CohortRoundsThrow) {
  EXPECT_THROW(RunCdp("LPU", SmallCdpConfig(), SmallTrueStream()),
               std::invalid_argument);
}

// The motivating gap (paper Sections 1-2): with the same eps and w, CDP
// budget division hugely outperforms LDP budget division — this is why
// population division is needed at all.
TEST(CdpLdpGapTest, CdpUniformBeatsLdpUniform) {
  const auto data = MakeLnsDataset(kUsers, 80, 0.0025, 17);
  const auto truth = data->TrueStream();

  const double mse_cdp =
      MeanSquaredError(truth, RunCdp("LBU", SmallCdpConfig(), truth));

  MechanismConfig ldp;
  ldp.epsilon = 1.0;
  ldp.window = 10;
  ldp.fo = "GRR";
  const auto lbu = EvaluateMechanism(*data, "LBU", ldp, 2);
  EXPECT_LT(mse_cdp, lbu.mse / 10.0);
}

// Bit-level pin of the four CDP baselines over an edge grid: window sizes
// from 1 to 20 and budgets from 0.05 to 20, on a binary LNS stream and a
// d = 17 drifting-Zipf stream. Each mechanism's releases chain into one
// digest, so any change to a budget schedule (BD's decaying publication
// budget, BA's absorbed and nullified units), an edge rule or the RNG draw
// order shows up here.
TEST(CdpMechanismTest, BaselinesMatchEdgeGridDigests) {
  constexpr std::size_t kWindows[] = {1, 2, 3, 8, 20};
  constexpr double kEpsilons[] = {0.05, 0.5, 3.0, 20.0};
  constexpr std::size_t kLength = 50;
  constexpr uint64_t kGridUsers = 1200;
  struct Golden {
    const char* mechanism;
    uint64_t digest;
  };
  constexpr Golden kGoldens[] = {
      {"LBU", 0xD257360F6799D5B9ULL},  // Uniform
      {"LSP", 0xDEB863FFB6DBD232ULL},  // Sampling
      {"LBD", 0xDC7B081ECA06FD7CULL},  // BD
      {"LBA", 0x12F4ABE85AA03803ULL},  // BA
  };
  RealWorldSimOptions zipf;
  zipf.seed = 29;
  const std::vector<Histogram> streams[] = {
      MakeLnsDataset(kGridUsers, kLength, 0.0025, 13)->TrueStream(),
      MakeDriftingZipfDataset("zipf", kGridUsers, kLength, 17,
                              /*timestamps_per_day=*/12, zipf)
          ->TrueStream()};
  for (const Golden& golden : kGoldens) {
    uint64_t digest = 1469598103934665603ULL;
    uint64_t cell = 0;
    for (const std::size_t window : kWindows) {
      for (const double eps : kEpsilons) {
        for (const std::vector<Histogram>& stream : streams) {
          MechanismConfig config;
          config.epsilon = eps;
          config.window = window;
          config.seed = 7 + cell++;
          digest = testing::DigestReleases(
              RunCdp(golden.mechanism, config, stream, kGridUsers), digest);
        }
      }
    }
    EXPECT_EQ(digest, golden.digest)
        << golden.mechanism << " digest 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace ldpids
