// Tests for the mean-estimation extension (src/mean): Duchi's one-bit
// oracle, numeric stream datasets, and the w-event mechanisms over a
// MeanCollector.
#include "mean/mean_oracle.h"
#include "mean/mean_stream.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/mechanism.h"
#include "test_util.h"
#include "util/rng.h"

namespace ldpids {
namespace {

TEST(MeanOracleTest, ConstructionValidation) {
  EXPECT_THROW(MeanOracle(0.0), std::invalid_argument);
  EXPECT_THROW(MeanOracle(-1.0), std::invalid_argument);
}

TEST(MeanOracleTest, ReportsAreTwoPoint) {
  const MeanOracle oracle(1.0);
  Rng rng(1);
  const double c = oracle.report_magnitude();
  for (int i = 0; i < 1000; ++i) {
    const double r = oracle.Perturb(0.3, rng);
    EXPECT_TRUE(r == c || r == -c);
  }
  const double e = std::exp(1.0);
  EXPECT_NEAR(c, (e + 1.0) / (e - 1.0), 1e-12);
}

TEST(MeanOracleTest, PerturbationIsUnbiasedAcrossInputs) {
  const MeanOracle oracle(1.0);
  Rng rng(2);
  for (double x : {-1.0, -0.5, 0.0, 0.3, 1.0}) {
    std::vector<double> reports(60000);
    for (double& r : reports) r = oracle.Perturb(x, rng);
    EXPECT_TRUE(testing::MeanWithin(reports, x, 5.5))
        << "x=" << x << " mean=" << testing::SampleMean(reports);
  }
}

TEST(MeanOracleTest, VarianceMatchesClosedForm) {
  const MeanOracle oracle(0.8);
  Rng rng(3);
  const double x = 0.4;
  std::vector<double> reports(80000);
  for (double& r : reports) r = oracle.Perturb(x, rng);
  const double c = oracle.report_magnitude();
  EXPECT_NEAR(testing::SampleVariance(reports), c * c - x * x,
              0.05 * (c * c));
}

TEST(MeanOracleTest, EmpiricalLdpGuarantee) {
  // Two-point output: the likelihood ratio between the extreme inputs
  // x = 1 and x = -1 must be exactly e^eps on each output.
  const double eps = 1.3;
  const MeanOracle oracle(eps);
  const double c = oracle.report_magnitude();
  // P[+C | x] = 1/2 + x/(2C); ratio at x=1 vs x=-1:
  const double p_hi = 0.5 + 1.0 / (2.0 * c);
  const double p_lo = 0.5 - 1.0 / (2.0 * c);
  EXPECT_NEAR(p_hi / p_lo, std::exp(eps), 1e-9 * std::exp(eps));
}

TEST(MeanOracleTest, OutOfRangeValuesAreClamped) {
  const MeanOracle oracle(1.0);
  Rng rng(4);
  std::vector<double> reports(40000);
  for (double& r : reports) r = oracle.Perturb(5.0, rng);  // clamp to 1
  EXPECT_TRUE(testing::MeanWithin(reports, 1.0, 5.5));
}

TEST(MeanAccumulatorTest, AveragesReports) {
  MeanAccumulator acc;
  EXPECT_THROW(acc.Estimate(), std::logic_error);
  acc.Consume(1.0);
  acc.Consume(3.0);
  EXPECT_DOUBLE_EQ(acc.Estimate(), 2.0);
  EXPECT_EQ(acc.num_reports(), 2u);
}

TEST(NumericDatasetTest, ValuesInRangeAndDeterministic) {
  const auto data = MakeNumericSineDataset(500, 40);
  for (uint64_t u = 0; u < 50; ++u) {
    for (std::size_t t = 0; t < data->length(); t += 7) {
      const double v = data->value(u, t);
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
      EXPECT_DOUBLE_EQ(v, data->value(u, t));
    }
  }
}

TEST(NumericDatasetTest, TrueMeanTracksBaseSeries) {
  // Personal offsets are symmetric, so the population mean approximates
  // the base sine series.
  const auto data = MakeNumericSineDataset(100000, 30, 0.2, 0.3, 5);
  for (std::size_t t = 0; t < data->length(); t += 5) {
    const double base = 0.6 * std::sin(0.2 * static_cast<double>(t)) +
                        0.2 * std::sin(0.31 * 0.2 * static_cast<double>(t));
    EXPECT_NEAR(data->TrueMean(t), base, 0.02) << "t=" << t;
  }
}

// The mean family is the histogram family's LBU, LPU and LPA over a
// MeanCollector; the benches print them as MeanLBU, MeanLPU and MeanLPA.
constexpr const char* kMeanMechanisms[] = {"LBU", "LPU", "LPA"};

MechanismConfig MeanConfig(double eps, std::size_t window, uint64_t seed = 7) {
  MechanismConfig config;
  config.epsilon = eps;
  config.window = window;
  config.seed = seed;
  return config;
}

RunResult RunMean(const std::string& mechanism, double eps,
                  std::size_t window, const NumericStreamDataset& data,
                  uint64_t seed = 7) {
  MeanCollector collector(data);
  return CreateMechanism(mechanism, MeanConfig(eps, window, seed),
                         data.num_users())
      ->Run(collector, data.length());
}

TEST(MeanMechanismTest, FactoryAndValidation) {
  for (const std::string name : kMeanMechanisms) {
    EXPECT_NO_THROW(CreateMechanism(name, MeanConfig(1.0, 10), 1000));
  }
  EXPECT_THROW(CreateMechanism("nope", MeanConfig(1.0, 10), 1000),
               std::invalid_argument);
  EXPECT_THROW(CreateMechanism("LBU", MeanConfig(0.0, 10), 1000),
               std::invalid_argument);
  EXPECT_THROW(CreateMechanism("LPA", MeanConfig(1.0, 10), 15),
               std::invalid_argument);
}

TEST(MeanMechanismTest, RunShapesAndSequentiality) {
  const auto data = MakeNumericSineDataset(2000, 30);
  const RunResult run = RunMean("LPU", 1.0, 10, *data);
  EXPECT_EQ(run.releases.size(), 30u);
  EXPECT_EQ(run.num_publications, 30u);
  EXPECT_DOUBLE_EQ(run.Cfpu(), 0.1);
  auto m2 = CreateMechanism("LPU", MeanConfig(1.0, 10), data->num_users());
  MeanCollector collector(*data);
  m2->Step(collector, 0);
  EXPECT_THROW(m2->Step(collector, 2), std::logic_error);
}

TEST(MeanMechanismTest, ReleasesTrackTheTrueMean) {
  const auto data = MakeNumericSineDataset(50000, 60, 0.1);
  for (const std::string name : kMeanMechanisms) {
    const RunResult run = RunMean(name, 1.0, 10, *data);
    double mae = 0.0;
    for (std::size_t t = 0; t < run.releases.size(); ++t) {
      ASSERT_EQ(run.releases[t].size(), 1u) << name;
      mae += std::fabs(run.releases[t][0] - data->TrueMean(t));
    }
    mae /= static_cast<double>(run.releases.size());
    EXPECT_LT(mae, 0.25) << name;
  }
}

TEST(MeanMechanismTest, PopulationDivisionBeatsBudgetDivision) {
  // Theorem 6.1's phenomenon carries over to mean estimation.
  const auto data = MakeNumericSineDataset(40000, 80, 0.08);
  auto mse_of = [&](const std::string& name) {
    const RunResult run = RunMean(name, 1.0, 20, *data);
    double mse = 0.0;
    for (std::size_t t = 0; t < run.releases.size(); ++t) {
      const double diff = run.releases[t][0] - data->TrueMean(t);
      mse += diff * diff;
    }
    return mse / static_cast<double>(run.releases.size());
  };
  const double lbu = mse_of("LBU");
  const double lpu = mse_of("LPU");
  const double lpa = mse_of("LPA");
  EXPECT_LT(lpu, lbu);
  EXPECT_LT(lpa, lbu);
}

TEST(MeanMechanismTest, AdaptiveSavesCommunication) {
  const auto data = MakeNumericSineDataset(40000, 100, 0.02);  // slow drift
  const RunResult run = RunMean("LPA", 1.0, 20, *data);
  // Must publish sometimes but clearly less than every timestamp, and the
  // CFPU must stay at or below the uniform 1/w.
  EXPECT_GT(run.num_publications, 0u);
  EXPECT_LT(run.num_publications, run.timestamps);
  EXPECT_LE(run.Cfpu(), 1.0 / 20.0 + 1e-9);
}

TEST(MeanMechanismTest, LongRunKeepsParticipationInvariant) {
  const auto data = MakeNumericSineDataset(4000, 300, 0.05);
  EXPECT_NO_THROW(RunMean("LPA", 1.0, 10, *data));
}

// Bit-level pin of the three mean mechanisms over an edge grid: window
// sizes from 1 to 20 and budgets from 0.05 to 20, on a slow and a fast
// numeric sine stream. N is small, so LPA's cohorts are a few users and
// its schedule both absorbs (a publication spends more than one unit) and
// then nullifies. Any change to a split, the absorption schedule, an edge
// rule or the RNG draw order shows up here.
TEST(MeanMechanismTest, MatchesEdgeGridDigests) {
  constexpr std::size_t kWindows[] = {1, 2, 3, 8, 20};
  constexpr double kEpsilons[] = {0.05, 0.5, 3.0, 20.0};
  constexpr std::size_t kLength = 150;
  constexpr uint64_t kUsers = 120;
  struct Golden {
    const char* mechanism;
    uint64_t digest;
  };
  constexpr Golden kGoldens[] = {
      {"LBU", 0xC11E8F0B1F97051BULL},
      {"LPU", 0x96ABA709A9377423ULL},
      {"LPA", 0x5A2A836867B198ACULL},
  };
  const std::shared_ptr<SyntheticNumericDataset> streams[] = {
      MakeNumericSineDataset(kUsers, kLength, 0.05, 0.3, 13),
      MakeNumericSineDataset(kUsers, kLength, 0.6, 0.5, 29)};
  uint64_t absorbing_runs = 0;
  for (const Golden& golden : kGoldens) {
    uint64_t digest = 1469598103934665603ULL;
    uint64_t cell = 0;
    for (const std::size_t window : kWindows) {
      for (const double eps : kEpsilons) {
        for (const auto& stream : streams) {
          const RunResult run =
              RunMean(golden.mechanism, eps, window, *stream, 7 + cell++);
          digest = testing::DigestRun(run, digest);
          // Every timestamp spends one dissimilarity unit; publications
          // beyond one unit each absorbed skipped timestamps.
          const uint64_t unit = kUsers / (2 * window);
          if (golden.mechanism == std::string("LPA") &&
              run.total_messages >
                  (kLength + run.num_publications) * unit) {
            ++absorbing_runs;
          }
        }
      }
    }
    EXPECT_EQ(digest, golden.digest)
        << golden.mechanism << " digest 0x" << std::hex << digest;
  }
  EXPECT_GT(absorbing_runs, 0u);
}

}  // namespace
}  // namespace ldpids
