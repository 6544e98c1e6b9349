// End-to-end reproductions of the paper's qualitative findings, at reduced
// scale so they run in seconds. These are the paper's "shape" claims in
// test form; the figure benches reproduce the full-size numbers.
#include <cmath>

#include <gtest/gtest.h>

#include "analysis/event_monitor.h"
#include "analysis/metrics.h"
#include "analysis/roc.h"
#include "analysis/runner.h"
#include "datagen/realworld_sim.h"
#include "datagen/synthetic.h"

namespace ldpids {
namespace {

MechanismConfig Config(double eps = 1.0, std::size_t w = 20) {
  MechanismConfig c;
  c.epsilon = eps;
  c.window = w;
  c.fo = "GRR";
  c.seed = 77;
  return c;
}

// Fig. 4's headline: population division dominates budget division.
TEST(IntegrationTest, PopulationDivisionBeatsBudgetDivision) {
  const auto data = MakeLnsDataset(40000, 160, 0.0025, 1);
  const double lbu = EvaluateMechanism(*data, "LBU", Config(), 2).mre;
  const double lbd = EvaluateMechanism(*data, "LBD", Config(), 2).mre;
  const double lba = EvaluateMechanism(*data, "LBA", Config(), 2).mre;
  const double lpu = EvaluateMechanism(*data, "LPU", Config(), 2).mre;
  const double lpd = EvaluateMechanism(*data, "LPD", Config(), 2).mre;
  const double lpa = EvaluateMechanism(*data, "LPA", Config(), 2).mre;
  // Every population-division method beats every budget-division one.
  for (double p : {lpu, lpd, lpa}) {
    for (double b : {lbu, lbd, lba}) {
      EXPECT_LT(p, b);
    }
  }
}

// Fig. 4 trend: error decreases with epsilon for all methods.
TEST(IntegrationTest, ErrorDecreasesWithEpsilon) {
  const auto data = MakeLnsDataset(30000, 120, 0.0025, 2);
  for (const std::string name : {"LBU", "LBA", "LPU", "LPA"}) {
    const double lo = EvaluateMechanism(*data, name, Config(0.5), 2).mse;
    const double hi = EvaluateMechanism(*data, name, Config(2.5), 2).mse;
    EXPECT_LT(hi, lo) << name;
  }
}

// Fig. 5 trend: error grows with w (fewer users/budget per timestamp).
TEST(IntegrationTest, ErrorGrowsWithWindow) {
  const auto data = MakeLnsDataset(30000, 150, 0.0025, 3);
  for (const std::string name : {"LBU", "LPU"}) {
    const double small_w =
        EvaluateMechanism(*data, name, Config(1.0, 10), 2).mse;
    const double large_w =
        EvaluateMechanism(*data, name, Config(1.0, 50), 2).mse;
    EXPECT_GT(large_w, small_w) << name;
  }
}

// Fig. 6(a)/(b) trend: error decreases with population size.
TEST(IntegrationTest, ErrorDecreasesWithPopulation) {
  for (const std::string name : {"LBU", "LPA"}) {
    const auto small = MakeLnsDataset(10000, 100, 0.0025, 4);
    const auto large = MakeLnsDataset(80000, 100, 0.0025, 4);
    const double mse_small = EvaluateMechanism(*small, name, Config(), 2).mse;
    const double mse_large = EvaluateMechanism(*large, name, Config(), 2).mse;
    EXPECT_LT(mse_large, mse_small) << name;
  }
}

// Fig. 6(c) trend: data-dependent methods degrade as fluctuation grows.
TEST(IntegrationTest, AdaptiveErrorGrowsWithFluctuation) {
  const auto calm = MakeLnsDataset(30000, 120, 0.001, 5);
  const auto wild = MakeLnsDataset(30000, 120, 0.008, 5);
  for (const std::string name : {"LPD", "LPA", "LSP"}) {
    const double mse_calm = EvaluateMechanism(*calm, name, Config(), 2).mse;
    const double mse_wild = EvaluateMechanism(*wild, name, Config(), 2).mse;
    EXPECT_GT(mse_wild, mse_calm) << name;
  }
}

// Fig. 7's headline: LSP has good MRE but poor event detection; the
// adaptive population methods detect events well.
TEST(IntegrationTest, EventDetectionLpaBeatsLsp) {
  // A stream with clear bursts.
  std::vector<double> probs(240, 0.1);
  for (std::size_t t = 0; t < probs.size(); ++t) {
    if ((t / 7) % 9 == 4) probs[t] = 0.35;  // short bursts
  }
  const auto data = std::make_shared<BinarySyntheticDataset>(
      "bursty", 50000, std::move(probs), 6);
  const auto truth = data->TrueStream();

  auto auc_of = [&](const std::string& name) {
    double total = 0.0;
    constexpr int kReps = 3;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto run = RunMechanism(*data, name, Config(1.0, 40), rep);
      std::vector<double> scores;
      std::vector<bool> labels;
      if (!PrepareEventDetection(truth, run.releases, &scores, &labels)) {
        ADD_FAILURE() << "no events in truth";
        return 0.0;
      }
      total += RocAuc(scores, labels);
    }
    return total / kReps;
  };
  const double auc_lpa = auc_of("LPA");
  const double auc_lsp = auc_of("LSP");
  EXPECT_GT(auc_lpa, auc_lsp);
  EXPECT_GT(auc_lpa, 0.8);
}

// Table 2 shape: CFPU orderings LBD > LBA > LBU = 1 and
// LPU = LSP = 1/w > LPD > LPA.
TEST(IntegrationTest, CfpuOrderingMatchesTable2) {
  const auto data = MakeLnsDataset(40000, 160, 0.0025, 7);
  const auto cfg = Config(1.0, 20);
  const double lbu = EvaluateMechanism(*data, "LBU", cfg, 2).cfpu;
  const double lbd = EvaluateMechanism(*data, "LBD", cfg, 2).cfpu;
  const double lba = EvaluateMechanism(*data, "LBA", cfg, 2).cfpu;
  const double lsp = EvaluateMechanism(*data, "LSP", cfg, 2).cfpu;
  const double lpu = EvaluateMechanism(*data, "LPU", cfg, 2).cfpu;
  const double lpd = EvaluateMechanism(*data, "LPD", cfg, 2).cfpu;
  const double lpa = EvaluateMechanism(*data, "LPA", cfg, 2).cfpu;

  EXPECT_DOUBLE_EQ(lbu, 1.0);
  EXPECT_GT(lbd, 1.0);
  EXPECT_GT(lba, 1.0);
  EXPECT_GT(lbd, lba);  // BD publishes more often than BA
  EXPECT_DOUBLE_EQ(lsp, 0.05);
  EXPECT_DOUBLE_EQ(lpu, 0.05);
  EXPECT_LT(lpd, 0.05 + 1e-12);
  EXPECT_LT(lpa, lpu);
}

// Real-world-like categorical streams work end-to-end.
TEST(IntegrationTest, CategoricalStreamsEndToEnd) {
  RealWorldSimOptions o;
  o.scale = 0.02;
  const auto data = MakeTaxiLikeDataset(o);
  for (const std::string name : {"LBA", "LPA"}) {
    const RunMetrics m = EvaluateMechanism(*data, name, Config(1.0, 5), 2);
    EXPECT_GT(m.mre, 0.0) << name;
    EXPECT_TRUE(std::isfinite(m.mre)) << name;
  }
}

}  // namespace
}  // namespace ldpids
