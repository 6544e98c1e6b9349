// Edge-of-parameter-space behaviour: degenerate windows, extreme budgets,
// minimal populations, and cross-feature interactions (post-processing on
// adaptive mechanisms, FO switching mid-family).
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "analysis/metrics.h"
#include "analysis/runner.h"
#include "core/factory.h"
#include "core/lpu.h"
#include "datagen/probability_model.h"
#include "datagen/realworld_sim.h"
#include "datagen/synthetic.h"
#include "test_util.h"

namespace ldpids {
namespace {

MechanismConfig Config(double eps, std::size_t w) {
  MechanismConfig c;
  c.epsilon = eps;
  c.window = w;
  c.seed = 5;
  return c;
}

TEST(MechanismEdgeTest, WindowOfOneBehavesLikeRepeatedOneShot) {
  // w = 1: every mechanism may spend everything at every timestamp; no
  // mechanism should throw and LBU == LPU in structure (all users, full
  // budget each step for LBU; one group = everyone for LPU).
  const auto data = MakeSinDataset(3000, 20, 0.05, 1);
  for (const std::string& name : AllMechanismNames()) {
    const RunResult run = RunMechanism(*data, name, Config(1.0, 1));
    EXPECT_EQ(run.releases.size(), 20u) << name;
  }
  const RunResult lpu = RunMechanism(*data, "LPU", Config(1.0, 1));
  EXPECT_DOUBLE_EQ(lpu.Cfpu(), 1.0);  // group size N/1 = everyone
}

TEST(MechanismEdgeTest, HugeEpsilonGivesNearExactReleases) {
  const auto data = MakeSinDataset(20000, 30, 0.05, 2);
  const auto truth = data->TrueStream();
  for (const std::string name : {"LBU", "LPU"}) {
    const RunResult run = RunMechanism(*data, name, Config(50.0, 5));
    EXPECT_LT(MeanAbsoluteError(truth, run.releases), 0.02) << name;
  }
}

TEST(MechanismEdgeTest, TinyEpsilonStillSatisfiesAccountingAndRuns) {
  const auto data = MakeSinDataset(5000, 40, 0.05, 3);
  for (const std::string& name : AllMechanismNames()) {
    EXPECT_NO_THROW(RunMechanism(*data, name, Config(0.01, 10))) << name;
  }
}

TEST(MechanismEdgeTest, MinimalPopulationForPopulationDivision) {
  // Exactly 2*w users: LPD/LPA get one dissimilarity user per timestamp.
  const auto data = MakeSinDataset(20, 25, 0.05, 4);
  for (const std::string name : {"LPD", "LPA"}) {
    const RunResult run = RunMechanism(*data, name, Config(1.0, 10));
    EXPECT_EQ(run.releases.size(), 25u) << name;
  }
}

TEST(MechanismEdgeTest, LpaConstructionAtExactPopulationBoundary) {
  // At the num_users == 2*w boundary the PopulationManager must be built
  // with the validated window, and the mechanism must run a full stream
  // (one dissimilarity user per timestamp, unit = N/(2w) = 1).
  const MechanismConfig c = Config(1.0, 10);
  const auto lpa = CreateMechanism("LPA", c, 20);
  EXPECT_EQ(lpa->name(), "LPA");
  EXPECT_EQ(lpa->config().window, 10u);
  EXPECT_EQ(lpa->num_users(), 20u);
  const auto data = MakeSinDataset(20, 25, 0.05, 11);
  const RunResult run = lpa->Run(*data);
  EXPECT_EQ(run.releases.size(), 25u);
  // One user short of the boundary must be rejected up front.
  EXPECT_THROW(CreateMechanism("LPA", c, 19), std::invalid_argument);
}

TEST(MechanismEdgeTest, PopulationMechanismsValidatePopulationUpFront) {
  // The same precondition family across all population-division mechanisms:
  // exactly-enough users construct, one fewer throws std::invalid_argument.
  const MechanismConfig c = Config(1.0, 8);
  EXPECT_NO_THROW(LpuMechanism(c, 8));
  EXPECT_THROW(LpuMechanism(c, 7), std::invalid_argument);
  EXPECT_NO_THROW(CreateMechanism("LPD", c, 16));
  EXPECT_THROW(CreateMechanism("LPD", c, 15), std::invalid_argument);
  EXPECT_NO_THROW(CreateMechanism("LPA", c, 16));
  EXPECT_THROW(CreateMechanism("LPA", c, 15), std::invalid_argument);
}

TEST(MechanismEdgeTest, PostProcessingComposesWithAdaptiveMechanisms) {
  // The processed release feeds the next dissimilarity comparison; the
  // pipeline must stay stable and at least as accurate in MRE terms.
  const auto data = MakeLnsDataset(20000, 80, 0.0025, 5);
  const auto truth = data->TrueStream();
  for (const std::string name : {"LBA", "LPA"}) {
    MechanismConfig raw = Config(1.0, 10);
    MechanismConfig pp = raw;
    pp.post_process = PostProcess::kNormSub;
    const double mre_raw =
        MeanRelativeError(truth, RunMechanism(*data, name, raw).releases);
    const double mre_pp =
        MeanRelativeError(truth, RunMechanism(*data, name, pp).releases);
    EXPECT_LT(mre_pp, mre_raw * 1.3) << name;  // never much worse
  }
}

TEST(MechanismEdgeTest, StepStreamPunishesLsp) {
  // The step workload flips levels every half-window; LSP's fixed sampling
  // misses every other level while LPA chases it.
  const auto probs = GenerateStepSequence(120, 0.1, 0.5, 7);
  const auto data =
      std::make_shared<BinarySyntheticDataset>("step", 40000, probs, 6);
  const auto truth = data->TrueStream();
  const double mse_lsp = MeanSquaredError(
      truth, RunMechanism(*data, "LSP", Config(1.0, 20)).releases);
  const double mse_lpa = MeanSquaredError(
      truth, RunMechanism(*data, "LPA", Config(1.0, 20)).releases);
  EXPECT_LT(mse_lpa, mse_lsp);
}

TEST(MechanismEdgeTest, AllFosDriveAdaptiveMechanisms) {
  const auto data = MakeSinDataset(8000, 24, 0.05, 7);
  for (const std::string& fo : AllFrequencyOracleNames()) {
    MechanismConfig c = Config(1.0, 8);
    c.fo = fo;
    for (const std::string name : {"LBA", "LPA"}) {
      EXPECT_NO_THROW(RunMechanism(*data, name, c)) << name << "+" << fo;
    }
  }
}

TEST(MechanismEdgeTest, StreamShorterThanWindow) {
  // T < w: a single (partial) window; everything must still account
  // correctly.
  const auto data = MakeSinDataset(4000, 5, 0.05, 8);
  for (const std::string& name : AllMechanismNames()) {
    const RunResult run = RunMechanism(*data, name, Config(1.0, 20));
    EXPECT_EQ(run.releases.size(), 5u) << name;
  }
}

TEST(MechanismEdgeTest, ZeroedFirstReleaseNeverLeaksNan) {
  const auto data = MakeLogDataset(4000, 15, 9);
  for (const std::string& name : AllMechanismNames()) {
    const RunResult run = RunMechanism(*data, name, Config(0.5, 10));
    for (const Histogram& r : run.releases) {
      for (double x : r) EXPECT_TRUE(std::isfinite(x)) << name;
    }
  }
}

// Bit-level pin of the four adaptive mechanisms away from session_test's
// single configuration: window sizes from 1 to 20, budgets from 0.05 to
// 20, populations at the 2w bound (and N = 7 at w = 3, where N/(2w) is
// floored), a u_min that suppresses small LPD cohorts, both
// post-processing modes, GRR and OLH, cohort and per-user simulation, on a
// binary LNS stream and a d = 17 drifting-Zipf stream. Each mechanism's
// runs chain into one digest; the digests were captured before the four
// mechanisms became one class, so any change to a schedule's arithmetic,
// an edge rule or the RNG draw order shows up here.
TEST(MechanismEdgeTest, AdaptiveMechanismsMatchEdgeGridDigests) {
  struct Shape {
    std::size_t window;
    uint64_t users;
  };
  constexpr Shape kShapes[] = {{1, 2},    {2, 4},    {3, 6},    {3, 7},
                               {8, 16},   {20, 40},  {1, 1200}, {2, 1200},
                               {3, 1200}, {8, 1200}, {20, 1200}};
  constexpr double kEpsilons[] = {0.05, 0.5, 3.0, 20.0};
  constexpr std::size_t kLength = 50;
  struct Golden {
    const char* mechanism;
    uint64_t digest;
  };
  constexpr Golden kGoldens[] = {
      {"LBD", 0x303211B99D9EA1C3ULL},
      {"LBA", 0xE041FDFF3D4C53DAULL},
      {"LPD", 0x1FD3B9BDF8EF7722ULL},
      {"LPA", 0x7FEE9BFCC38E895EULL},
  };
  for (const Golden& golden : kGoldens) {
    uint64_t digest = 1469598103934665603ULL;
    unsigned cell = 0;
    for (const Shape& shape : kShapes) {
      RealWorldSimOptions zipf;
      zipf.seed = 17 + shape.users;
      const std::shared_ptr<const StreamDataset> streams[] = {
          MakeLnsDataset(shape.users, kLength, 0.0025, 3 + shape.users),
          MakeDriftingZipfDataset("zipf", shape.users, kLength, 17,
                                  /*timestamps_per_day=*/12, zipf)};
      for (const double eps : kEpsilons) {
        for (const auto& data : streams) {
          // Rotate the four binary axes so that every 16 consecutive cells
          // cover all their combinations (7 is odd, so cell * 7 walks all
          // residues mod 16).
          const unsigned mix = (cell++ * 7) % 16;
          MechanismConfig c = Config(eps, shape.window);
          c.fo = (mix & 1) != 0 ? "OLH" : "GRR";
          c.per_user_simulation = (mix & 2) != 0;
          c.min_publication_users = (mix & 4) != 0 ? 300 : 1;
          c.post_process =
              (mix & 8) != 0 ? PostProcess::kNormSub : PostProcess::kNone;
          digest = testing::DigestRun(
              CreateMechanism(golden.mechanism, c, shape.users)->Run(*data),
              digest);
        }
      }
    }
    EXPECT_EQ(digest, golden.digest)
        << golden.mechanism << " digest 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace ldpids
