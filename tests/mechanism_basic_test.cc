// Per-mechanism behavioural tests: publication schedules, message counts,
// input validation, and the exact CFPU formulas of Sections 5.4.3 / 6.3.3
// for the non-adaptive methods.
#include <memory>

#include <gtest/gtest.h>

#include "analysis/runner.h"
#include "core/factory.h"
#include "datagen/synthetic.h"

namespace ldpids {
namespace {

std::shared_ptr<BinarySyntheticDataset> SmallStream(std::size_t length = 60,
                                                    uint64_t users = 4000) {
  return MakeLnsDataset(users, length, /*sqrt_q=*/0.0025, /*seed=*/5);
}

MechanismConfig SmallConfig() {
  MechanismConfig c;
  c.epsilon = 1.0;
  c.window = 10;
  c.fo = "GRR";
  c.seed = 99;
  return c;
}

TEST(FactoryTest, CreatesAllMechanisms) {
  const auto data = SmallStream();
  for (const std::string& name : AllMechanismNames()) {
    auto m = CreateMechanism(name, SmallConfig(), data->num_users());
    EXPECT_EQ(m->name(), name);
  }
  EXPECT_THROW(CreateMechanism("XYZ", SmallConfig(), 100),
               std::invalid_argument);
}

TEST(MechanismTest, ConfigValidation) {
  MechanismConfig c = SmallConfig();
  c.epsilon = 0.0;
  EXPECT_THROW(CreateMechanism("LBU", c, 100), std::invalid_argument);
  c = SmallConfig();
  c.window = 0;
  EXPECT_THROW(CreateMechanism("LBU", c, 100), std::invalid_argument);
  EXPECT_THROW(CreateMechanism("LBU", SmallConfig(), 0),
               std::invalid_argument);
  // Population methods need enough users per window.
  EXPECT_THROW(CreateMechanism("LPU", SmallConfig(), 5),
               std::invalid_argument);
  EXPECT_THROW(CreateMechanism("LPD", SmallConfig(), 15),
               std::invalid_argument);
  EXPECT_THROW(CreateMechanism("LPA", SmallConfig(), 15),
               std::invalid_argument);
}

TEST(MechanismTest, StepsMustBeSequential) {
  const auto data = SmallStream();
  auto m = CreateMechanism("LBU", SmallConfig(), data->num_users());
  m->Step(*data, 0);
  EXPECT_THROW(m->Step(*data, 2), std::logic_error);
  EXPECT_THROW(m->Step(*data, 0), std::logic_error);
  m->Step(*data, 1);
}

TEST(MechanismTest, PopulationMismatchThrows) {
  const auto data = SmallStream();
  auto m = CreateMechanism("LBU", SmallConfig(), data->num_users() + 1);
  EXPECT_THROW(m->Step(*data, 0), std::invalid_argument);
}

TEST(LbuTest, PublishesEveryTimestampWithAllUsers) {
  const auto data = SmallStream();
  auto run = RunMechanism(*data, "LBU", SmallConfig());
  EXPECT_EQ(run.num_publications, data->length());
  // CFPU = 1 exactly (Table 2 row LBU).
  EXPECT_DOUBLE_EQ(run.Cfpu(), 1.0);
  for (const auto& r : run.releases) EXPECT_EQ(r.size(), 2u);
}

TEST(LspTest, PublishesOncePerWindow) {
  const auto data = SmallStream(60);
  const MechanismConfig c = SmallConfig();  // w = 10
  auto run = RunMechanism(*data, "LSP", c);
  EXPECT_EQ(run.num_publications, 6u);  // t = 0, 10, ..., 50
  for (std::size_t t = 0; t < 60; ++t) {
    EXPECT_EQ(run.published[t], t % 10 == 0) << "t=" << t;
  }
  // CFPU = 1/w exactly (Table 2 rows LSP/LPU).
  EXPECT_DOUBLE_EQ(run.Cfpu(), 1.0 / 10.0);
}

TEST(LspTest, ApproximationsRepeatLastRelease) {
  const auto data = SmallStream(25);
  auto run = RunMechanism(*data, "LSP", SmallConfig());
  for (std::size_t t = 1; t < 10; ++t) {
    EXPECT_EQ(run.releases[t], run.releases[0]) << "t=" << t;
  }
  EXPECT_NE(run.releases[10], run.releases[9]);
}

TEST(LpuTest, OneGroupPerTimestamp) {
  const auto data = SmallStream(40, 5000);
  const MechanismConfig c = SmallConfig();  // w = 10
  auto run = RunMechanism(*data, "LPU", c);
  EXPECT_EQ(run.num_publications, 40u);  // always fresh
  // Each timestamp exactly floor(N/w) reporters -> CFPU = 1/w.
  EXPECT_DOUBLE_EQ(run.Cfpu(), 0.1);
  EXPECT_EQ(run.total_messages, 40u * 500u);
}

TEST(BudgetAdaptiveTest, CfpuBetweenOneAndTwo) {
  // LBD/LBA: every user reports each timestamp for M1, and once more at
  // publication timestamps: 1 <= CFPU = 1 + m/w <= 2.
  const auto data = SmallStream(80);
  for (const std::string name : {"LBD", "LBA"}) {
    auto run = RunMechanism(*data, name, SmallConfig());
    EXPECT_GE(run.Cfpu(), 1.0) << name;
    EXPECT_LE(run.Cfpu(), 2.0) << name;
    const double expected =
        1.0 + static_cast<double>(run.num_publications) /
                  static_cast<double>(run.timestamps);
    EXPECT_NEAR(run.Cfpu(), expected, 1e-12) << name;
  }
}

TEST(PopulationAdaptiveTest, CfpuBelowUniform) {
  // LPD/LPA report strictly fewer messages than the 1/w of LPU whenever
  // some timestamps approximate (Section 6.3.3).
  const auto data = SmallStream(80);
  for (const std::string name : {"LPD", "LPA"}) {
    auto run = RunMechanism(*data, name, SmallConfig());
    EXPECT_GT(run.Cfpu(), 0.0) << name;
    EXPECT_LT(run.Cfpu(), 1.0 / 10.0 + 1e-9) << name;
  }
}

TEST(MechanismTest, RunIsDeterministicGivenSeed) {
  const auto data = SmallStream(30);
  for (const std::string& name : AllMechanismNames()) {
    auto a = RunMechanism(*data, name, SmallConfig(), /*repetition=*/3);
    auto b = RunMechanism(*data, name, SmallConfig(), /*repetition=*/3);
    EXPECT_EQ(a.releases, b.releases) << name;
    auto c = RunMechanism(*data, name, SmallConfig(), /*repetition=*/4);
    EXPECT_NE(c.releases, a.releases) << name;
  }
}

TEST(MechanismTest, MaxTimestampsTruncatesRun) {
  const auto data = SmallStream(50);
  auto m = CreateMechanism("LBU", SmallConfig(), data->num_users());
  const RunResult run = m->Run(*data, 7);
  EXPECT_EQ(run.timestamps, 7u);
  EXPECT_EQ(run.releases.size(), 7u);
}

}  // namespace
}  // namespace ldpids
