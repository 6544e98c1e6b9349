// Regression pins for the mechanism-session refactor: re-expressing the
// offline Run/Step path over the CollectorContext session API must not
// change a single bit of any release stream.
//
// The golden digests below were captured from the pre-session code (the
// fused StreamMechanism::CollectViaFo(StreamDataset) path) at the listed
// configuration, for all 7 mechanisms x {GRR, OLH} x {cohort, per-user}
// simulation. They are platform-stable: the entire pipeline is seeded
// xoshiro/counter-hash arithmetic on IEEE doubles.
#include <cstddef>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "analysis/runner.h"
#include "core/factory.h"
#include "core/mechanism.h"
#include "datagen/synthetic.h"
#include "test_util.h"
#include "util/histogram.h"

namespace ldpids {
namespace {

using testing::DigestRun;

MechanismConfig PinnedConfig(const std::string& fo, bool per_user) {
  MechanismConfig c;
  c.epsilon = 1.0;
  c.window = 8;
  c.fo = fo;
  c.seed = 55;
  c.per_user_simulation = per_user;
  return c;
}

struct GoldenDigest {
  const char* mechanism;
  const char* fo;
  bool per_user;
  uint64_t digest;
};

// Captured from the pre-session implementation (PR 2 state) on
// MakeLnsDataset(4000, 40, 0.0025, 9) with PinnedConfig, repetition 0.
constexpr GoldenDigest kGoldens[] = {
    {"LBU", "GRR", false, 0x3A4A1057996DA8C9ULL},
    {"LSP", "GRR", false, 0x44FC0CFD71EB672DULL},
    {"LBD", "GRR", false, 0xF62CD7B850B9889FULL},
    {"LBA", "GRR", false, 0xE035EC7623B12F19ULL},
    {"LPU", "GRR", false, 0x2322AEC23811D703ULL},
    {"LPD", "GRR", false, 0x225E0D16A0396E07ULL},
    {"LPA", "GRR", false, 0x942567A533807D72ULL},
    {"LBU", "GRR", true, 0xAF956D093BECA523ULL},
    {"LSP", "GRR", true, 0x7EAD1764AB4D694DULL},
    {"LBD", "GRR", true, 0x4D42D2D2D8A525FDULL},
    {"LBA", "GRR", true, 0x0DEED22E4A481A2EULL},
    {"LPU", "GRR", true, 0x3D9015322C47D227ULL},
    {"LPD", "GRR", true, 0x23EC15E5BC81859FULL},
    {"LPA", "GRR", true, 0x234CB07872105801ULL},
    {"LBU", "OLH", false, 0x3F8545760C889DD1ULL},
    {"LSP", "OLH", false, 0x39D25E54B70AA04DULL},
    {"LBD", "OLH", false, 0x6386DF1099F12255ULL},
    {"LBA", "OLH", false, 0x57D52B274695F57FULL},
    {"LPU", "OLH", false, 0x57BD153CBBF769FDULL},
    {"LPD", "OLH", false, 0x40CB42AA245BBE11ULL},
    {"LPA", "OLH", false, 0x298738F21F676307ULL},
    {"LBU", "OLH", true, 0x8A02AA3F7575688FULL},
    {"LSP", "OLH", true, 0x7CE00A35101EB15DULL},
    {"LBD", "OLH", true, 0x768C393E5971EEB3ULL},
    {"LBA", "OLH", true, 0x0A01597C39661F46ULL},
    {"LPU", "OLH", true, 0x97D3717C82A4EC8CULL},
    {"LPD", "OLH", true, 0xD6E0A04EDCB12C6FULL},
    {"LPA", "OLH", true, 0x9B1940A6D85A2E86ULL},
};

TEST(SessionRegressionTest, RunOverSessionApiMatchesPreRefactorGoldens) {
  const auto data = MakeLnsDataset(4000, 40, 0.0025, 9);
  for (const GoldenDigest& golden : kGoldens) {
    const RunResult run = RunMechanism(
        *data, golden.mechanism,
        PinnedConfig(golden.fo, golden.per_user), 0);
    EXPECT_EQ(DigestRun(run), golden.digest)
        << golden.mechanism << "/" << golden.fo
        << (golden.per_user ? "/per-user" : "/cohort");
  }
}

// Driving Step(CollectorContext&, t) by hand must match Run(data) exactly:
// the offline path is a thin adapter over the session API, not a separate
// code path.
TEST(SessionApiTest, ManualSessionDriveMatchesRun) {
  const auto data = MakeLnsDataset(3000, 24, 0.0025, 4);
  for (const std::string& name : AllMechanismNames()) {
    const MechanismConfig config = PinnedConfig("GRR", false);
    auto reference = CreateMechanism(name, config, data->num_users());
    const RunResult expected = reference->Run(*data);

    auto fresh = CreateMechanism(name, config, data->num_users());
    RunResult actual;
    actual.num_users = data->num_users();
    actual.timestamps = data->length();
    // Step(data, t) builds a DatasetCollector per call; equality here
    // proves per-call collector construction is also invisible.
    for (std::size_t t = 0; t < data->length(); ++t) {
      StepResult step = fresh->Step(*data, t);
      actual.total_messages += step.messages;
      actual.num_publications += step.published ? 1 : 0;
      actual.published.push_back(step.published);
      actual.releases.push_back(std::move(step.release));
    }
    EXPECT_EQ(expected.releases, actual.releases) << name;
    EXPECT_EQ(expected.published, actual.published) << name;
    EXPECT_EQ(expected.total_messages, actual.total_messages) << name;
  }
}

TEST(SessionApiTest, SessionRunOverCollectorMatchesDatasetRun) {
  const auto data = MakeSinDataset(2500, 20, 0.05, 6);
  const MechanismConfig config = PinnedConfig("OUE", false);
  auto reference = CreateMechanism("LPA", config, data->num_users());
  const RunResult expected = reference->Run(*data);

  // Same stream via per-step session calls on a second instance (fresh
  // DatasetCollector per call, covering a non-GRR oracle).
  auto driven = CreateMechanism("LPA", config, data->num_users());
  RunResult actual;
  for (std::size_t t = 0; t < data->length(); ++t) {
    StepResult step = driven->Step(*data, t);
    actual.releases.push_back(std::move(step.release));
  }
  EXPECT_EQ(expected.releases, actual.releases);
}

TEST(SessionApiTest, StepEnforcesSequentialTimestampsThroughCollector) {
  const auto data = MakeSinDataset(1000, 10, 0.05, 3);
  auto m = CreateMechanism("LBU", PinnedConfig("GRR", false),
                           data->num_users());
  m->Step(*data, 0);
  EXPECT_THROW(m->Step(*data, 2), std::logic_error);
  EXPECT_THROW(m->Step(*data, 0), std::logic_error);
  m->Step(*data, 1);
}

TEST(SessionApiTest, CollectorPopulationMismatchThrows) {
  const auto data = MakeSinDataset(1000, 10, 0.05, 3);
  auto m = CreateMechanism("LBU", PinnedConfig("GRR", false), 999);
  EXPECT_THROW(m->Step(*data, 0), std::invalid_argument);
}

}  // namespace
}  // namespace ldpids
