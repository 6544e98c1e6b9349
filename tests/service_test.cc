// End-to-end coverage of the online serving layer (src/service/): wire
// clients, defensive sharded ingestion, incremental mechanism sessions and
// sessions advanced concurrently.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/mechanism.h"
#include "fo/client.h"
#include "fo/frequency_oracle.h"
#include "fo/wire.h"
#include "service/client_fleet.h"
#include "service/ingest.h"
#include "service/session.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ldpids {
namespace {

using service::ClientFleet;
using service::IngestStats;
using service::MechanismSession;
using service::ReportRouter;
using service::RoundRequest;
using service::SessionOptions;

constexpr std::size_t kDomain = 10;
constexpr double kEpsilon = 1.0;

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>((user + 3 * t) % kDomain);
}

// --- wire client vs simulation sketch -------------------------------------

TEST(WireClientTest, WireIngestionReproducesAddUserBitForBit) {
  // PerturbToWire draws randomness in exactly AddUser's order, so feeding
  // the decoded packets of same-seeded per-user streams into a sketch must
  // reproduce the simulation sketch exactly, for every oracle.
  for (OracleId oracle : AllOracleIds()) {
    const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
    const FoParams params{kEpsilon, kDomain};
    auto simulated = fo.CreateSketch(params);
    auto wire = fo.CreateSketch(params);
    for (uint64_t u = 0; u < 500; ++u) {
      const uint32_t value = TruthValue(u, 0);
      Rng sim_rng(HashCounter(17, u, 0));
      Rng wire_rng(HashCounter(17, u, 0));
      simulated->AddUser(value, sim_rng);
      const auto packet =
          PerturbToWire(oracle, value, kEpsilon, kDomain, 0, u, wire_rng);
      DecodedReport report;
      ASSERT_EQ(TryDecodeReport(packet, kDomain, &report), WireError::kOk);
      ASSERT_TRUE(wire->AddReport(report));
    }
    EXPECT_EQ(wire->num_users(), simulated->num_users());
    EXPECT_EQ(wire->Estimate(), simulated->Estimate())
        << OracleIdName(oracle);
  }
}

// --- ingest shard / router ------------------------------------------------

std::vector<std::vector<uint8_t>> RoundPackets(OracleId oracle,
                                               uint32_t timestamp,
                                               std::size_t n) {
  std::vector<std::vector<uint8_t>> packets;
  for (uint64_t u = 0; u < n; ++u) {
    Rng rng(HashCounter(23, u, timestamp));
    packets.push_back(PerturbToWire(oracle, TruthValue(u, timestamp),
                                    kEpsilon, kDomain, timestamp, u, rng));
  }
  return packets;
}

// One batch through a fresh router at `shards` shards (and as many
// threads, so 4 shards take the parallel fold); returns the closed round's
// stats and, through `sketch`, its merged sketch.
IngestStats IngestRound(OracleId oracle, uint32_t timestamp,
                        const std::vector<std::vector<uint8_t>>& packets,
                        std::size_t shards,
                        std::unique_ptr<FoSketch>* sketch = nullptr) {
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  ReportRouter router(fo, {kEpsilon, kDomain}, oracle, timestamp, shards);
  router.IngestBatch(packets, shards);
  IngestStats stats;
  std::unique_ptr<FoSketch> merged = router.Close(&stats);
  if (sketch != nullptr) *sketch = std::move(merged);
  return stats;
}

TEST(RouterTest, CountsEveryRejectionReasonWithoutThrowing) {
  const auto good = RoundPackets(OracleId::kGrr, 4, 2);
  auto corrupted = good[1];
  corrupted[corrupted.size() / 2] ^= 0x5A;
  const std::vector<std::vector<uint8_t>> packets = {
      good[0], corrupted,
      // Valid packet, wrong oracle for this round.
      RoundPackets(OracleId::kOlh, 4, 1)[0],
      // Valid packet, stale timestamp.
      RoundPackets(OracleId::kGrr, 3, 1)[0]};
  for (const std::size_t shards : {1u, 4u}) {
    const IngestStats stats =
        IngestRound(OracleId::kGrr, /*timestamp=*/4, packets, shards);
    EXPECT_EQ(stats.accepted, 1u) << "shards=" << shards;
    EXPECT_EQ(stats.malformed, 1u) << "shards=" << shards;
    EXPECT_EQ(stats.wrong_oracle, 1u) << "shards=" << shards;
    EXPECT_EQ(stats.wrong_timestamp, 1u) << "shards=" << shards;
    EXPECT_EQ(stats.total(), 4u) << "shards=" << shards;
    EXPECT_EQ(stats.drops(), 3u) << "shards=" << shards;
  }
}

TEST(RouterTest, SketchRangeChecksAreTheSecondLineOfDefense) {
  // A forged OLH packet with a bucket beyond g, and an HR packet with a
  // column beyond K, decode fine at wire level but must be rejected by the
  // sketch — counted, not crashed.
  for (const std::size_t shards : {1u, 4u}) {
    // g = round(e^1)+1 = 4; bucket 4000 is out of range.
    const IngestStats olh = IngestRound(
        OracleId::kOlh, 0, {EncodeOlhReport(123, 4000, 0)}, shards);
    EXPECT_EQ(olh.sketch_rejected, 1u) << "shards=" << shards;
    EXPECT_EQ(olh.total(), 1u) << "shards=" << shards;
    // K = 16 for d = 10; column 99999 is out of range.
    const IngestStats hr = IngestRound(
        OracleId::kHr, 0, {EncodeHrReport(99999, 0)}, shards);
    EXPECT_EQ(hr.sketch_rejected, 1u) << "shards=" << shards;
    EXPECT_EQ(hr.total(), 1u) << "shards=" << shards;
  }
}

class RouterShardingTest : public ::testing::TestWithParam<OracleId> {};

TEST_P(RouterShardingTest, MergedShardsMatchSingleShardBitForBit) {
  const OracleId oracle = GetParam();
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  const FoParams params{kEpsilon, kDomain};
  const auto packets = RoundPackets(oracle, 7, 800);

  ReportRouter single(fo, params, oracle, 7, 1);
  single.IngestBatch(packets, 1);
  IngestStats single_stats;
  auto single_sketch = single.Close(&single_stats);

  for (const std::size_t shards : {2u, 4u, 5u}) {
    for (const std::size_t threads : {1u, 4u}) {
      ReportRouter router(fo, params, oracle, 7, shards);
      router.IngestBatch(packets, threads);
      IngestStats stats;
      auto merged = router.Close(&stats);
      EXPECT_EQ(stats.accepted, single_stats.accepted);
      EXPECT_EQ(merged->num_users(), single_sketch->num_users());
      EXPECT_EQ(merged->Estimate(), single_sketch->Estimate())
          << OracleIdName(oracle) << " shards=" << shards
          << " threads=" << threads;
    }
  }
}

TEST_P(RouterShardingTest, CloseLeavesNoDeferredWorkForTheEstimate) {
  // Every shard's deferred per-report work (OLH's support scan, HR's FWHT
  // batch) is resolved by the end of Close, so the sketch it returns
  // has nothing left for the session's estimate to resolve; a parallel
  // fold resolves each shard on its lane before Close even starts. 300
  // reports keep every shard under OLH's 512-report resolve batch, the
  // case whose scan used to wait for the merge and the estimate.
  const OracleId oracle = GetParam();
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  const FoParams params{kEpsilon, kDomain};
  const auto packets = RoundPackets(oracle, 5, 300);
  auto reference = fo.CreateSketch(params);
  for (const auto& p : packets) {
    DecodedReport report;
    ASSERT_EQ(TryDecodeReport(p, kDomain, &report), WireError::kOk);
    ASSERT_TRUE(reference->AddReport(report));
  }
  const Histogram expected = reference->Estimate();

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 2u}) {
      ReportRouter router(fo, params, oracle, 5, shards);
      router.IngestBatch(packets, threads);
      if (threads > 1 && shards > 1) {
        for (std::size_t s = 0; s < shards; ++s) {
          EXPECT_EQ(router.shard(s).sketch().Resolve(), 0u)
              << OracleIdName(oracle) << " shards=" << shards << " shard "
              << s;
        }
      }
      auto merged = router.Close(nullptr);
      EXPECT_EQ(merged->Resolve(), 0u)
          << OracleIdName(oracle) << " shards=" << shards
          << " threads=" << threads;
      EXPECT_EQ(merged->Estimate(), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOracles, RouterShardingTest,
                         ::testing::ValuesIn(AllOracleIds()),
                         [](const auto& info) {
                           return std::string(OracleIdName(info.param));
                         });

TEST(RouterTest, CloseIsFinalAndNonceRoutingSpreadsTheUsers) {
  const FrequencyOracle& fo = GetFrequencyOracle("GRR");
  const auto packets = RoundPackets(OracleId::kGrr, 0, 9);
  for (const std::size_t shards : {1u, 4u}) {
    ReportRouter router(fo, {kEpsilon, kDomain}, OracleId::kGrr, 0, shards);
    router.IngestBatch(packets, shards);
    // Nonce routing spreads the users over the shards deterministically.
    std::size_t routed = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      routed += router.shard(s).stats().accepted;
    }
    EXPECT_EQ(routed, 9u) << "shards=" << shards;
    auto sketch = router.Close(nullptr);
    EXPECT_EQ(sketch->num_users(), 9u) << "shards=" << shards;
    EXPECT_THROW(router.IngestBatch(packets, shards), std::logic_error);
    EXPECT_THROW(router.Close(nullptr), std::logic_error);
  }
}

TEST(RouterTest, ZeroShardsPicksTheAdaptiveHardwareDefault) {
  const FrequencyOracle& fo = GetFrequencyOracle("GRR");
  ReportRouter router(fo, {kEpsilon, kDomain}, OracleId::kGrr, 0, 0);
  EXPECT_EQ(router.num_shards(), HardwareThreads());
}

TEST(RouterTest, SameWirePacketTwiceCountsTheUserOnce) {
  // Regression: a duplicated packet (network retry, replayed log) used to
  // fold into the sketch twice and double-count the user.
  const auto packets = RoundPackets(OracleId::kGrr, 0, 2);
  for (const std::size_t shards : {1u, 4u}) {
    std::unique_ptr<FoSketch> sketch;
    const IngestStats stats = IngestRound(
        OracleId::kGrr, 0, {packets[0], packets[0], packets[1]}, shards,
        &sketch);
    EXPECT_EQ(stats.accepted, 2u) << "shards=" << shards;
    EXPECT_EQ(stats.duplicate, 1u) << "shards=" << shards;
    EXPECT_EQ(sketch->num_users(), 2u) << "shards=" << shards;
  }
}

TEST(RouterTest, SketchRejectionDoesNotBurnTheNonce) {
  // A forged OLH packet wearing user 7's nonce decodes but fails the
  // sketch's range check; the real report with the same nonce, later in
  // the same round, must still be accepted.
  Rng rng(HashCounter(23, 7, 0));
  const std::vector<std::vector<uint8_t>> packets = {
      EncodeOlhReport(123, 4000, 0, /*nonce=*/7),
      PerturbToWire(OracleId::kOlh, 3, kEpsilon, kDomain, 0, 7, rng)};
  for (const std::size_t shards : {1u, 4u}) {
    const IngestStats stats = IngestRound(OracleId::kOlh, 0, packets, shards);
    EXPECT_EQ(stats.sketch_rejected, 1u) << "shards=" << shards;
    EXPECT_EQ(stats.accepted, 1u) << "shards=" << shards;
    EXPECT_EQ(stats.duplicate, 0u) << "shards=" << shards;
  }
}

TEST(RouterTest, DuplicateOutranksSketchRejection) {
  // One batch: a real report, a forgery with its nonce, a forgery with a
  // nonce a later real report uses, and that report. The duplicate
  // outranks the sketch rejection, and the rejected forgery does not burn
  // nonce 9, so exactly the two real reports fold.
  Rng rng7(HashCounter(23, 7, 0));
  Rng rng9(HashCounter(23, 9, 0));
  const std::vector<std::vector<uint8_t>> packets = {
      PerturbToWire(OracleId::kOlh, 3, kEpsilon, kDomain, 0, 7, rng7),
      EncodeOlhReport(123, 4000, 0, /*nonce=*/7),
      EncodeOlhReport(456, 4000, 0, /*nonce=*/9),
      PerturbToWire(OracleId::kOlh, 5, kEpsilon, kDomain, 0, 9, rng9)};
  auto reference = GetFrequencyOracle("OLH").CreateSketch({kEpsilon, kDomain});
  for (const std::size_t i : {0u, 3u}) {
    DecodedReport report;
    ASSERT_EQ(TryDecodeReport(packets[i], kDomain, &report), WireError::kOk);
    ASSERT_TRUE(reference->AddReport(report));
  }
  for (const std::size_t shards : {1u, 4u}) {
    std::unique_ptr<FoSketch> merged;
    const IngestStats stats =
        IngestRound(OracleId::kOlh, 0, packets, shards, &merged);
    EXPECT_EQ(stats.accepted, 2u) << "shards=" << shards;
    EXPECT_EQ(stats.duplicate, 1u) << "shards=" << shards;
    EXPECT_EQ(stats.sketch_rejected, 1u) << "shards=" << shards;
    EXPECT_EQ(stats.total(), 4u) << "shards=" << shards;
    EXPECT_EQ(merged->num_users(), reference->num_users());
    EXPECT_EQ(merged->Estimate(), reference->Estimate());
  }
}

TEST_P(RouterShardingTest, DuplicatedDeliveryNeverChangesTheMergedSketch) {
  // Duplicates colocate with their original (nonce partition), so the
  // deduplicated merge is bit-identical to clean single-shard ingestion at
  // every shard count — and regardless of where the copies sit in the
  // batch.
  const OracleId oracle = GetParam();
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  const FoParams params{kEpsilon, kDomain};
  const auto clean = RoundPackets(oracle, 3, 200);

  ReportRouter reference(fo, params, oracle, 3, 1);
  reference.IngestBatch(clean, 1);
  auto expected = reference.Close(nullptr);

  auto noisy = clean;
  for (std::size_t i = 0; i < clean.size(); i += 7) {
    noisy.push_back(clean[i]);  // re-delivered copies arrive late
  }
  for (const std::size_t shards : {1u, 4u}) {
    ReportRouter router(fo, params, oracle, 3, shards);
    router.IngestBatch(noisy, 2);
    IngestStats stats;
    auto merged = router.Close(&stats);
    EXPECT_EQ(stats.duplicate, (clean.size() + 6) / 7)
        << OracleIdName(oracle) << " shards=" << shards;
    EXPECT_EQ(merged->num_users(), expected->num_users());
    EXPECT_EQ(merged->Estimate(), expected->Estimate())
        << OracleIdName(oracle) << " shards=" << shards;
  }
}

// --- mechanism sessions ---------------------------------------------------

MechanismConfig SessionConfig(const std::string& mechanism_fo = "GRR") {
  MechanismConfig c;
  c.epsilon = kEpsilon;
  c.window = 4;
  c.fo = mechanism_fo;
  c.seed = 91;
  return c;
}

std::unique_ptr<MechanismSession> MakeSession(const std::string& mechanism,
                                              const ClientFleet& fleet,
                                              std::size_t shards,
                                              std::size_t threads,
                                              const std::string& fo = "GRR") {
  SessionOptions options;
  options.num_shards = shards;
  options.num_threads = threads;
  return std::make_unique<MechanismSession>(
      CreateMechanism(mechanism, SessionConfig(fo), fleet.num_users()),
      kDomain, options, fleet.Transport(threads));
}

TEST(MechanismSessionTest, EveryMechanismServesOnlineEndToEnd) {
  const ClientFleet fleet(600, TruthValue, 2718);
  for (const std::string& name : AllMechanismNames()) {
    auto session = MakeSession(name, fleet, 2, 1);
    for (std::size_t t = 0; t < 10; ++t) {
      EXPECT_EQ(session->next_timestamp(), t);
      const StepResult step = session->Advance();
      ASSERT_EQ(step.release.size(), kDomain) << name << " t=" << t;
      for (double v : step.release) {
        EXPECT_TRUE(std::isfinite(v)) << name;
      }
    }
    // The server only saw wire packets; every accepted report is counted.
    EXPECT_GT(session->rounds(), 0u) << name;
    EXPECT_GT(session->stats().accepted, 0u) << name;
    EXPECT_EQ(session->stats().drops(), 0u) << name;
  }
}

TEST(MechanismSessionTest, BudgetDivisionAccountingMatchesTheCohorts) {
  // LBU: whole population, one round per timestamp.
  const ClientFleet fleet(500, TruthValue, 1);
  auto session = MakeSession("LBU", fleet, 3, 1);
  for (std::size_t t = 0; t < 6; ++t) session->Advance();
  EXPECT_EQ(session->rounds(), 6u);
  EXPECT_EQ(session->stats().accepted, 6u * 500u);
}

TEST(MechanismSessionTest, ShardAndThreadCountsNeverChangeReleases) {
  // Sharded merge is exact and fleet randomness is stateless per
  // (user, round), so the released stream is bit-identical across every
  // shard/thread configuration.
  const ClientFleet fleet(600, TruthValue, 5050);
  auto reference = MakeSession("LPA", fleet, 1, 1);
  std::vector<Histogram> expected;
  for (std::size_t t = 0; t < 8; ++t) {
    expected.push_back(reference->Advance().release);
  }
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t threads : {1u, 4u}) {
      const ClientFleet same_fleet(600, TruthValue, 5050);
      auto session = MakeSession("LPA", same_fleet, shards, threads);
      for (std::size_t t = 0; t < 8; ++t) {
        EXPECT_EQ(session->Advance().release, expected[t])
            << "shards=" << shards << " threads=" << threads << " t=" << t;
      }
    }
  }
}

TEST(MechanismSessionTest, NonGrrOraclesServeOnline) {
  for (const std::string fo : {"OUE", "OLH", "SUE", "HR"}) {
    const ClientFleet fleet(400, TruthValue, 11);
    auto session = MakeSession("LBD", fleet, 2, 1, fo);
    for (std::size_t t = 0; t < 5; ++t) {
      const StepResult step = session->Advance();
      ASSERT_EQ(step.release.size(), kDomain) << fo;
    }
    EXPECT_EQ(session->stats().drops(), 0u) << fo;
  }
}

TEST(MechanismSessionTest, CorruptedPacketsAreCountedAndSurvived) {
  const ClientFleet fleet(800, TruthValue, 404);
  SessionOptions options;
  options.num_shards = 2;
  options.num_threads = 1;
  // Corrupt every 10th user's packet in transit; drop every 97th.
  auto mangle = [](std::vector<uint8_t>& packet, uint64_t user,
                   uint64_t round) {
    (void)round;
    if (user % 97 == 0) return false;
    if (user % 10 == 0) packet[packet.size() / 2] ^= 0xFF;
    return true;
  };
  auto session = std::make_unique<MechanismSession>(
      CreateMechanism("LBU", SessionConfig(), fleet.num_users()), kDomain,
      options, fleet.Transport(1, mangle));
  for (std::size_t t = 0; t < 4; ++t) {
    const StepResult step = session->Advance();
    EXPECT_EQ(step.release.size(), kDomain);
  }
  EXPECT_GT(session->stats().malformed, 0u);
  EXPECT_GT(session->stats().accepted, 0u);
  EXPECT_EQ(session->stats().wrong_timestamp, 0u);
}

TEST(MechanismSessionTest, EmptyRoundThrowsInsteadOfFabricatingAnEstimate) {
  const ClientFleet fleet(100, TruthValue, 12);
  SessionOptions options;
  auto drop_all = [](std::vector<uint8_t>& packet, uint64_t, uint64_t) {
    (void)packet;
    return false;
  };
  MechanismSession session(
      CreateMechanism("LBU", SessionConfig(), fleet.num_users()), kDomain,
      options, fleet.Transport(1, drop_all));
  EXPECT_FALSE(session.failed());
  EXPECT_THROW(session.Advance(), std::runtime_error);
  // The failure interrupted the mechanism's w-event accounting mid-step,
  // so the session is permanently failed: no replays, no skips.
  EXPECT_TRUE(session.failed());
  EXPECT_THROW(session.Advance(), std::logic_error);
}

TEST(MechanismSessionTest, ConstructorValidates) {
  const ClientFleet fleet(100, TruthValue, 1);
  EXPECT_THROW(MechanismSession(nullptr, kDomain, {}, fleet.Transport(1)),
               std::invalid_argument);
  EXPECT_THROW(
      MechanismSession(CreateMechanism("LBU", SessionConfig(), 100), 1, {},
                       fleet.Transport(1)),
      std::invalid_argument);
  EXPECT_THROW(
      MechanismSession(CreateMechanism("LBU", SessionConfig(), 100),
                       kDomain, {}, nullptr),
      std::invalid_argument);
}

// --- concurrent sessions --------------------------------------------------

TEST(MechanismSessionTest, ParallelAdvanceMatchesSerialSessions) {
  const std::vector<std::string> mechanisms = {"LBU", "LBA", "LPU", "LPA"};
  constexpr std::size_t kSteps = 6;

  // Reference: each session advanced serially on its own.
  std::vector<std::vector<Histogram>> expected;
  for (const std::string& name : mechanisms) {
    const ClientFleet fleet(600, TruthValue, 7000 + expected.size());
    auto session = MakeSession(name, fleet, 2, 1);
    std::vector<Histogram> releases;
    for (std::size_t t = 0; t < kSteps; ++t) {
      releases.push_back(session->Advance().release);
    }
    expected.push_back(std::move(releases));
  }

  // Same sessions advanced concurrently on the pool, one lane each.
  std::vector<std::unique_ptr<ClientFleet>> fleets;
  std::vector<std::unique_ptr<MechanismSession>> sessions;
  for (std::size_t i = 0; i < mechanisms.size(); ++i) {
    fleets.push_back(
        std::make_unique<ClientFleet>(600, TruthValue, 7000 + i));
    sessions.push_back(MakeSession(mechanisms[i], *fleets[i], 2, 1));
  }
  for (std::size_t t = 0; t < kSteps; ++t) {
    std::vector<StepResult> releases(sessions.size());
    ParallelFor(/*num_threads=*/4, sessions.size(), [&](std::size_t i) {
      releases[i] = sessions[i]->Advance();
    });
    for (std::size_t i = 0; i < mechanisms.size(); ++i) {
      EXPECT_EQ(releases[i].release, expected[i][t])
          << mechanisms[i] << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace ldpids
