// FoSketch::MergeFrom (shard-reduce) coverage for all 5 oracles.
//
// The serving layer's contract: splitting one timestamp's users across K
// shards and merging the shard sketches must equal single-sketch ingestion
// of the same reports — exactly (bitwise) for the deterministic wire path,
// and as the exact count-weighted combination for the sampled simulation
// paths.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fo/client.h"
#include "fo/frequency_oracle.h"
#include "fo/wire.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids {
namespace {

constexpr std::size_t kDomain = 12;
constexpr double kEpsilon = 1.2;
constexpr std::size_t kUsers = 600;

// Deterministic synthetic truth: user u holds u % kDomain biased by a hash.
uint32_t ValueOf(uint64_t user) {
  return static_cast<uint32_t>(HashCounter(71, user, 0) % kDomain);
}

// Wire packets for the whole population, one per user, reproducible.
std::vector<std::vector<uint8_t>> MakePackets(OracleId oracle) {
  std::vector<std::vector<uint8_t>> packets;
  packets.reserve(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    Rng rng(HashCounter(5, u, static_cast<uint64_t>(oracle)));
    packets.push_back(
        PerturbToWire(oracle, ValueOf(u), kEpsilon, kDomain, 3, u, rng));
  }
  return packets;
}

DecodedReport MustDecode(const std::vector<uint8_t>& packet) {
  DecodedReport report;
  EXPECT_EQ(TryDecodeReport(packet, kDomain, &report), WireError::kOk);
  return report;
}

class FoMergeTest : public ::testing::TestWithParam<OracleId> {};

TEST_P(FoMergeTest, KShardWireIngestMergesToSingleShardExactly) {
  const OracleId oracle = GetParam();
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  const FoParams params{kEpsilon, kDomain};
  const auto packets = MakePackets(oracle);

  auto single = fo.CreateSketch(params);
  for (const auto& p : packets) {
    ASSERT_TRUE(single->AddReport(MustDecode(p)));
  }

  for (const std::size_t shards : {2u, 3u, 7u}) {
    std::vector<std::unique_ptr<FoSketch>> shard_sketches;
    for (std::size_t s = 0; s < shards; ++s) {
      shard_sketches.push_back(fo.CreateSketch(params));
    }
    for (std::size_t i = 0; i < packets.size(); ++i) {
      ASSERT_TRUE(
          shard_sketches[i % shards]->AddReport(MustDecode(packets[i])));
    }
    auto merged = std::move(shard_sketches[0]);
    for (std::size_t s = 1; s < shards; ++s) {
      merged->MergeFrom(*shard_sketches[s]);
    }
    EXPECT_EQ(merged->num_users(), single->num_users()) << shards;
    // Bitwise: counts are additive integers, the estimate is a pure
    // function of the summed counts.
    EXPECT_EQ(merged->Estimate(), single->Estimate())
        << OracleIdName(oracle) << " shards=" << shards;
  }
}

TEST_P(FoMergeTest, MergeOfSampledShardsIsTheCountWeightedCombination) {
  // The simulated (AddUsers / AddCohort) paths consume RNG, so K-shard
  // ingestion is a different random draw than single-shard — but merging
  // must still combine the realized counts exactly: every shipped
  // estimator is affine in counts/n, so the merged estimate equals the
  // n-weighted average of the shard estimates (an identity in exact
  // arithmetic; compared here to double rounding).
  const OracleId oracle = GetParam();
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  const FoParams params{kEpsilon, kDomain};

  std::vector<uint32_t> values_a, values_b;
  for (uint64_t u = 0; u < 400; ++u) values_a.push_back(ValueOf(u));
  for (uint64_t u = 400; u < kUsers; ++u) values_b.push_back(ValueOf(u));

  Rng rng_a(101), rng_b(202);
  auto shard_a = fo.CreateSketch(params);
  auto shard_b = fo.CreateSketch(params);
  shard_a->AddUsers(values_a, rng_a);
  shard_b->AddUsers(values_b, rng_b);

  const Histogram est_a = shard_a->Estimate();
  const Histogram est_b = shard_b->Estimate();
  const double na = static_cast<double>(shard_a->num_users());
  const double nb = static_cast<double>(shard_b->num_users());

  shard_a->MergeFrom(*shard_b);
  EXPECT_EQ(shard_a->num_users(), kUsers);
  const Histogram merged = shard_a->Estimate();
  ASSERT_EQ(merged.size(), kDomain);
  for (std::size_t k = 0; k < kDomain; ++k) {
    EXPECT_NEAR(merged[k], (na * est_a[k] + nb * est_b[k]) / (na + nb),
                1e-12)
        << OracleIdName(oracle) << " bin " << k;
  }
}

TEST_P(FoMergeTest, MergeIsSeedPinnedDeterministic) {
  // Same seeds -> the merged sketch reproduces bit for bit.
  const OracleId oracle = GetParam();
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  const FoParams params{kEpsilon, kDomain};
  auto build = [&] {
    Rng rng_a(11), rng_b(22);
    auto a = fo.CreateSketch(params);
    auto b = fo.CreateSketch(params);
    std::vector<uint32_t> values(200);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = ValueOf(i);
    }
    a->AddUsers(values, rng_a);
    b->AddUsers(values, rng_b);
    a->MergeFrom(*b);
    return a->Estimate();
  };
  EXPECT_EQ(build(), build());
}

TEST_P(FoMergeTest, MergingAnEmptyShardIsANoOpOnTheEstimate) {
  const OracleId oracle = GetParam();
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  const FoParams params{kEpsilon, kDomain};
  const auto packets = MakePackets(oracle);
  auto filled = fo.CreateSketch(params);
  for (const auto& p : packets) {
    ASSERT_TRUE(filled->AddReport(MustDecode(p)));
  }
  const Histogram before = filled->Estimate();
  auto empty = fo.CreateSketch(params);
  filled->MergeFrom(*empty);
  EXPECT_EQ(filled->Estimate(), before);
  EXPECT_EQ(filled->num_users(), kUsers);
}

TEST_P(FoMergeTest, ResolveFoldsDeferredWorkOnceWithoutChangingTheEstimate) {
  // OLH queues reports and scans them in 512-report batches; HR queues
  // columns until one FWHT resolves them; the other oracles fold eagerly.
  // Resolve reports what it folded, then has nothing left, and where it
  // runs never changes a count.
  const OracleId oracle = GetParam();
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  const FoParams params{kEpsilon, kDomain};
  const auto packets = MakePackets(oracle);
  auto resolved = fo.CreateSketch(params);
  auto lazy = fo.CreateSketch(params);
  for (const auto& p : packets) {
    ASSERT_TRUE(resolved->AddReport(MustDecode(p)));
    ASSERT_TRUE(lazy->AddReport(MustDecode(p)));
  }
  uint64_t pending = 0;
  if (oracle == OracleId::kOlh) pending = kUsers % 512;
  if (oracle == OracleId::kHr) pending = kUsers;
  EXPECT_EQ(resolved->Resolve(), pending);
  EXPECT_EQ(resolved->Resolve(), 0u);
  EXPECT_EQ(resolved->Estimate(), lazy->Estimate());
  Counts exported;
  lazy->ExportResolvedCounts(&exported);
  EXPECT_EQ(lazy->Resolve(), 0u);
  EXPECT_EQ(exported.size(), kDomain);
}

TEST_P(FoMergeTest, IncompatibleMergesThrow) {
  const OracleId oracle = GetParam();
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  auto sketch = fo.CreateSketch({kEpsilon, kDomain});

  // Different domain.
  auto other_domain = fo.CreateSketch({kEpsilon, kDomain + 1});
  EXPECT_THROW(sketch->MergeFrom(*other_domain), std::invalid_argument);
  // Different epsilon (different perturbation probabilities).
  auto other_eps = fo.CreateSketch({kEpsilon * 3.0, kDomain});
  EXPECT_THROW(sketch->MergeFrom(*other_eps), std::invalid_argument);
  // Epsilon one ulp away: compared exactly, like the partial-sketch wire.
  auto ulp_eps = fo.CreateSketch({std::nextafter(kEpsilon, 2.0), kDomain});
  EXPECT_THROW(sketch->MergeFrom(*ulp_eps), std::invalid_argument);
  // Different oracle.
  for (OracleId other : AllOracleIds()) {
    if (other == oracle) continue;
    auto foreign = GetFrequencyOracle(OracleIdName(other))
                       .CreateSketch({kEpsilon, kDomain});
    EXPECT_THROW(sketch->MergeFrom(*foreign), std::invalid_argument)
        << OracleIdName(other);
  }
  // Self-merge (would double-count).
  EXPECT_THROW(sketch->MergeFrom(*sketch), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllOracles, FoMergeTest,
                         ::testing::ValuesIn(AllOracleIds()),
                         [](const auto& info) {
                           return std::string(OracleIdName(info.param));
                         });

}  // namespace
}  // namespace ldpids
