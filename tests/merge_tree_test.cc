// The distributed aggregation tier (src/service/aggregator.h +
// fo/sketch_wire.h): partial-sketch codec, AggregatorNode / RootSession
// composition, and the UserAssignment load-balance policy.
//
// The acceptance pin: a RootSession merging K in-process aggregators'
// partial sketches releases bit-identical to a single-process
// MechanismSession ingesting the whole fleet, for all 5 oracles and
// K in {1, 2, 4} — including a hostile schedule (shuffled child ingest,
// duplicated partials, one partial arriving after the root's end-of-round
// marker). Failure rounds surface as typed SketchMergeStats: a silent
// child is `missing`, a mismatched or corrupt partial is never folded,
// and a round with no surviving users burns the session (PR 5 contract).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/mechanism.h"
#include "fo/frequency_oracle.h"
#include "fo/sketch_wire.h"
#include "fo/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "service/aggregator.h"
#include "service/client_fleet.h"
#include "service/ingest.h"
#include "service/session.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids {
namespace {

using service::AggregatorNode;
using service::AggregatorOptions;
using service::AssignMode;
using service::ClientFleet;
using service::MechanismSession;
using service::RootSession;
using service::RoundRequest;
using service::SessionOptions;
using service::UserAssignment;
using transport::MakePartialSketchFrame;
using transport::RoundBuffer;
using transport::RoundBufferOptions;

constexpr std::size_t kDomain = 10;
constexpr double kEpsilon = 1.0;
constexpr uint64_t kSessionId = 0xA11CE;
constexpr uint64_t kFleetSeed = 4242;

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>((user + 3 * t) % kDomain);
}

MechanismConfig SessionConfig(const std::string& fo) {
  MechanismConfig c;
  c.epsilon = kEpsilon;
  c.window = 4;
  c.fo = fo;
  c.seed = 91;
  return c;
}

// --- partial-sketch codec -------------------------------------------------

TEST(SketchWireTest, RoundTripsEveryField) {
  const FrequencyOracle& fo = GetFrequencyOracle("OUE");
  auto sketch = fo.CreateSketch({kEpsilon, kDomain});
  Rng rng(7);
  for (uint32_t u = 0; u < 40; ++u) sketch->AddUser(u % kDomain, rng);

  const auto payload = EncodePartialSketch(*sketch, OracleId::kOue,
                                           /*node_id=*/0xBEEF,
                                           /*round_index=*/17,
                                           /*timestamp=*/5, kEpsilon);
  EXPECT_EQ(payload.size(), EncodedPartialSketchSize(kDomain));

  PartialSketchView view;
  ASSERT_EQ(TryViewPartialSketch(payload, &view), SketchWireError::kOk);
  EXPECT_EQ(view.oracle, OracleId::kOue);
  EXPECT_EQ(view.node_id, 0xBEEFu);
  EXPECT_EQ(view.round_index, 17u);
  EXPECT_EQ(view.timestamp, 5u);
  EXPECT_EQ(view.epsilon_bits, EpsilonBits(kEpsilon));
  EXPECT_EQ(view.domain, kDomain);
  EXPECT_EQ(view.num_users, 40u);
  ASSERT_EQ(view.count_len, kDomain);
  Counts counts;
  sketch->ExportResolvedCounts(&counts);
  for (std::size_t i = 0; i < kDomain; ++i) {
    EXPECT_EQ(view.CountAt(i), counts[i]) << i;
  }

  uint64_t node = 0;
  ASSERT_TRUE(PeekPartialSketchNodeId(payload.data(), payload.size(), &node));
  EXPECT_EQ(node, 0xBEEFu);
}

TEST(SketchWireTest, TypedDecodeErrors) {
  const FrequencyOracle& fo = GetFrequencyOracle("GRR");
  auto sketch = fo.CreateSketch({kEpsilon, kDomain});
  Rng rng(3);
  sketch->AddUser(1, rng);
  auto payload =
      EncodePartialSketch(*sketch, OracleId::kGrr, 1, 0, 0, kEpsilon);
  PartialSketchView view;

  EXPECT_EQ(TryViewPartialSketch(payload.data(), 10, &view),
            SketchWireError::kTooShort);

  auto bad = payload;
  bad[0] ^= 0xFF;
  EXPECT_EQ(TryViewPartialSketch(bad, &view), SketchWireError::kBadMagic);

  bad = payload;
  bad[2] = 9;
  EXPECT_EQ(TryViewPartialSketch(bad, &view), SketchWireError::kBadVersion);

  bad = payload;
  bad[3] = 200;
  EXPECT_EQ(TryViewPartialSketch(bad, &view),
            SketchWireError::kUnknownOracle);

  // Truncating whole counts desyncs the declared length from the bytes.
  bad = payload;
  bad.resize(bad.size() - 8);
  EXPECT_EQ(TryViewPartialSketch(bad, &view),
            SketchWireError::kLengthMismatch);

  bad = payload;
  bad[kSketchWireHeaderSize] ^= 0x01;  // flip a count bit
  EXPECT_EQ(TryViewPartialSketch(bad, &view),
            SketchWireError::kChecksumMismatch);
}

// Absorbing an exported partial must be bit-identical to MergeFrom — the
// wire hop cannot perturb the exact shard-reduce, for any oracle.
TEST(SketchWireTest, AbsorbMatchesMergeFromBitForBit) {
  for (OracleId oracle : AllOracleIds()) {
    const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
    const FoParams params{kEpsilon, kDomain};

    auto base_a = fo.CreateSketch(params);
    auto base_b = fo.CreateSketch(params);
    auto peer_a = fo.CreateSketch(params);
    auto peer_b = fo.CreateSketch(params);
    for (uint32_t u = 0; u < 60; ++u) {
      const uint32_t v = u % kDomain;
      Rng r1(HashCounter(11, u, 0)), r2(HashCounter(11, u, 0));
      base_a->AddUser(v, r1);
      base_b->AddUser(v, r2);
      Rng r3(HashCounter(12, u, 0)), r4(HashCounter(12, u, 0));
      peer_a->AddUser((v + 1) % kDomain, r3);
      peer_b->AddUser((v + 1) % kDomain, r4);
    }

    base_a->MergeFrom(*peer_a);

    Counts exported;
    peer_b->ExportResolvedCounts(&exported);
    ASSERT_EQ(exported.size(), kDomain) << OracleIdName(oracle);
    ASSERT_TRUE(base_b->AbsorbCounts(exported.data(), exported.size(),
                                     peer_b->num_users()));

    EXPECT_EQ(base_a->num_users(), base_b->num_users());
    Histogram via_merge, via_absorb;
    base_a->EstimateInto(&via_merge);
    base_b->EstimateInto(&via_absorb);
    EXPECT_EQ(via_merge, via_absorb) << OracleIdName(oracle);

    // Length mismatch: typed non-throwing reject, sketch untouched.
    Counts before;
    base_b->ExportResolvedCounts(&before);
    const uint64_t users_before = base_b->num_users();
    EXPECT_FALSE(base_b->AbsorbCounts(exported.data(), exported.size() - 1,
                                      5));
    Counts after;
    base_b->ExportResolvedCounts(&after);
    EXPECT_EQ(after, before) << OracleIdName(oracle);
    EXPECT_EQ(base_b->num_users(), users_before);
  }
}

TEST(SketchWireTest, MergeRejectsWithTypedReasons) {
  const FrequencyOracle& fo = GetFrequencyOracle("SUE");
  const FoParams params{kEpsilon, kDomain};
  auto peer = fo.CreateSketch(params);
  Rng rng(5);
  for (uint32_t u = 0; u < 20; ++u) peer->AddUser(u % kDomain, rng);
  const auto good =
      EncodePartialSketch(*peer, OracleId::kSue, 3, 8, 2, kEpsilon);

  auto root = fo.CreateSketch(params);
  std::vector<uint64_t> seen;
  SketchMergeStats stats;

  auto corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_FALSE(MergePartialSketch(corrupt.data(), corrupt.size(),
                                  OracleId::kSue, 8, kEpsilon, kDomain,
                                  root.get(), &seen, &stats));
  EXPECT_EQ(stats.malformed, 1u);

  EXPECT_FALSE(MergePartialSketch(good.data(), good.size(), OracleId::kGrr,
                                  8, kEpsilon, kDomain, root.get(), &seen,
                                  &stats));
  EXPECT_EQ(stats.wrong_oracle, 1u);

  EXPECT_FALSE(MergePartialSketch(good.data(), good.size(), OracleId::kSue,
                                  9, kEpsilon, kDomain, root.get(), &seen,
                                  &stats));
  EXPECT_EQ(stats.wrong_round, 1u);

  // Epsilon digest compares bit patterns: even a 1-ulp difference rejects.
  EXPECT_FALSE(MergePartialSketch(
      good.data(), good.size(), OracleId::kSue, 8,
      std::nextafter(kEpsilon, 2.0), kDomain, root.get(), &seen, &stats));
  EXPECT_EQ(stats.params_mismatch, 1u);

  EXPECT_TRUE(MergePartialSketch(good.data(), good.size(), OracleId::kSue,
                                 8, kEpsilon, kDomain, root.get(), &seen,
                                 &stats));
  EXPECT_EQ(stats.merged, 1u);
  EXPECT_EQ(stats.users_merged, 20u);

  // Same node again within the round: duplicate, not double-counted.
  EXPECT_FALSE(MergePartialSketch(good.data(), good.size(), OracleId::kSue,
                                  8, kEpsilon, kDomain, root.get(), &seen,
                                  &stats));
  EXPECT_EQ(stats.duplicate_node, 1u);
  EXPECT_EQ(root->num_users(), 20u);
  EXPECT_EQ(stats.total(), 6u);
}

// --- UserAssignment -------------------------------------------------------

TEST(UserAssignmentTest, RangeModeIsBalancedContiguousAndExhaustive) {
  const UserAssignment assign(4, 103, AssignMode::kRange);
  const auto slices = assign.PartitionAll();
  ASSERT_EQ(slices.size(), 4u);
  uint64_t total = 0;
  uint32_t prev_last = 0;
  for (std::size_t k = 0; k < slices.size(); ++k) {
    ASSERT_FALSE(slices[k].empty());
    // Balanced within one user and contiguous across nodes.
    EXPECT_NEAR(static_cast<double>(slices[k].size()), 103.0 / 4, 1.0);
    if (k > 0) {
      EXPECT_EQ(slices[k].front(), prev_last + 1);
    }
    EXPECT_TRUE(std::is_sorted(slices[k].begin(), slices[k].end()));
    prev_last = slices[k].back();
    total += slices[k].size();
    for (uint32_t user : slices[k]) EXPECT_EQ(assign.NodeOf(user), k);
  }
  EXPECT_EQ(total, 103u);
  EXPECT_EQ(prev_last, 102u);
}

TEST(UserAssignmentTest, StableHashPartitionsThePopulation) {
  const UserAssignment assign(3, 500, AssignMode::kStableHash, 77);
  const auto slices = assign.PartitionAll();
  std::vector<uint32_t> all;
  for (std::size_t k = 0; k < slices.size(); ++k) {
    for (uint32_t user : slices[k]) {
      EXPECT_EQ(assign.NodeOf(user), k);
      all.push_back(user);
    }
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 500u);
  for (uint32_t u = 0; u < 500; ++u) EXPECT_EQ(all[u], u);
  // A hash mode must not depend on the population size: the same user maps
  // to the same node in a bigger population (stability under growth).
  const UserAssignment grown(3, 100000, AssignMode::kStableHash, 77);
  for (uint32_t u = 0; u < 500; ++u) {
    EXPECT_EQ(grown.NodeOf(u), assign.NodeOf(u));
  }
  // Pinned: node = Mix64(user ^ salt) % K. Real clients compute their node
  // the same way, so the hash must never change under them.
  const std::vector<std::size_t> pinned = {0, 1, 2, 1, 0, 0, 0, 1,
                                           0, 1, 0, 0, 0, 1, 0, 0};
  for (uint32_t u = 0; u < pinned.size(); ++u) {
    EXPECT_EQ(assign.NodeOf(u), pinned[u]) << "user " << u;
  }
  const UserAssignment four(4, 10, AssignMode::kStableHash);
  EXPECT_EQ(four.NodeOf(1000), 0u);
  EXPECT_EQ(four.NodeOf(65535), 2u);
  EXPECT_EQ(four.NodeOf(4000000000u), 2u);
}

TEST(UserAssignmentTest, CohortPartitionPreservesOrder) {
  const UserAssignment assign(2, 100, AssignMode::kRange);
  const std::vector<uint32_t> cohort = {90, 3, 55, 10, 72, 49};
  const auto slices = assign.Partition(cohort);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0], (std::vector<uint32_t>{3, 10, 49}));
  EXPECT_EQ(slices[1], (std::vector<uint32_t>{90, 55, 72}));
}

TEST(UserAssignmentTest, RejectsDegenerateShapes) {
  EXPECT_THROW(UserAssignment(0, 10), std::invalid_argument);
  EXPECT_THROW(UserAssignment(2, 0, AssignMode::kRange),
               std::invalid_argument);
}

// --- merge tree vs single process -----------------------------------------

// Drives one in-process merge tree: K AggregatorNodes, each ingesting its
// UserAssignment slice of the fleet's packets (shuffled per child — shard
// order must not matter), delivering partial sketches into the root's
// RoundBuffer. `hostile` additionally duplicates every partial and holds
// the last child's partial back until after the root's end-of-round
// marker, delivering it from a detached-then-joined thread mid-TakeRound.
class InProcessTree {
 public:
  InProcessTree(const std::string& fo_name, std::size_t num_children,
                uint64_t num_users, RoundBuffer& buffer, bool hostile)
      : fleet_(num_users, TruthValue, kFleetSeed),
        assign_(num_children, num_users, AssignMode::kRange),
        buffer_(buffer),
        hostile_(hostile) {
    const OracleId oracle = OracleIdFromName(fo_name);
    const FrequencyOracle& fo = GetFrequencyOracle(fo_name);
    for (std::size_t k = 0; k < num_children; ++k) {
      AggregatorOptions opts;
      opts.num_shards = 1;
      opts.node_id = 1000 + k;
      children_.push_back(
          std::make_unique<AggregatorNode>(fo, oracle, kDomain, opts));
    }
  }

  ~InProcessTree() {
    for (auto& t : stragglers_) t.join();
  }

  service::RoundAnnounce Announce() {
    return [this](const RoundRequest& request) { RunChildren(request); };
  }

  uint64_t dupes_sent() const { return dupes_sent_; }

 private:
  void RunChildren(const RoundRequest& request) {
    const auto slices = request.cohort != nullptr
                            ? assign_.Partition(*request.cohort)
                            : assign_.PartitionAll();
    std::vector<std::vector<uint8_t>> partials;
    for (std::size_t k = 0; k < children_.size(); ++k) {
      RoundRequest child_request = request;
      child_request.cohort = &slices[k];
      auto ingest = [this, k](const RoundRequest& req,
                              service::ReportRouter& router) {
        auto packets = fleet_.ProduceRound(req, 1);
        // Shuffle within the child: fold order must not matter.
        Rng rng(HashCounter(999, req.round_index, k));
        for (std::size_t i = packets.size(); i > 1; --i) {
          std::swap(packets[i - 1], packets[rng.UniformInt(i)]);
        }
        router.IngestBatch(packets, 1);
      };
      partials.push_back(
          children_[k]->RunRoundToPartial(child_request, ingest));
    }
    if (!hostile_) {
      for (auto& partial : partials) {
        buffer_.Deliver(MakePartialSketchFrame(
            kSessionId, request.round_index, std::move(partial)));
      }
      return;
    }
    // Hostile schedule: reversed delivery, every early partial
    // duplicated, and the last child's partial withheld entirely until
    // after the root's end-of-round marker — it lands mid-TakeRound from
    // a background thread, exercising completion-by-identity. (The
    // straggler is deliberately not duplicated upfront: a dupe would
    // carry its identity and complete the round early.)
    std::vector<uint8_t> straggler = std::move(partials.back());
    for (std::size_t i = partials.size() - 1; i-- > 0;) {
      buffer_.Deliver(MakePartialSketchFrame(kSessionId, request.round_index,
                                             partials[i]));
      buffer_.Deliver(MakePartialSketchFrame(kSessionId, request.round_index,
                                             partials[i]));
      ++dupes_sent_;
    }
    stragglers_.emplace_back(
        [this, round = request.round_index,
         payload = std::move(straggler)]() mutable {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          buffer_.Deliver(
              MakePartialSketchFrame(kSessionId, round, std::move(payload)));
        });
  }

  ClientFleet fleet_;
  UserAssignment assign_;
  RoundBuffer& buffer_;
  const bool hostile_;
  std::vector<std::unique_ptr<AggregatorNode>> children_;
  std::vector<std::thread> stragglers_;
  uint64_t dupes_sent_ = 0;
};

std::vector<Histogram> SingleProcessReference(const std::string& fo_name,
                                              uint64_t num_users,
                                              std::size_t steps) {
  const ClientFleet fleet(num_users, TruthValue, kFleetSeed);
  SessionOptions options;
  options.num_shards = 2;
  MechanismSession session(
      CreateMechanism("LBA", SessionConfig(fo_name), num_users), kDomain,
      options, fleet.Transport(1));
  std::vector<Histogram> releases;
  for (std::size_t t = 0; t < steps; ++t) {
    releases.push_back(session.Advance().release);
  }
  return releases;
}

class MergeTreeEquivalenceTest : public ::testing::TestWithParam<OracleId> {};

TEST_P(MergeTreeEquivalenceTest, RootMergeMatchesSingleProcessBitForBit) {
  const std::string fo_name = OracleIdName(GetParam());
  constexpr uint64_t kUsers = 300;
  constexpr std::size_t kSteps = 4;
  const auto expected = SingleProcessReference(fo_name, kUsers, kSteps);

  for (const std::size_t num_children : {1u, 2u, 4u}) {
    for (const bool hostile : {false, true}) {
      RoundBuffer buffer;
      InProcessTree tree(fo_name, num_children, kUsers, buffer, hostile);
      RootSession root(CreateMechanism("LBA", SessionConfig(fo_name), kUsers),
                       kDomain, SessionOptions{}, num_children, kSessionId,
                       buffer, tree.Announce());
      std::vector<Histogram> releases;
      for (std::size_t t = 0; t < kSteps; ++t) {
        releases.push_back(root.Advance().release);
      }
      EXPECT_EQ(releases, expected)
          << fo_name << " K=" << num_children << " hostile=" << hostile;

      const SketchMergeStats& merges = root.merge_stats();
      EXPECT_EQ(merges.merged, num_children * root.session().rounds())
          << fo_name << " K=" << num_children;
      EXPECT_EQ(merges.users_merged, kUsers * root.session().rounds());
      EXPECT_EQ(merges.missing, 0u);
      EXPECT_EQ(merges.malformed, 0u);
      EXPECT_EQ(merges.params_mismatch, 0u);
      if (hostile) {
        EXPECT_EQ(merges.duplicate_node, tree.dupes_sent())
            << fo_name << " K=" << num_children;
        EXPECT_EQ(buffer.stats().duplicate_frames, tree.dupes_sent());
      } else {
        EXPECT_EQ(merges.duplicate_node, 0u);
      }
      EXPECT_EQ(buffer.stats().deadline_flushes, 0u);
      EXPECT_EQ(buffer.stats().masked_losses, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOracles, MergeTreeEquivalenceTest,
                         ::testing::ValuesIn(AllOracleIds()),
                         [](const auto& info) {
                           return std::string(OracleIdName(info.param));
                         });

// A child whose slice is empty still emits a valid zero partial; the tree
// stays exact and nothing is "missing".
TEST(MergeTreeTest, ZeroReportChildKeepsTheRoundExact) {
  constexpr uint64_t kUsers = 120;
  constexpr std::size_t kSteps = 3;
  const auto expected = SingleProcessReference("OUE", kUsers, kSteps);

  const ClientFleet fleet(kUsers, TruthValue, kFleetSeed);
  const FrequencyOracle& fo = GetFrequencyOracle("OUE");
  AggregatorOptions opt0, opt1;
  opt0.node_id = 1;
  opt1.node_id = 2;
  AggregatorNode full(fo, OracleId::kOue, kDomain, opt0);
  AggregatorNode empty(fo, OracleId::kOue, kDomain, opt1);
  std::vector<uint32_t> everyone(kUsers);
  std::iota(everyone.begin(), everyone.end(), 0);
  const std::vector<uint32_t> nobody;

  RoundBuffer buffer;
  auto announce = [&](const RoundRequest& request) {
    auto ingest = [&fleet](const RoundRequest& req,
                           service::ReportRouter& router) {
      router.IngestBatch(fleet.ProduceRound(req, 1), 1);
    };
    RoundRequest all_req = request;
    all_req.cohort = request.cohort != nullptr ? request.cohort : &everyone;
    buffer.Deliver(MakePartialSketchFrame(
        kSessionId, request.round_index,
        full.RunRoundToPartial(all_req, ingest)));
    RoundRequest none_req = request;
    none_req.cohort = &nobody;
    buffer.Deliver(MakePartialSketchFrame(
        kSessionId, request.round_index,
        empty.RunRoundToPartial(none_req, ingest)));
  };

  RootSession root(CreateMechanism("LBA", SessionConfig("OUE"), kUsers),
                   kDomain, SessionOptions{}, 2, kSessionId, buffer,
                   announce);
  std::vector<Histogram> releases;
  for (std::size_t t = 0; t < kSteps; ++t) {
    releases.push_back(root.Advance().release);
  }
  EXPECT_EQ(releases, expected);
  EXPECT_EQ(root.merge_stats().merged, 2 * root.session().rounds());
  EXPECT_EQ(root.merge_stats().missing, 0u);
  EXPECT_EQ(buffer.stats().deadline_flushes, 0u);
}

// Hostile partials — wrong oracle, wrong epsilon, garbage bytes — are
// typed rejections at the root, never folded: the release still matches
// the single process exactly.
TEST(MergeTreeTest, MismatchedPartialsAreRejectedNotFolded) {
  constexpr uint64_t kUsers = 150;
  constexpr std::size_t kSteps = 2;
  const auto expected = SingleProcessReference("GRR", kUsers, kSteps);

  const ClientFleet fleet(kUsers, TruthValue, kFleetSeed);
  const FrequencyOracle& grr = GetFrequencyOracle("GRR");
  const FrequencyOracle& oue = GetFrequencyOracle("OUE");
  AggregatorOptions opts;
  opts.node_id = 7;
  AggregatorNode child(grr, OracleId::kGrr, kDomain, opts);

  RoundBuffer buffer;
  uint64_t hostiles_sent = 0;
  auto announce = [&](const RoundRequest& request) {
    auto ingest = [&fleet](const RoundRequest& req,
                           service::ReportRouter& router) {
      router.IngestBatch(fleet.ProduceRound(req, 1), 1);
    };
    auto legit = child.RunRoundToPartial(request, ingest);
    buffer.Deliver(MakePartialSketchFrame(kSessionId, request.round_index,
                                          std::move(legit)));
    // Forged partials from distinct "nodes", delivered after the legit
    // one (they add identities, so the round completes — and every one
    // must bounce with a typed reason).
    const FoParams params{request.epsilon, kDomain};
    auto forged_sketch = oue.CreateSketch(params);
    Rng rng(HashCounter(1234, request.round_index, 0));
    for (uint32_t u = 0; u < 30; ++u) forged_sketch->AddUser(1, rng);
    // Wrong oracle for this tree.
    buffer.Deliver(MakePartialSketchFrame(
        kSessionId, request.round_index,
        EncodePartialSketch(*forged_sketch, OracleId::kOue, 800,
                            request.round_index,
                            static_cast<uint32_t>(request.timestamp),
                            request.epsilon)));
    // Right oracle, tampered epsilon digest.
    auto grr_sketch = grr.CreateSketch(params);
    for (uint32_t u = 0; u < 30; ++u) grr_sketch->AddUser(2, rng);
    buffer.Deliver(MakePartialSketchFrame(
        kSessionId, request.round_index,
        EncodePartialSketch(*grr_sketch, OracleId::kGrr, 801,
                            request.round_index,
                            static_cast<uint32_t>(request.timestamp),
                            request.epsilon * 2)));
    // Plain garbage.
    buffer.Deliver(MakePartialSketchFrame(
        kSessionId, request.round_index,
        std::vector<uint8_t>{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}));
    hostiles_sent += 3;
  };

  RootSession root(CreateMechanism("LBA", SessionConfig("GRR"), kUsers),
                   kDomain, SessionOptions{}, 1, kSessionId, buffer,
                   announce);
  std::vector<Histogram> releases;
  for (std::size_t t = 0; t < kSteps; ++t) {
    releases.push_back(root.Advance().release);
  }
  EXPECT_EQ(releases, expected);
  const SketchMergeStats& merges = root.merge_stats();
  EXPECT_EQ(merges.merged, root.session().rounds());
  EXPECT_EQ(merges.wrong_oracle + merges.params_mismatch + merges.malformed,
            hostiles_sent);
  EXPECT_EQ(merges.wrong_oracle, hostiles_sent / 3);
  EXPECT_EQ(merges.params_mismatch, hostiles_sent / 3);
  EXPECT_EQ(merges.malformed, hostiles_sent / 3);
  EXPECT_EQ(merges.users_merged, kUsers * root.session().rounds());
}

// --- failure rounds -------------------------------------------------------

// One child dead mid-stream: its partial never arrives, the round flushes
// at the buffer deadline, and the root surfaces the loss as a typed
// `missing` count while the survivors' users keep the session alive.
TEST(MergeTreeTest, DeadChildSurfacesAsMissingStat) {
  constexpr uint64_t kUsers = 100;
  const ClientFleet fleet(kUsers, TruthValue, kFleetSeed);
  const FrequencyOracle& fo = GetFrequencyOracle("GRR");
  const UserAssignment assign(2, kUsers, AssignMode::kRange);
  const auto slices = assign.PartitionAll();
  AggregatorOptions opts;
  opts.node_id = 50;
  AggregatorNode survivor(fo, OracleId::kGrr, kDomain, opts);

  RoundBufferOptions buffer_options;
  buffer_options.round_deadline = std::chrono::milliseconds(50);
  RoundBuffer buffer(buffer_options);
  auto announce = [&](const RoundRequest& request) {
    RoundRequest child_request = request;
    child_request.cohort = &slices[0];
    auto ingest = [&fleet](const RoundRequest& req,
                           service::ReportRouter& router) {
      router.IngestBatch(fleet.ProduceRound(req, 1), 1);
    };
    buffer.Deliver(MakePartialSketchFrame(
        kSessionId, request.round_index,
        survivor.RunRoundToPartial(child_request, ingest)));
    // Child 1 died: nothing arrives for it, ever.
  };

  RootSession root(CreateMechanism("LBA", SessionConfig("GRR"), kUsers),
                   kDomain, SessionOptions{}, 2, kSessionId, buffer,
                   announce);
  (void)root.Advance();
  EXPECT_FALSE(root.failed());
  const SketchMergeStats& merges = root.merge_stats();
  EXPECT_EQ(merges.missing, root.session().rounds());
  EXPECT_EQ(merges.merged, root.session().rounds());
  EXPECT_EQ(merges.users_merged,
            slices[0].size() * root.session().rounds());
  EXPECT_EQ(buffer.stats().deadline_flushes, root.session().rounds());
}

// Every child dead: the round drains empty, zero users survive, and the
// session burns permanently — the PR 5 failed-round contract, verbatim.
TEST(MergeTreeTest, AllChildrenDeadBurnsTheSession) {
  constexpr uint64_t kUsers = 80;
  RoundBufferOptions buffer_options;
  buffer_options.round_deadline = std::chrono::milliseconds(30);
  RoundBuffer buffer(buffer_options);

  RootSession root(CreateMechanism("LBA", SessionConfig("GRR"), kUsers),
                   kDomain, SessionOptions{}, 3, kSessionId, buffer,
                   /*announce=*/nullptr);
  EXPECT_THROW(root.Advance(), std::runtime_error);
  EXPECT_TRUE(root.failed());
  EXPECT_THROW(root.Advance(), std::logic_error);
  EXPECT_EQ(root.merge_stats().missing, 3u * root.session().rounds());
  EXPECT_GE(buffer.stats().deadline_flushes, 1u);
}

// (ts, dur) of every slice in a rendered Chrome trace, in microseconds.
std::vector<std::pair<uint64_t, uint64_t>> TraceSlices(
    const std::string& trace) {
  std::vector<std::pair<uint64_t, uint64_t>> slices;
  for (std::size_t at = trace.find("\"ts\":"); at != std::string::npos;
       at = trace.find("\"ts\":", at + 1)) {
    const std::size_t dur = trace.find("\"dur\":", at);
    slices.emplace_back(std::stoull(trace.substr(at + 5)),
                        std::stoull(trace.substr(dur + 6)));
  }
  return slices;
}

// An aggregator node publishes each drop in one series, like a session:
// the arena's wire-level rejects under ldpids_arena_rejects_total, and
// under ldpids_ingest_reports_total only the rows the arena decoded.
TEST(MergeTreeTest, NodeMetricsCountEachDropOnce) {
  constexpr uint64_t kUsers = 200;
  const ClientFleet fleet(kUsers, TruthValue, kFleetSeed);
  obs::MetricsRegistry registry;
  AggregatorOptions opts;
  opts.metrics = &registry;
  opts.metrics_label = "leaf";
  AggregatorNode node(GetFrequencyOracle("OUE"), OracleId::kOue, kDomain,
                      opts);
  // Every 8th report arrives with a byte flipped.
  const service::RoundTransport ingest = fleet.Transport(
      1, [](std::vector<uint8_t>& packet, uint64_t user, uint64_t) {
        if (user % 8 == 0) packet[packet.size() / 2] ^= 0x5A;
        return true;
      });
  RoundRequest request;
  request.epsilon = kEpsilon;
  request.domain = kDomain;
  request.oracle = OracleId::kOue;
  service::IngestStats stats;
  (void)node.RunRoundToPartial(request, ingest, &stats);
  EXPECT_EQ(stats.malformed, kUsers / 8);
  EXPECT_EQ(stats.accepted, kUsers - kUsers / 8);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  auto count = [&](const char* series, obs::Labels labels) {
    labels.emplace_back("node", "leaf");
    const obs::CounterSample* c = snap.FindCounter(series, labels);
    return c == nullptr ? ~0ull : c->value;
  };
  EXPECT_EQ(count("ldpids_arena_rejects_total", {{"reason", "malformed"}}),
            stats.malformed);
  EXPECT_EQ(count("ldpids_arena_decoded_total", {}), stats.accepted);
  EXPECT_EQ(count("ldpids_ingest_reports_total", {{"result", "accepted"}}),
            stats.accepted);
  EXPECT_EQ(count("ldpids_ingest_reports_total", {{"result", "malformed"}}),
            ~0ull);
}

// A root runs no arena decode, shard fold or shard merge: each claimed
// round traces as transport_rtt (the wait for the partials) and
// sketch_merge, and nothing else — no [0, 0] window that would drag the
// Chrome trace's rebase to the clock's epoch, no zero observations in the
// histograms of stages the root never runs.
TEST(MergeTreeTest, RootTracesOnlyTheStagesItRuns) {
  constexpr uint64_t kUsers = 300;
  constexpr std::size_t kSteps = 4;
  for (const std::size_t num_children : {1u, 2u}) {
    RoundBuffer buffer;
    InProcessTree tree("GRR", num_children, kUsers, buffer, /*hostile=*/false);
    obs::MetricsRegistry registry;
    obs::FlightRecorder recorder;
    SessionOptions options;
    options.metrics = &registry;
    options.metrics_label = "root";
    options.recorder = &recorder;
    const uint64_t begin_ns = obs::NowNs();
    {
      RootSession root(CreateMechanism("LBA", SessionConfig("GRR"), kUsers),
                       kDomain, options, num_children, kSessionId, buffer,
                       tree.Announce());
      for (std::size_t t = 0; t < kSteps; ++t) (void)root.Advance();
    }
    const uint64_t run_us = (obs::NowNs() - begin_ns) / 1000;

    const obs::FlightRecorderSnapshot snap = recorder.Snapshot();
    ASSERT_FALSE(snap.events.empty());
    uint64_t claimed = 0;
    for (const obs::RoundEvent& ev : snap.events) {
      EXPECT_NE(ev.t_start_ns, 0u) << obs::StageName(ev.stage);
      if (ev.stage == obs::Stage::kEstimate) ++claimed;
    }
    EXPECT_GE(claimed, kSteps);

    // Rebased on the earliest event: the trace starts at 0 and spans no
    // more than the run.
    const auto slices = TraceSlices(obs::RenderChromeTrace(snap));
    ASSERT_EQ(slices.size(), snap.events.size());
    uint64_t first_ts = slices[0].first;
    for (const auto& [ts, dur] : slices) {
      first_ts = std::min(first_ts, ts);
      EXPECT_LE(ts + dur, run_us);
    }
    EXPECT_EQ(first_ts, 0u);

    const obs::MetricsSnapshot metrics = registry.Snapshot();
    auto count = [&](obs::Stage stage) -> uint64_t {
      const obs::HistogramSample* h = metrics.FindHistogram(
          obs::kStageDurationMetric,
          {{"session", "root"}, {"stage", obs::StageName(stage)}});
      return h == nullptr ? ~0ull : h->count;
    };
    EXPECT_EQ(count(obs::Stage::kArenaDecode), 0u) << num_children;
    EXPECT_EQ(count(obs::Stage::kShardFold), 0u) << num_children;
    EXPECT_EQ(count(obs::Stage::kMerge), 0u) << num_children;
    EXPECT_EQ(count(obs::Stage::kSketchMerge), claimed) << num_children;
    EXPECT_EQ(count(obs::Stage::kTransportRtt), claimed) << num_children;
  }
}

}  // namespace
}  // namespace ldpids
