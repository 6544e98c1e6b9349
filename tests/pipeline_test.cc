// The pipelined serving path (SessionOptions::pipeline_depth > 1): rounds
// a mechanism pre-declares via CollectorContext::PlanNextCollect are
// announced early and folded on the session's ingest worker, overlapping
// the current round's estimation.
//
// The acceptance pin: the pipelined path produces releases bit-identical
// to the serial path for all 7 mechanisms x {GRR, OLH} at pipeline_depth
// in {1, 2, 4}, over both the in-process transport and a loopback-socket
// split transport with hostile delivery — pipelining reorders work, never
// packets. Plus: pipelined sessions advanced concurrently match serial
// sessions, and a session whose rounds stop arriving mid-pipeline poisons
// cleanly (deadline flush -> zero-report failure) without deadlocking the
// ingest worker.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/mechanism.h"
#include "fo/wire.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "service/client_fleet.h"
#include "service/ingest.h"
#include "service/session.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "transport/socket.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ldpids {
namespace {

using service::ClientFleet;
using service::MechanismSession;
using service::RoundRequest;
using service::SessionOptions;
using service::SplitRoundTransport;
using transport::Frame;
using transport::FrameDemux;
using transport::MakeBufferedSplitTransport;
using transport::MakeDataFrame;
using transport::RoundBuffer;
using transport::RoundBufferOptions;
using transport::SendRoundFrames;
using transport::SocketClient;
using transport::SocketListener;

constexpr std::size_t kDomain = 10;
constexpr uint64_t kUsers = 300;
constexpr std::size_t kSteps = 6;
constexpr uint64_t kSessionId = 0x9147;

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>((user + 3 * t) % kDomain);
}

MechanismConfig PipeConfig(const std::string& fo) {
  MechanismConfig c;
  c.epsilon = 1.0;
  c.window = 4;
  c.fo = fo;
  c.seed = 91;
  return c;
}

SessionOptions PipeOptions(std::size_t depth) {
  SessionOptions options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.pipeline_depth = depth;
  return options;
}

struct SessionRun {
  std::vector<StepResult> steps;
  std::string ingest_stats;
};

// Drives one session over the in-process fleet transport. The transport
// is opaque (produce + ingest in one call), so in pipelined mode planned
// rounds run whole on the ingest worker.
SessionRun RunInproc(const std::string& mechanism, const std::string& fo,
                     std::size_t depth) {
  const ClientFleet fleet(kUsers, TruthValue, 4242);
  MechanismSession session(CreateMechanism(mechanism, PipeConfig(fo), kUsers),
                           kDomain, PipeOptions(depth), fleet.Transport(1));
  SessionRun run;
  for (std::size_t t = 0; t < kSteps; ++t) {
    run.steps.push_back(session.Advance());
  }
  run.ingest_stats = session.stats().ToString();
  return run;
}

void ExpectSameRun(const SessionRun& expected, const SessionRun& actual,
                   const std::string& label, bool compare_stats = true) {
  ASSERT_EQ(actual.steps.size(), expected.steps.size()) << label;
  for (std::size_t t = 0; t < expected.steps.size(); ++t) {
    EXPECT_EQ(actual.steps[t].release, expected.steps[t].release)
        << label << " t=" << t;
    EXPECT_EQ(actual.steps[t].published, expected.steps[t].published)
        << label << " t=" << t;
    EXPECT_EQ(actual.steps[t].messages, expected.steps[t].messages)
        << label << " t=" << t;
  }
  // Stats accumulate in claim order == round order, so the whole
  // acceptance accounting must match too (a prefetched round counts only
  // once the mechanism consumes it).
  if (compare_stats) {
    EXPECT_EQ(actual.ingest_stats, expected.ingest_stats) << label;
  }
}

class PipelineEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineEquivalenceTest, PipelinedMatchesSerialAtEveryDepth) {
  const std::string mechanism = GetParam();
  for (const std::string fo : {"GRR", "OLH"}) {
    const SessionRun serial = RunInproc(mechanism, fo, 1);
    for (const std::size_t depth : {std::size_t{2}, std::size_t{4}}) {
      ExpectSameRun(serial, RunInproc(mechanism, fo, depth),
                    mechanism + "/" + fo + "/depth=" +
                        std::to_string(depth));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, PipelineEquivalenceTest,
                         ::testing::ValuesIn(AllMechanismNames()),
                         [](const auto& info) { return info.param; });

// Observability regression: with a metrics registry attached, every
// mechanism's stage-trace round counts must agree with its IngestStats
// totals at pipeline depths 1 and 2 — and the releases must stay
// bit-identical to the uninstrumented run (metrics are write-only).
TEST(PipelineStageTraceTest, StageRoundCountsMatchIngestTotals) {
  for (const std::string& mechanism : AllMechanismNames()) {
    for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
      const std::string label =
          mechanism + "/depth=" + std::to_string(depth);
      const SessionRun expected = RunInproc(mechanism, "GRR", depth);

      obs::MetricsRegistry registry;
      const ClientFleet fleet(kUsers, TruthValue, 4242);
      SessionOptions options = PipeOptions(depth);
      options.metrics = &registry;
      options.metrics_label = mechanism;
      MechanismSession session(
          CreateMechanism(mechanism, PipeConfig("GRR"), kUsers), kDomain,
          options, fleet.Transport(1));
      SessionRun run;
      for (std::size_t t = 0; t < kSteps; ++t) {
        run.steps.push_back(session.Advance());
      }
      run.ingest_stats = session.stats().ToString();
      ExpectSameRun(expected, run, label + "/instrumented");

      const obs::MetricsSnapshot snap = registry.Snapshot();
      const obs::Labels session_labels{{"session", mechanism}};
      auto stage_count = [&](obs::Stage stage) -> uint64_t {
        const auto* h = snap.FindHistogram(
            obs::kStageDurationMetric,
            {{"session", mechanism}, {"stage", obs::StageName(stage)}});
        return h == nullptr ? 0 : h->count;
      };

      // Announced rounds: one announce-stage observation per round, and
      // the rounds counter agrees with the session's own accounting.
      const uint64_t rounds = session.rounds();
      const auto* rounds_counter =
          snap.FindCounter("ldpids_session_rounds_total", session_labels);
      ASSERT_NE(rounds_counter, nullptr) << label;
      EXPECT_EQ(rounds_counter->value, rounds) << label;
      EXPECT_EQ(stage_count(obs::Stage::kAnnounce), rounds) << label;
      const auto* advances =
          snap.FindCounter("ldpids_session_advances_total", session_labels);
      ASSERT_NE(advances, nullptr) << label;
      EXPECT_EQ(advances->value, kSteps) << label;

      // Claimed rounds: the ingest-side stages all record exactly once
      // per consumed round; at depth 2 at most one announced round is
      // still prefetched (unclaimed) when the run stops.
      const uint64_t claimed = stage_count(obs::Stage::kEstimate);
      EXPECT_EQ(stage_count(obs::Stage::kTransportRtt), claimed) << label;
      EXPECT_EQ(stage_count(obs::Stage::kArenaDecode), claimed) << label;
      EXPECT_EQ(stage_count(obs::Stage::kShardFold), claimed) << label;
      EXPECT_EQ(stage_count(obs::Stage::kMerge), claimed) << label;
      EXPECT_LE(claimed, rounds) << label;
      EXPECT_LT(rounds - claimed, depth) << label;
      EXPECT_LE(stage_count(obs::Stage::kPostProcess), kSteps) << label;

      // The canonical ingest counters must reproduce IngestStats exactly:
      // accepted matches, and the result-labeled series sum to total().
      const service::IngestStats stats = session.stats();
      const auto* accepted = snap.FindCounter(
          "ldpids_ingest_reports_total",
          {{"session", mechanism}, {"result", "accepted"}});
      ASSERT_NE(accepted, nullptr) << label;
      EXPECT_EQ(accepted->value, stats.accepted) << label;
      uint64_t result_sum = 0;
      for (const auto& c : snap.counters) {
        if (c.name == "ldpids_ingest_reports_total") result_sum += c.value;
      }
      EXPECT_EQ(result_sum, stats.total()) << label;
    }
  }
}

// Socket path: the announce half fires on the session thread (producing
// the round's frames into a loopback TCP connection with shuffled +
// duplicated delivery) while the ingest worker folds earlier rounds; a
// prefetched round's traffic is therefore in flight during the previous
// round's estimate — and the releases must still match the serial
// in-process run bit for bit.
TEST(PipelineSocketTest, PipelinedSocketMatchesSerialInprocBitForBit) {
  for (const std::string fo : {"GRR", "OLH"}) {
    const SessionRun expected = RunInproc("LBA", fo, 1);

    const ClientFleet fleet(kUsers, TruthValue, 4242);
    RoundBuffer buffer;
    FrameDemux demux;
    demux.Register(kSessionId, &buffer);
    SocketListener listener(0, demux.Handler());
    SocketClient sender(listener.port());

    auto announce = [&](const RoundRequest& request) {
      auto packets = fleet.ProduceRound(request, 1);
      Rng rng(HashCounter(999, request.round_index, 0));
      for (std::size_t i = packets.size(); i > 1; --i) {
        std::swap(packets[i - 1], packets[rng.UniformInt(i)]);
      }
      const std::size_t n = packets.size();
      for (std::size_t i = 0; i < n; i += 5) {
        packets.push_back(packets[i]);  // ~1/5 duplicated in flight
      }
      SendRoundFrames(sender, kSessionId, request.round_index, packets);
    };

    SessionRun run;
    {
      MechanismSession session(
          CreateMechanism("LBA", PipeConfig(fo), kUsers), kDomain,
          PipeOptions(2), MakeBufferedSplitTransport(buffer, announce, 1));
      for (std::size_t t = 0; t < kSteps; ++t) {
        run.steps.push_back(session.Advance());
      }
      run.ingest_stats = session.stats().ToString();
      // The session destructor drains the final prefetched round (its
      // frames are already in flight) before the socket tears down.
    }
    // The hostile schedule duplicates ~1/5 of every round in flight, so
    // acceptance stats differ from the clean in-process reference by
    // exactly those rejected duplicates — the releases must not.
    ExpectSameRun(expected, run, "socket/" + fo, /*compare_stats=*/false);
    EXPECT_GT(buffer.stats().duplicate_frames, 0u) << fo;
    EXPECT_EQ(buffer.stats().masked_losses, 0u) << fo;
    EXPECT_EQ(buffer.stats().deadline_flushes, 0u) << fo;
    EXPECT_EQ(buffer.stats().dropped(), 0u) << fo;
    sender.Close();
    listener.Stop();
    EXPECT_EQ(listener.stats().errors(), 0u) << fo;
  }
}

// Pipelined sessions (one ingest worker per stream) advanced concurrently
// on the pool match serial sessions. Successive steps may run one session
// on different pool lanes; the pool's completion barrier orders them.
TEST(PipelineServerTest, PipelinedSessionsAdvancedInParallelMatchSerial) {
  const std::vector<std::string> mechanisms = {"LBA", "LBD", "LSP"};
  std::vector<std::vector<StepResult>> expected;
  for (const std::string& m : mechanisms) {
    expected.push_back(RunInproc(m, "GRR", 1).steps);
  }

  const ClientFleet fleet(kUsers, TruthValue, 4242);
  std::vector<std::unique_ptr<MechanismSession>> sessions;
  for (const std::string& m : mechanisms) {
    sessions.push_back(std::make_unique<MechanismSession>(
        CreateMechanism(m, PipeConfig("GRR"), kUsers), kDomain,
        PipeOptions(2), fleet.Transport(1)));
  }
  for (std::size_t t = 0; t < kSteps; ++t) {
    std::vector<StepResult> releases(sessions.size());
    ParallelFor(/*num_threads=*/2, sessions.size(), [&](std::size_t i) {
      releases[i] = sessions[i]->Advance();
    });
    for (std::size_t i = 0; i < mechanisms.size(); ++i) {
      EXPECT_EQ(releases[i].release, expected[i][t].release)
          << mechanisms[i] << " t=" << t;
      EXPECT_EQ(releases[i].published, expected[i][t].published)
          << mechanisms[i] << " t=" << t;
    }
  }
}

// Failure path: the clients stop reporting mid-stream while a prefetched
// round is in flight. The missing round deadline-flushes to an empty
// round, the zero-report claim fails the session permanently, and the
// ingest worker — which still holds announced-but-undelivered rounds —
// drains and shuts down without deadlocking.
TEST(PipelinePoisonTest, DeadlineFlushMidPipelinePoisonsCleanly) {
  RoundBufferOptions options;
  options.round_deadline = std::chrono::milliseconds(50);
  RoundBuffer dead_buffer(options);

  const ClientFleet fleet(kUsers, TruthValue, 4242);
  class BufferSender : public transport::FrameSender {
   public:
    explicit BufferSender(RoundBuffer& buffer) : buffer_(buffer) {}
    void Send(const Frame& frame) override {
      Frame copy = frame;
      buffer_.Deliver(std::move(copy));
    }

   private:
    RoundBuffer& buffer_;
  };
  BufferSender delivering(dead_buffer);

  // Only round 0's packets ever arrive; every later announced round times
  // out at the 50 ms deadline and flushes empty.
  auto announce = [&](const RoundRequest& request) {
    if (request.round_index > 0) return;
    SendRoundFrames(delivering, kSessionId, request.round_index,
                    fleet.ProduceRound(request, 1));
  };

  MechanismSession session(
      CreateMechanism("LBA", PipeConfig("GRR"), kUsers), kDomain,
      PipeOptions(2), MakeBufferedSplitTransport(dead_buffer, announce, 1));

  bool failed = false;
  for (std::size_t t = 0; t < 3 && !failed; ++t) {
    try {
      session.Advance();
    } catch (const std::runtime_error&) {
      failed = true;
    }
  }
  ASSERT_TRUE(failed);
  EXPECT_TRUE(session.failed());
  // Permanently failed: the w-event accounting cannot be resumed.
  EXPECT_THROW(session.Advance(), std::logic_error);
  EXPECT_GE(dead_buffer.stats().deadline_flushes, 1u);
  // Destruction joins the ingest worker; reaching the end of this test
  // without hanging is the deadlock pin.
}

}  // namespace
}  // namespace ldpids
