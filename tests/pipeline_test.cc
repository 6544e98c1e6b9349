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
// sessions, a session whose rounds stop arriving mid-pipeline poisons
// cleanly (deadline flush -> zero-report failure) without deadlocking the
// ingest worker, and every layer of the socket path conserves what it is
// fed under hostile traffic, each drop counted once under one series.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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
#include "fo/report_arena.h"
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
#include "util/socket_util.h"
#include "util/thread_pool.h"
#include "util/u64_set.h"

namespace ldpids {
namespace {

using service::ClientFleet;
using service::IngestStats;
using service::MakeBufferedSplitTransport;
using service::MakeBufferedTransport;
using service::MechanismSession;
using service::RoundRequest;
using service::SessionOptions;
using service::SplitRoundTransport;
using transport::Frame;
using transport::FrameDemux;
using transport::FrameStats;
using transport::MakeDataFrame;
using transport::MakeEndRoundFrame;
using transport::RoundBuffer;
using transport::RoundBufferOptions;
using transport::RoundBufferStats;
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

// Sum of one session's `name` series, over every label set or only those
// whose `key` label reads `value`.
uint64_t SeriesSum(const obs::MetricsSnapshot& snap, const std::string& name,
                   const std::string& session, const std::string& key = {},
                   const std::string& value = {}) {
  uint64_t sum = 0;
  for (const auto& c : snap.counters) {
    if (c.name != name) continue;
    bool in_session = false;
    bool in_label = key.empty();
    for (const auto& [k, v] : c.labels) {
      if (k == "session" && v == session) in_session = true;
      if (k == key && v == value) in_label = true;
    }
    if (in_session && in_label) sum += c.value;
  }
  return sum;
}

// The arena and ingest layers' conservation law on the scraped series:
// every packet the session's rounds were fed is decoded or rejected by
// the arena, and the ingest series count exactly the decoded rows
// (accepted, duplicate or sketch-rejected), so an arena reject is not
// published a second time as an ingest result.
void ExpectArenaAndIngestConserve(const obs::MetricsSnapshot& snap,
                                  const std::string& session,
                                  const IngestStats& stats,
                                  const std::string& label) {
  const uint64_t decoded =
      SeriesSum(snap, "ldpids_arena_decoded_total", session);
  const uint64_t rejects =
      SeriesSum(snap, "ldpids_arena_rejects_total", session);
  EXPECT_EQ(decoded + rejects, stats.total()) << label;
  EXPECT_EQ(rejects,
            stats.malformed + stats.wrong_oracle + stats.wrong_timestamp)
      << label;
  EXPECT_EQ(SeriesSum(snap, "ldpids_arena_wire_errors_total", session),
            SeriesSum(snap, "ldpids_arena_rejects_total", session, "reason",
                      "malformed"))
      << label;
  EXPECT_EQ(SeriesSum(snap, "ldpids_ingest_reports_total", session), decoded)
      << label;
  EXPECT_EQ(SeriesSum(snap, "ldpids_ingest_reports_total", session, "result",
                      "accepted"),
            stats.accepted)
      << label;
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

      // The canonical arena and ingest counters must reproduce IngestStats
      // exactly, each outcome under one series.
      ExpectArenaAndIngestConserve(snap, mechanism, session.stats(), label);
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
    EXPECT_EQ(buffer.stats().drops(), 0u) << fo;
    sender.Close();
    listener.Stop();
    EXPECT_EQ(listener.stats().drops(), 0u) << fo;
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

// A plain TCP connection to the listener, for bytes no FrameSender writes:
// frames damaged or cut short on the wire.
class RawConnection {
 public:
  explicit RawConnection(uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) util::ThrowErrno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      util::ThrowErrno("connect 127.0.0.1");
    }
  }
  ~RawConnection() { Close(); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  void Send(const std::vector<uint8_t>& bytes) {
    util::SendAll(fd_, bytes.data(), bytes.size());
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
};

// What each layer must count, tallied while the hostile traffic is built.
struct Sent {
  uint64_t bytes = 0;
  uint64_t frames = 0;             // frames that reach the decoder intact
  uint64_t frame_damage = 0;       // frames corrupted or truncated on the wire
  uint64_t closed_round = 0;       // replays of the round just drained
  uint64_t too_early = 0;          // frames far beyond the buffer's window
  uint64_t duplicate_frames = 0;   // extra intact copies of a data frame
  uint64_t malformed = 0;          // intact copies of damaged reports
  uint64_t accepted = 0;           // distinct undamaged reports
  uint64_t duplicate = 0;          // extra copies of undamaged reports
};

// Conservation over hostile socket traffic, at 1 and 4 shards. Reports
// are corrupted or truncated by a ClientFleet mangle hook; frames are
// corrupted or truncated on the wire, duplicated, replayed after their
// round drained, and sent far ahead of the window. For every layer,
// inflow = drops + outflow, and each layer's outflow is the next one's
// inflow — on the stats structs and on the scraped series alike:
//   frames decoded = buffered + end markers + buffer drops
//   packets drained = arena decoded + arena rejects
//   arena decoded = accepted + duplicate + sketch_rejected.
TEST(PipelineConservationTest, EveryLayerConservesHostileSocketTraffic) {
  const ClientFleet::MangleFn mangle = [](std::vector<uint8_t>& packet,
                                          uint64_t user, uint64_t round) {
    switch (HashCounter(7, user, round) % 16) {
      case 0: packet[packet.size() / 2] ^= 0x5A; break;  // corrupted
      case 1: packet.resize(packet.size() - 3); break;   // truncated
      case 2: return false;                              // lost
      default: break;
    }
    return true;
  };
  const ClientFleet fleet(kUsers, TruthValue, 4242);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const std::string label = "shards=" + std::to_string(shards);
    const std::string session_label = "hostile" + std::to_string(shards);
    obs::MetricsRegistry registry;
    RoundBuffer buffer;
    buffer.AttachMetrics(&registry, session_label);
    FrameDemux demux;
    demux.Register(kSessionId, &buffer);
    SocketListener listener(0, demux.Handler());
    listener.AttachMetrics(&registry, session_label);
    RawConnection wire(listener.port());

    Sent sent;
    // The previous round's first frames and marker, resent after it
    // drained.
    std::vector<uint8_t> replay;
    uint64_t replay_frames = 0;
    // Runs right before the session takes the round, so the previous
    // round has drained and its replayed frames are closed-round drops.
    auto announce = [&](const RoundRequest& request) {
      const uint64_t round = request.round_index;
      std::vector<uint8_t> stream;
      auto send = [&](const Frame& frame) {
        transport::AppendEncodedFrame(frame, &stream);
        ++sent.frames;
      };
      std::vector<uint8_t> next_replay;
      uint64_t next_replay_frames = 0;
      const std::vector<std::vector<uint8_t>> packets =
          fleet.ProduceRound(request, 1);
      U64Set identities;
      for (std::size_t i = 0; i < packets.size(); ++i) {
        const uint64_t user = request.cohort != nullptr
                                  ? (*request.cohort)[i]
                                  : static_cast<uint64_t>(i);
        std::vector<uint8_t> packet = packets[i];
        if (!mangle(packet, user, round)) continue;
        const bool damaged = packet != packets[i];
        const Frame frame = MakeDataFrame(kSessionId, round, packet);
        const uint64_t wire_fate = HashCounter(8, user, round) % 20;
        if (wire_fate < 2) {
          // Corrupted (a payload byte flipped) or truncated (the checksum
          // cut off): the decoder rejects it and resyncs on the next one.
          std::vector<uint8_t> bytes;
          transport::AppendEncodedFrame(frame, &bytes);
          if (wire_fate == 0) {
            bytes[bytes.size() / 2] ^= 0xA5;
          } else {
            bytes.resize(bytes.size() - 2);
          }
          stream.insert(stream.end(), bytes.begin(), bytes.end());
          ++sent.frame_damage;
          continue;
        }
        identities.Insert(
            transport::PacketIdentity(packet.data(), packet.size()));
        const uint64_t copies = wire_fate == 2 ? 2 : 1;
        for (uint64_t c = 0; c < copies; ++c) send(frame);
        sent.duplicate_frames += copies - 1;
        if (damaged) {
          sent.malformed += copies;
        } else {
          ++sent.accepted;
          sent.duplicate += copies - 1;
        }
        if (i < 8) {
          transport::AppendEncodedFrame(frame, &next_replay);
          ++next_replay_frames;
        }
      }
      stream.insert(stream.end(), replay.begin(), replay.end());
      sent.frames += replay_frames;
      sent.closed_round += replay_frames;
      send(MakeDataFrame(kSessionId, round + 5000, packets[0]));
      ++sent.too_early;
      const Frame marker =
          MakeEndRoundFrame(kSessionId, round, identities.size());
      send(marker);
      transport::AppendEncodedFrame(marker, &next_replay);
      replay = std::move(next_replay);
      replay_frames = next_replay_frames + 1;
      sent.bytes += stream.size();
      wire.Send(stream);
    };

    SessionOptions options = PipeOptions(1);
    options.num_shards = shards;
    options.metrics = &registry;
    options.metrics_label = session_label;
    IngestStats stats;
    ArenaDecodeStats arena;
    {
      const service::RoundTransport buffered_ingest =
          MakeBufferedTransport(buffer, announce, 1);
      MechanismSession session(
          CreateMechanism("LBA", PipeConfig("GRR"), kUsers), kDomain,
          options,
          [&](const RoundRequest& request, service::ReportRouter& router) {
            buffered_ingest(request, router);
            arena += router.decode_stats();
          });
      for (std::size_t t = 0; t < kSteps; ++t) session.Advance();
      stats = session.stats();
    }
    wire.Close();
    listener.Stop();
    // Every kind of damage occurred, so no law below holds vacuously.
    for (const uint64_t kind :
         {sent.frame_damage, sent.closed_round, sent.too_early,
          sent.duplicate_frames, sent.malformed, sent.duplicate}) {
      EXPECT_GT(kind, 0u) << label;
    }

    // Structs. Frames: every byte fed is in a frame or skipped, one
    // skipped byte per drop.
    const FrameStats frames = listener.stats();
    EXPECT_EQ(frames.bytes + frames.skipped_bytes, sent.bytes) << label;
    EXPECT_EQ(frames.drops(), frames.skipped_bytes) << label;
    EXPECT_EQ(frames.checksum_mismatch, sent.frame_damage) << label;
    EXPECT_EQ(frames.frames, sent.frames) << label;
    // Round buffer: its inflow is the frames decoded.
    const RoundBufferStats buffered = buffer.stats();
    EXPECT_EQ(buffered.total(), frames.frames) << label;
    EXPECT_EQ(buffered.drops(), sent.closed_round + sent.too_early) << label;
    EXPECT_EQ(buffered.closed_round_drops, sent.closed_round) << label;
    EXPECT_EQ(buffered.too_early_drops, sent.too_early) << label;
    EXPECT_EQ(buffered.duplicate_frames, sent.duplicate_frames) << label;
    EXPECT_EQ(buffered.buffered, buffered.packets_drained) << label;
    EXPECT_EQ(buffer.pending_rounds(), 0u) << label;
    EXPECT_EQ(buffered.deadline_flushes, 0u) << label;
    // Arena: its inflow is the packets drained, and every malformed packet
    // has one wire-error reason.
    EXPECT_EQ(arena.total(), buffered.packets_drained) << label;
    EXPECT_EQ(arena.total() - arena.drops(), arena.decoded) << label;
    EXPECT_EQ(arena.malformed, sent.malformed) << label;
    uint64_t wire_errors = 0;
    for (std::size_t e = 1; e < kWireErrorCount; ++e) {
      wire_errors += arena.wire_error(static_cast<WireError>(e));
    }
    EXPECT_EQ(wire_errors, arena.malformed) << label;
    // Ingest: its inflow is the rows the arena decoded, and only
    // `accepted` passes. IngestStats carries the arena's rejects too, so
    // its total() is the round's whole inflow.
    EXPECT_EQ(arena.decoded,
              stats.accepted + stats.duplicate + stats.sketch_rejected)
        << label;
    EXPECT_EQ(stats.total(), buffered.packets_drained) << label;
    EXPECT_EQ(stats.total() - stats.drops(), stats.accepted) << label;
    EXPECT_EQ(stats.malformed, sent.malformed) << label;
    EXPECT_EQ(stats.accepted, sent.accepted) << label;
    EXPECT_EQ(stats.duplicate, sent.duplicate) << label;

    // Scraped series: the same laws, read only from /metrics.
    const obs::MetricsSnapshot snap = registry.Snapshot();
    auto sum = [&](const std::string& name) {
      return SeriesSum(snap, name, session_label);
    };
    EXPECT_EQ(sum("ldpids_frame_frames_total"), frames.frames) << label;
    EXPECT_EQ(sum("ldpids_frame_errors_total"),
              sum("ldpids_frame_skipped_bytes_total"))
        << label;
    EXPECT_EQ(sum("ldpids_frame_bytes_total") +
                  sum("ldpids_frame_skipped_bytes_total"),
              sent.bytes)
        << label;
    EXPECT_EQ(sum("ldpids_frame_frames_total"),
              sum("ldpids_roundbuf_buffered_total") +
                  sum("ldpids_roundbuf_end_markers_total") +
                  sum("ldpids_roundbuf_drops_total"))
        << label;
    EXPECT_EQ(sum("ldpids_roundbuf_buffered_total"),
              sum("ldpids_roundbuf_packets_drained_total"))
        << label;
    EXPECT_EQ(sum("ldpids_roundbuf_packets_drained_total"),
              sum("ldpids_arena_decoded_total") +
                  sum("ldpids_arena_rejects_total"))
        << label;
    ExpectArenaAndIngestConserve(snap, session_label, stats, label);
  }
}

}  // namespace
}  // namespace ldpids
