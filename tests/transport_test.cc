// The network transport subsystem (src/transport/): frame codec, streaming
// decoder, loopback socket + batch-file transports, and the out-of-order
// RoundBuffer in front of the sharded ingest.
//
// The acceptance pin: a MechanismSession driven over the loopback socket
// with shuffled + late (after the end-of-round marker) + duplicated
// delivery produces releases bit-identical to the in-process transport for
// all 5 oracles, and a batch-file replay of the recorded frames reproduces
// them again.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/mechanism.h"
#include "fo/wire.h"
#include "service/client_fleet.h"
#include "service/session.h"
#include "test_util.h"
#include "transport/batch_file.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "transport/socket.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids {
namespace {

using service::ClientFleet;
using testing::VmSizeKb;
using service::MechanismSession;
using service::RoundRequest;
using service::SessionOptions;
using transport::DeliverResult;
using transport::Frame;
using transport::FrameDecoder;
using transport::FrameDemux;
using transport::FrameKind;
using transport::FrameLogWriter;
using transport::FrameSender;
using transport::FrameStats;
using transport::MakeBufferedTransport;
using transport::MakeDataFrame;
using transport::MakeEndRoundFrame;
using transport::RoundBuffer;
using transport::RoundBufferOptions;
using transport::SendRoundFrames;
using transport::SocketClient;
using transport::SocketListener;

constexpr std::size_t kDomain = 10;
constexpr double kEpsilon = 1.0;
constexpr uint64_t kSessionId = 0xA11CE;

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

// --- frame codec ----------------------------------------------------------

// Encodes `frame` and decodes it back through a fresh FrameDecoder.
bool RoundTrip(const Frame& frame, Frame* out, std::vector<uint8_t>* bytes) {
  transport::AppendEncodedFrame(frame, bytes);
  FrameDecoder decoder;
  decoder.Append(*bytes);
  const bool decoded = decoder.Next(out);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  return decoded;
}

TEST(FrameCodecTest, DataFrameRoundTrips) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const Frame frame = MakeDataFrame(7, 42, payload);
  std::vector<uint8_t> bytes;
  Frame decoded;
  ASSERT_TRUE(RoundTrip(frame, &decoded, &bytes));
  EXPECT_EQ(bytes.size(), transport::EncodedFrameSize(payload.size()));
  EXPECT_EQ(decoded.session_id, 7u);
  EXPECT_EQ(decoded.timestamp, 42u);
  EXPECT_EQ(decoded.kind, FrameKind::kData);
  EXPECT_EQ(decoded.payload, payload);
}

TEST(FrameCodecTest, EndRoundMarkerCarriesTheExpectedCount) {
  const Frame marker = MakeEndRoundFrame(9, 3, 12345);
  EXPECT_EQ(transport::EndRoundExpected(marker), 12345u);
  std::vector<uint8_t> bytes;
  Frame decoded;
  ASSERT_TRUE(RoundTrip(marker, &decoded, &bytes));
  EXPECT_EQ(decoded.kind, FrameKind::kEndRound);
  EXPECT_EQ(transport::EndRoundExpected(decoded), 12345u);
  EXPECT_THROW(transport::EndRoundExpected(MakeDataFrame(1, 1, {})),
               std::invalid_argument);
}

TEST(FrameCodecTest, OversizePayloadIsRejectedAtBothEnds) {
  Frame frame = MakeDataFrame(1, 1, {});
  frame.payload = std::vector<uint8_t>(transport::kMaxFramePayload + 1);
  std::vector<uint8_t> out;
  EXPECT_THROW(transport::AppendEncodedFrame(frame, &out),
               std::invalid_argument);

  // A forged length field above the cap must be a typed reject, not an
  // attempted 4 GiB allocation.
  std::vector<uint8_t> bytes;
  transport::AppendEncodedFrame(MakeDataFrame(1, 1, {9, 9, 9}), &bytes);
  bytes[22] = 0xFF;  // payload length bytes 20-23
  FrameDecoder decoder;
  decoder.Append(bytes);
  Frame decoded;
  EXPECT_FALSE(decoder.Next(&decoded));
  EXPECT_EQ(decoder.stats().oversize, 1u);
}

// Batching senders append thousands of frames to one buffer; an exact
// per-frame reserve would reallocate on every append (quadratic copying).
TEST(FrameCodecTest, AppendingManyFramesGrowsGeometrically) {
  constexpr std::size_t kFrames = 10000;
  const std::vector<uint8_t> payload(28, 0x3C);
  std::vector<uint8_t> out;
  std::size_t capacity = out.capacity();
  std::size_t capacity_changes = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    transport::AppendEncodedFrame(MakeDataFrame(1, i, payload), &out);
    if (out.capacity() != capacity) {
      capacity = out.capacity();
      ++capacity_changes;
    }
  }
  EXPECT_EQ(out.size(), kFrames * transport::EncodedFrameSize(payload.size()));
  EXPECT_LE(capacity_changes,
            static_cast<std::size_t>(std::log2(kFrames)) + 8);
}

TEST(FrameDecoderTest, SplitAndMergedReadsYieldTheSameFrames) {
  std::vector<Frame> sent;
  std::vector<uint8_t> stream;
  Rng rng(11);
  for (uint64_t i = 0; i < 40; ++i) {
    std::vector<uint8_t> payload(rng.UniformInt(60));
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextU64());
    sent.push_back(MakeDataFrame(i % 3, i, payload));
    transport::AppendEncodedFrame(sent.back(), &stream);
  }

  // Byte-by-byte, all-at-once, and random chunk sizes must all reassemble
  // the identical frame sequence.
  for (int mode = 0; mode < 3; ++mode) {
    FrameDecoder decoder;
    std::size_t fed = 0;
    std::size_t count = 0;
    Frame frame;
    Rng chunk_rng(mode);
    while (fed < stream.size()) {
      std::size_t n = mode == 0   ? 1
                      : mode == 1 ? stream.size()
                                  : 1 + chunk_rng.UniformInt(97);
      n = std::min(n, stream.size() - fed);
      decoder.Append(stream.data() + fed, n);
      fed += n;
      while (decoder.Next(&frame)) {
        ASSERT_LT(count, sent.size());
        EXPECT_EQ(frame.session_id, sent[count].session_id);
        EXPECT_EQ(frame.timestamp, sent[count].timestamp);
        EXPECT_EQ(frame.payload, sent[count].payload);
        ++count;
      }
    }
    EXPECT_EQ(count, sent.size()) << "mode " << mode;
    EXPECT_EQ(decoder.stats().frames, sent.size());
    EXPECT_EQ(decoder.stats().drops(), 0u);
    EXPECT_EQ(decoder.pending_bytes(), 0u);
  }
}

TEST(FrameDecoderTest, ResynchronizesPastCorruptionAndCountsIt) {
  std::vector<uint8_t> stream;
  for (uint64_t i = 0; i < 10; ++i) {
    transport::AppendEncodedFrame(MakeDataFrame(1, i, {1, 2, 3}), &stream);
  }
  const std::size_t frame_size = transport::EncodedFrameSize(3);
  // Corrupt one byte inside frame 4's payload.
  stream[4 * frame_size + 25] ^= 0xFF;

  FrameDecoder decoder;
  decoder.Append(stream);
  Frame frame;
  std::vector<uint64_t> timestamps;
  while (decoder.Next(&frame)) timestamps.push_back(frame.timestamp);
  // Every frame except the corrupted one survives.
  EXPECT_EQ(timestamps,
            (std::vector<uint64_t>{0, 1, 2, 3, 5, 6, 7, 8, 9}));
  EXPECT_GT(decoder.stats().drops(), 0u);
  EXPECT_GT(decoder.stats().skipped_bytes, 0u);
}

// --- round buffer ---------------------------------------------------------

std::vector<std::vector<uint8_t>> FakePackets(std::size_t n, uint8_t tag) {
  std::vector<std::vector<uint8_t>> packets;
  for (std::size_t i = 0; i < n; ++i) {
    packets.push_back({tag, static_cast<uint8_t>(i)});
  }
  return packets;
}

TEST(RoundBufferTest, EarlyRoundsAreHeldUntilTheirTurn) {
  RoundBuffer buffer;
  // Round 1 arrives completely before round 0.
  for (auto& p : FakePackets(3, 1)) {
    EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 1, std::move(p))),
              DeliverResult::kBuffered);
  }
  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 1, 3)),
            DeliverResult::kEndMarker);
  for (auto& p : FakePackets(2, 0)) {
    buffer.Deliver(MakeDataFrame(0, 0, std::move(p)));
  }
  buffer.Deliver(MakeEndRoundFrame(0, 0, 2));

  EXPECT_EQ(buffer.TakeRound(0), FakePackets(2, 0));
  EXPECT_EQ(buffer.TakeRound(1), FakePackets(3, 1));
  EXPECT_EQ(buffer.next_round(), 2u);
  EXPECT_EQ(buffer.stats().rounds_drained, 2u);
  EXPECT_EQ(buffer.stats().packets_drained, 5u);
  EXPECT_EQ(buffer.stats().drops(), 0u);
}

TEST(RoundBufferTest, StragglersAfterTheMarkerStillCount) {
  // The marker announces 3 distinct packets but arrives first
  // (marker-before-data); the round is complete only once all 3 land.
  RoundBuffer buffer;
  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 0, 3)),
            DeliverResult::kEndMarker);
  EXPECT_EQ(buffer.pending_rounds(), 1u);
  auto packets = FakePackets(3, 0);
  for (auto& p : packets) {
    buffer.Deliver(MakeDataFrame(0, 0, std::move(p)));
  }
  EXPECT_EQ(buffer.TakeRound(0), FakePackets(3, 0));
  EXPECT_EQ(buffer.stats().deadline_flushes, 0u);
  EXPECT_EQ(buffer.pending_rounds(), 0u);
}

TEST(RoundBufferTest, DuplicateCannotMaskALostPacket) {
  // Regression for the completion accounting: the sender announces 3
  // distinct packets; the network duplicates one and loses another, so 3
  // raw frames arrive but only 2 distinct packets. Counting raw arrivals
  // (the old logic) released the round as "complete" while silently
  // missing a real packet — completion must count identities.
  RoundBufferOptions options;
  options.round_deadline = std::chrono::milliseconds(50);
  RoundBuffer buffer(options);
  auto packets = FakePackets(3, 0);  // A, B, C
  buffer.Deliver(MakeEndRoundFrame(0, 0, 3));
  buffer.Deliver(MakeDataFrame(0, 0, std::vector<uint8_t>(packets[0])));
  buffer.Deliver(MakeDataFrame(0, 0, std::vector<uint8_t>(packets[0])));
  buffer.Deliver(MakeDataFrame(0, 0, std::vector<uint8_t>(packets[1])));
  // C never arrives. The round must NOT complete; the deadline flush hands
  // back the partial round and counts the masked loss.
  const auto drained = buffer.TakeRound(0);
  EXPECT_EQ(drained.size(), 3u);  // A, dup(A), B — all buffered frames
  EXPECT_EQ(buffer.stats().deadline_flushes, 1u);
  EXPECT_EQ(buffer.stats().masked_losses, 1u);
  EXPECT_EQ(buffer.stats().duplicate_frames, 1u);

  // Same delivery plus the "lost" packet: completes without any flush.
  buffer.Deliver(MakeEndRoundFrame(0, 1, 3));
  for (int copy = 0; copy < 2; ++copy) {
    buffer.Deliver(MakeDataFrame(0, 1, std::vector<uint8_t>(packets[0])));
  }
  buffer.Deliver(MakeDataFrame(0, 1, std::vector<uint8_t>(packets[1])));
  buffer.Deliver(MakeDataFrame(0, 1, std::vector<uint8_t>(packets[2])));
  EXPECT_EQ(buffer.TakeRound(1).size(), 4u);
  EXPECT_EQ(buffer.stats().deadline_flushes, 1u);  // unchanged
  EXPECT_EQ(buffer.stats().masked_losses, 1u);     // unchanged
}

TEST(RoundBufferTest, MarkerForClosedRoundIsATypedDropNotAFreshRound) {
  // Regression: an end-of-round marker for an already-drained round must
  // be counted as kClosedRound, never armed as a fresh PendingRound that
  // pins memory forever.
  RoundBuffer buffer;
  buffer.Deliver(MakeDataFrame(0, 0, {1}));
  buffer.Deliver(MakeEndRoundFrame(0, 0, 1));
  EXPECT_EQ(buffer.TakeRound(0).size(), 1u);
  EXPECT_EQ(buffer.pending_rounds(), 0u);

  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 0, 7)),
            DeliverResult::kClosedRound);
  EXPECT_EQ(buffer.stats().closed_round_drops, 1u);
  EXPECT_EQ(buffer.pending_rounds(), 0u);
}

TEST(RoundBufferTest, MarkerOutsideTheAdmissionWindowArmsNoState) {
  RoundBufferOptions options;
  options.max_lateness = 2;
  options.max_buffered_rounds = 8;
  RoundBuffer buffer(options);

  // A marker beyond max_buffered_rounds is a typed drop, not a pinned
  // pending round.
  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 8, 5)),
            DeliverResult::kTooEarly);
  EXPECT_EQ(buffer.stats().too_early_drops, 1u);
  EXPECT_EQ(buffer.pending_rounds(), 0u);

  // Establish round 5 as the newest traffic, then a marker too far behind
  // it is a kTooLate drop with no state armed for its round.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 5, {1})),
            DeliverResult::kBuffered);
  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 2, 1)),
            DeliverResult::kTooLate);
  EXPECT_EQ(buffer.stats().too_late_drops, 1u);
  EXPECT_EQ(buffer.pending_rounds(), 1u);  // only round 5's data
}

TEST(RoundBufferTest, WatermarkPolicyDropsWithTypedReasons) {
  RoundBufferOptions options;
  options.max_lateness = 2;
  options.max_buffered_rounds = 8;
  RoundBuffer buffer(options);

  // Establish round 5 as the newest traffic.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 5, {1})),
            DeliverResult::kBuffered);
  // 3 + 2 >= 5: still inside the lateness window.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 3, {1})),
            DeliverResult::kBuffered);
  // 2 + 2 < 5: too far behind live traffic.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 2, {1})),
            DeliverResult::kTooLate);
  // 8 >= 0 + 8: too far ahead of the next round to drain.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 8, {1})),
            DeliverResult::kTooEarly);

  EXPECT_EQ(buffer.stats().too_late_drops, 1u);
  EXPECT_EQ(buffer.stats().too_early_drops, 1u);
  EXPECT_EQ(buffer.stats().buffered, 2u);
}

TEST(RoundBufferTest, DeadlineFlushReturnsPartialRoundAndClosesIt) {
  RoundBufferOptions options;
  options.round_deadline = std::chrono::milliseconds(50);
  RoundBuffer buffer(options);
  buffer.Deliver(MakeDataFrame(0, 0, {7}));
  // No marker ever arrives: the deadline flushes the partial round.
  const auto packets = buffer.TakeRound(0);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0], std::vector<uint8_t>{7});
  EXPECT_EQ(buffer.stats().deadline_flushes, 1u);
  // The round is now closed: re-delivery is a typed drop.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 0, {8})),
            DeliverResult::kClosedRound);
  EXPECT_EQ(buffer.stats().closed_round_drops, 1u);
}

TEST(RoundBufferTest, RejectedFarFutureFrameDoesNotPoisonTheWatermark) {
  // Regression: a single forged frame with a huge round index must not
  // advance the lateness clock — only admitted frames move it, so
  // legitimate traffic keeps flowing after the hostile frame is dropped.
  RoundBufferOptions options;
  options.max_lateness = 2;
  options.max_buffered_rounds = 8;
  RoundBuffer buffer(options);
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 1u << 30, {9})),
            DeliverResult::kTooEarly);
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 0, {1})),
            DeliverResult::kBuffered);
  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 0, 1)),
            DeliverResult::kEndMarker);
  EXPECT_EQ(buffer.TakeRound(0).size(), 1u);
}

TEST(RoundBufferTest, RoundsMustBeTakenInOrder) {
  RoundBuffer buffer;
  EXPECT_THROW(buffer.TakeRound(3), std::logic_error);
}

TEST(FrameDemuxTest, RoutesBySessionAndCountsUnknownSessions) {
  RoundBuffer a;
  RoundBuffer b;
  FrameDemux demux;
  demux.Register(1, &a);
  demux.Register(2, &b);
  EXPECT_THROW(demux.Register(1, &a), std::invalid_argument);

  auto handler = demux.Handler();
  handler(MakeDataFrame(1, 0, {1}));
  handler(MakeDataFrame(2, 0, {2}));
  handler(MakeDataFrame(2, 0, {3}));
  handler(MakeDataFrame(99, 0, {4}));  // nobody listens on 99
  EXPECT_EQ(a.stats().buffered, 1u);
  EXPECT_EQ(b.stats().buffered, 2u);
  EXPECT_EQ(demux.unknown_session_drops(), 1u);
}

// --- batch-file transport -------------------------------------------------

TEST(BatchFileTest, WriteThenReplayReproducesEveryFrame) {
  const std::string path = ::testing::TempDir() + "frames_roundtrip.log";
  std::vector<Frame> sent;
  {
    FrameLogWriter writer(path);
    for (uint64_t i = 0; i < 25; ++i) {
      sent.push_back(MakeDataFrame(4, i / 5, {static_cast<uint8_t>(i)}));
      writer.Send(sent.back());
    }
    writer.Send(MakeEndRoundFrame(4, 4, 5));
    writer.Close();
    EXPECT_EQ(writer.frames_written(), 26u);
  }
  std::vector<Frame> replayed;
  const FrameStats stats = transport::ReplayFrameLog(
      path, [&](Frame&& f) { replayed.push_back(std::move(f)); },
      /*chunk_bytes=*/7);  // deliberately tiny reads
  ASSERT_EQ(replayed.size(), 26u);
  EXPECT_EQ(stats.frames, 26u);
  EXPECT_EQ(stats.drops(), 0u);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(replayed[i].timestamp, sent[i].timestamp);
    EXPECT_EQ(replayed[i].payload, sent[i].payload);
  }
  EXPECT_EQ(replayed.back().kind, FrameKind::kEndRound);
}

TEST(BatchFileTest, CorruptedLogDegradesToTypedStatsNotACrash) {
  const std::string path = ::testing::TempDir() + "frames_corrupt.log";
  {
    FrameLogWriter writer(path);
    for (uint64_t i = 0; i < 10; ++i) {
      writer.Send(MakeDataFrame(1, i, {1, 2, 3, 4}));
    }
  }
  // Flip a byte in the middle of the recording.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  std::size_t count = 0;
  const FrameStats stats =
      transport::ReplayFrameLog(path, [&](Frame&&) { ++count; });
  EXPECT_EQ(count, 9u);  // the frame the flip landed in is lost
  EXPECT_GT(stats.drops(), 0u);
}

// --- socket transport -----------------------------------------------------

TEST(SocketTest, FramesSurviveTheLoopbackIntact) {
  std::mutex mu;
  std::vector<Frame> received;
  SocketListener listener(0, [&](Frame&& f) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(f));
  });
  {
    SocketClient client(listener.port(), /*flush_bytes=*/256);
    for (uint64_t i = 0; i < 200; ++i) {
      client.Send(MakeDataFrame(3, i, {static_cast<uint8_t>(i), 0x5A}));
    }
    client.Close();
    EXPECT_EQ(client.frames_sent(), 200u);
  }
  // The listener owns its own loop thread; wait for delivery
  // before tearing down (real consumers block on RoundBuffer completion
  // instead — Stop() is an immediate shutdown, not a drain).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (received.size() == 200u) break;
    }
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  listener.Stop();
  ASSERT_EQ(received.size(), 200u);
  for (uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(received[i].timestamp, i);
    EXPECT_EQ(received[i].session_id, 3u);
  }
  EXPECT_EQ(listener.stats().frames, 200u);
  EXPECT_EQ(listener.stats().drops(), 0u);
  EXPECT_EQ(listener.connections(), 1u);
}

// --- socket listener reactor ----------------------------------------------

// Polls `done` for up to `limit`; returns its final value.
bool WaitUntil(const std::function<bool()>& done,
               std::chrono::milliseconds limit = std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

std::size_t ProcessThreadCount() {
  std::size_t threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

// One loop thread serves every peer: idle connections cost a decoder each,
// never a thread.
TEST(SocketReactorTest, IdleClientsAddNoThreads) {
  SocketListener listener(0, [](Frame&&) {});
  std::vector<std::unique_ptr<SocketClient>> clients;
  clients.push_back(std::make_unique<SocketClient>(listener.port()));
  ASSERT_TRUE(WaitUntil([&] { return listener.connections() == 1u; }));
  const std::size_t with_one = ProcessThreadCount();
  while (clients.size() < 16) {
    clients.push_back(std::make_unique<SocketClient>(listener.port()));
  }
  ASSERT_TRUE(WaitUntil([&] { return listener.connections() == 16u; }));
  EXPECT_LE(ProcessThreadCount(), with_one);
  clients.clear();
  listener.Stop();
  EXPECT_EQ(listener.connection_stats().size(), 16u);
}

// Closed connections are freed as they close: thousands of short-lived
// peers leave no per-connection stack or decoder behind.
TEST(SocketReactorTest, ConnectCloseCyclesLeaveNoResidue) {
  constexpr std::size_t kCycles = 2000;
  // The first cycles warm the loop thread's allocator arena and the
  // decoder pool; growth is measured over the rest.
  constexpr std::size_t kWarmup = 100;
  SocketListener listener(0, [](Frame&&) {});
  // Each cycle waits for its accept: a client that out-runs the listener
  // overflows the listen backlog, and a dropped SYN costs a 1 s retransmit.
  auto cycles = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      SocketClient client(listener.port());
      client.Close();
      ASSERT_TRUE(WaitUntil([&] { return listener.connections() == i + 1; }));
    }
  };
  auto closed = [&](std::size_t n) {
    return WaitUntil(
        [&] { return listener.connection_stats().size() == n; });
  };
  cycles(0, kWarmup);
  ASSERT_TRUE(closed(kWarmup));
  const uint64_t before_kb = VmSizeKb();
  cycles(kWarmup, kCycles);
  ASSERT_TRUE(closed(kCycles));
  const uint64_t after_kb = VmSizeKb();
  ASSERT_GT(before_kb, 0u);
  // AddressSanitizer keeps freed blocks mapped in its quarantine (256 MiB
  // by default), and every cycle frees a decoder block. One leaked thread
  // stack per cycle would still add ~15 GiB here.
#if defined(__SANITIZE_ADDRESS__)
  constexpr uint64_t kQuarantineKb = 256 * 1024;
#else
  constexpr uint64_t kQuarantineKb = 0;
#endif
  EXPECT_LT(after_kb, before_kb + 64 * 1024 + kQuarantineKb)
      << "VmSize grew from " << before_kb << " KiB to " << after_kb << " KiB";
  listener.Stop();
  EXPECT_EQ(listener.connections(), kCycles);
  EXPECT_EQ(listener.connection_stats().size(), kCycles);
}

// Stop() must not wait on peers that never hang up: it closes them itself
// and still folds one stats entry per connection.
TEST(SocketReactorTest, StopWithIdleClientsReturnsPromptly) {
  constexpr std::size_t kClients = 8;
  SocketListener listener(0, [](Frame&&) {});
  std::vector<std::unique_ptr<SocketClient>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<SocketClient>(listener.port()));
  }
  ASSERT_TRUE(WaitUntil([&] { return listener.connections() == kClients; }));
  const auto start = std::chrono::steady_clock::now();
  listener.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(listener.connection_stats().size(), kClients);
  listener.Stop();  // idempotent
  EXPECT_EQ(listener.connection_stats().size(), kClients);
}

// --- end-to-end: socket + file replay vs in-process -----------------------

// Forwards every frame to several senders (socket + recorder tee).
class TeeSender : public FrameSender {
 public:
  explicit TeeSender(std::vector<FrameSender*> outs)
      : outs_(std::move(outs)) {}
  void Send(const Frame& frame) override {
    for (FrameSender* out : outs_) out->Send(frame);
  }
  void Flush() override {
    for (FrameSender* out : outs_) out->Flush();
  }

 private:
  std::vector<FrameSender*> outs_;
};

class TransportEquivalenceTest : public ::testing::TestWithParam<OracleId> {};

TEST_P(TransportEquivalenceTest,
       HostileSocketDeliveryAndFileReplayMatchInProcessBitForBit) {
  const std::string fo_name = OracleIdName(GetParam());
  constexpr uint64_t kUsers = 300;
  constexpr std::size_t kSteps = 6;
  const std::string log_path =
      ::testing::TempDir() + "transport_" + fo_name + ".log";

  SessionOptions options;
  options.num_shards = 2;
  options.num_threads = 1;

  // Reference: the PR 3 in-process transport.
  std::vector<Histogram> expected;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    MechanismSession session(
        CreateMechanism("LBA", SessionConfig(fo_name), kUsers), kDomain,
        options, fleet.Transport(1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      expected.push_back(session.Advance().release);
    }
  }

  // Socket path: same fleet, but the round's packets travel as frames over
  // a loopback TCP connection with a hostile delivery schedule — shuffled
  // order, ~1/5 duplicated, and a third of the round arriving after the
  // end-of-round marker ("late", still inside the round's window).
  uint64_t dupes_sent = 0;
  std::vector<Histogram> via_socket;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    RoundBuffer buffer;
    FrameDemux demux;
    demux.Register(kSessionId, &buffer);
    SocketListener listener(0, demux.Handler());
    SocketClient socket_sender(listener.port());
    FrameLogWriter recorder(log_path);
    TeeSender network({&socket_sender, &recorder});

    auto announce = [&](const RoundRequest& request) {
      auto packets = fleet.ProduceRound(request, 1);
      Rng rng(HashCounter(999, request.round_index, 0));
      for (std::size_t i = packets.size(); i > 1; --i) {
        std::swap(packets[i - 1], packets[rng.UniformInt(i)]);
      }
      std::vector<std::vector<uint8_t>> dupes;
      for (std::size_t i = 0; i < packets.size(); i += 5) {
        dupes.push_back(packets[i]);
      }
      dupes_sent += dupes.size();
      const std::size_t early = packets.size() * 2 / 3;
      for (std::size_t i = 0; i < early; ++i) {
        network.Send(MakeDataFrame(kSessionId, request.round_index,
                                   packets[i]));
      }
      // The duplicates land mid-round (some of them *before* their
      // original — a retry overtaking the first copy), and the marker
      // overtakes the stragglers. It announces the distinct packet count:
      // completion must ride on identities, not raw arrivals, so the round
      // closes exactly when the last straggler lands.
      for (const auto& dupe : dupes) {
        network.Send(MakeDataFrame(kSessionId, request.round_index, dupe));
      }
      network.Send(MakeEndRoundFrame(kSessionId, request.round_index,
                                     packets.size()));
      for (std::size_t i = early; i < packets.size(); ++i) {
        network.Send(MakeDataFrame(kSessionId, request.round_index,
                                   packets[i]));
      }
      network.Flush();
    };

    MechanismSession session(
        CreateMechanism("LBA", SessionConfig(fo_name), kUsers), kDomain,
        options, MakeBufferedTransport(buffer, announce, 1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      via_socket.push_back(session.Advance().release);
    }

    EXPECT_EQ(session.stats().duplicate, dupes_sent) << fo_name;
    EXPECT_EQ(session.stats().malformed, 0u);
    EXPECT_EQ(buffer.stats().duplicate_frames, dupes_sent) << fo_name;
    EXPECT_EQ(buffer.stats().masked_losses, 0u);
    EXPECT_EQ(buffer.stats().deadline_flushes, 0u);
    EXPECT_EQ(buffer.stats().drops(), 0u);
    recorder.Close();
    socket_sender.Close();
    listener.Stop();
    EXPECT_EQ(listener.stats().drops(), 0u);
  }
  EXPECT_EQ(via_socket, expected) << fo_name;

  // Batch-file replay: the recorded traffic re-drives a fresh server. The
  // whole recording is delivered up front, so every round but the first is
  // "early" — the buffer holds them all (watermark knobs widened).
  std::vector<Histogram> via_replay;
  {
    RoundBufferOptions replay_options;
    replay_options.max_lateness = 1u << 20;
    replay_options.max_buffered_rounds = 1u << 20;
    RoundBuffer buffer(replay_options);
    const FrameStats stats = transport::ReplayFrameLog(
        log_path, [&](Frame&& f) { buffer.Deliver(std::move(f)); });
    EXPECT_EQ(stats.drops(), 0u);

    MechanismSession session(
        CreateMechanism("LBA", SessionConfig(fo_name), kUsers), kDomain,
        options, MakeBufferedTransport(buffer, nullptr, 1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      via_replay.push_back(session.Advance().release);
    }
    EXPECT_EQ(session.stats().duplicate, dupes_sent) << fo_name;
  }
  EXPECT_EQ(via_replay, expected) << fo_name;
}

INSTANTIATE_TEST_SUITE_P(AllOracles, TransportEquivalenceTest,
                         ::testing::ValuesIn(AllOracleIds()),
                         [](const auto& info) {
                           return std::string(OracleIdName(info.param));
                         });

// --- multi-connection ingest ----------------------------------------------

class MultiConnectionTest : public ::testing::TestWithParam<OracleId> {};

// A round striped across four socket connections — with shuffling and
// cross-connection duplicates, so one packet's copies can race each other
// on different TCP streams — must release bit-identically to the
// in-process (and therefore single-connection) run. Each connection gets
// its own FrameDecoder on the listener's loop thread; the RoundBuffer is
// the only merge point.
TEST_P(MultiConnectionTest, FourStripedConnectionsMatchOneBitForBit) {
  const std::string fo_name = OracleIdName(GetParam());
  constexpr uint64_t kUsers = 300;
  constexpr std::size_t kSteps = 4;
  constexpr std::size_t kConnections = 4;

  SessionOptions options;
  options.num_shards = 2;
  options.num_threads = 1;

  std::vector<Histogram> expected;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    MechanismSession session(
        CreateMechanism("LBA", SessionConfig(fo_name), kUsers), kDomain,
        options, fleet.Transport(1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      expected.push_back(session.Advance().release);
    }
  }

  uint64_t dupes_sent = 0;
  std::vector<Histogram> via_sockets;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    RoundBuffer buffer;
    FrameDemux demux;
    demux.Register(kSessionId, &buffer);
    SocketListener listener(0, demux.Handler());
    std::vector<std::unique_ptr<SocketClient>> clients;
    std::vector<FrameSender*> senders;
    for (std::size_t c = 0; c < kConnections; ++c) {
      // Tiny flush threshold: the four streams interleave at a granularity
      // of a few frames instead of whole rounds.
      clients.push_back(
          std::make_unique<SocketClient>(listener.port(), /*flush_bytes=*/256));
      senders.push_back(clients.back().get());
    }

    auto announce = [&](const RoundRequest& request) {
      auto packets = fleet.ProduceRound(request, 1);
      Rng rng(HashCounter(777, request.round_index, 0));
      for (std::size_t i = packets.size(); i > 1; --i) {
        std::swap(packets[i - 1], packets[rng.UniformInt(i)]);
      }
      // Duplicate every fifth packet at the end of the list: round-robin
      // striping then lands most copies on a different connection than
      // their original, so dedup must hold across streams.
      const std::size_t originals = packets.size();
      for (std::size_t i = 0; i < originals; i += 5) {
        packets.push_back(packets[i]);
        ++dupes_sent;
      }
      SendRoundFrames(senders, kSessionId, request.round_index, packets);
    };

    MechanismSession session(
        CreateMechanism("LBA", SessionConfig(fo_name), kUsers), kDomain,
        options, MakeBufferedTransport(buffer, announce, 1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      via_sockets.push_back(session.Advance().release);
    }

    // Drain the connections before reading any counters: with the copies
    // striped onto different connections than their originals, a round can
    // complete (every distinct frame arrived) and be drained while a
    // redundant copy is still in flight on another stream.
    for (auto& client : clients) client->Close();
    listener.Stop();
    // A straggler arriving after its round drained lands as a closed-round
    // drop. Only duplicates can straggle — completion requires all distinct
    // frames — so the drop and duplicate counters must account for every
    // copy between them, and no other drop reason may fire.
    const transport::RoundBufferStats bstats = buffer.stats();
    const uint64_t stragglers = bstats.closed_round_drops;
    EXPECT_EQ(session.stats().duplicate + stragglers, dupes_sent) << fo_name;
    EXPECT_EQ(session.stats().malformed, 0u);
    EXPECT_EQ(bstats.duplicate_frames + stragglers, dupes_sent) << fo_name;
    EXPECT_EQ(bstats.deadline_flushes, 0u);
    EXPECT_EQ(bstats.masked_losses, 0u);
    EXPECT_EQ(bstats.drops(), stragglers);
    EXPECT_EQ(listener.connections(), kConnections);
    EXPECT_EQ(listener.stats().drops(), 0u);
  }
  EXPECT_EQ(via_sockets, expected) << fo_name;
}

INSTANTIATE_TEST_SUITE_P(AllOracles, MultiConnectionTest,
                         ::testing::ValuesIn(AllOracleIds()),
                         [](const auto& info) {
                           return std::string(OracleIdName(info.param));
                         });

// --- pooled decoder buffers -----------------------------------------------

// Frames decoded zero-copy alias the decoder's pooled block: the payload
// bytes must stay valid while the ref lives (even across further decoder
// traffic), and blocks must recycle — not accumulate — once payloads drop.
TEST(FrameDecoderPoolTest, PayloadsPinBlocksAndBlocksRecycle) {
  FrameDecoder decoder;
  Frame frame;
  std::vector<uint8_t> stream;
  std::vector<PayloadRef> held;
  // Push ~40 MiB of frames through the decoder while holding only one
  // round's payloads at a time. With in-flight refs the decoder must hop
  // blocks instead of compacting under them; with refs dropped it must
  // reuse, keeping the footprint a handful of blocks.
  for (int round = 0; round < 80; ++round) {
    stream.clear();
    std::vector<std::vector<uint8_t>> sent;
    for (uint64_t i = 0; i < 900; ++i) {
      std::vector<uint8_t> payload(600, static_cast<uint8_t>(i ^ round));
      transport::AppendEncodedFrame(
          MakeDataFrame(1, static_cast<uint64_t>(round), payload), &stream);
      sent.push_back(std::move(payload));
    }
    held.clear();  // previous round's refs drop -> blocks become reusable
    std::size_t fed = 0;
    while (fed < stream.size()) {
      const std::size_t n = std::min<std::size_t>(64 * 1024,
                                                  stream.size() - fed);
      decoder.Append(stream.data() + fed, n);
      fed += n;
      while (decoder.Next(&frame)) held.push_back(std::move(frame.payload));
    }
    ASSERT_EQ(held.size(), sent.size());
    for (std::size_t i = 0; i < held.size(); ++i) {
      ASSERT_EQ(held[i], sent[i]) << "round " << round << " frame " << i;
    }
  }
  EXPECT_EQ(decoder.stats().drops(), 0u);
  // Steady state is a small ring of recycled blocks, not one per chunk.
  EXPECT_LE(decoder.pool().allocated_blocks(), 8u);
  EXPECT_GT(decoder.pool().reused_blocks(), 0u);
}

}  // namespace
}  // namespace ldpids
