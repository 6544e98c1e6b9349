// Flight recorder tests: ring semantics (ordering, wraparound, drop
// accounting), in-flight marks and track closing, concurrent writers
// against a concurrent snapshotter (the seqlock must never surface a torn
// event — the TSan job runs this test), Chrome-trace rendering, and the
// session integration: recording changes nothing about the releases.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "service/client_fleet.h"
#include "service/session.h"

namespace ldpids {
namespace {

using obs::FlightRecorder;
using obs::FlightRecorderSnapshot;
using obs::RenderChromeTrace;
using obs::RoundEvent;
using obs::Stage;

TEST(FlightRecorderTest, RecordsEventsInOrder) {
  FlightRecorder recorder(64);
  const uint32_t track = recorder.RegisterTrack("s0");
  recorder.Record(track, Stage::kAnnounce, 0, 100, 200);
  recorder.Record(track, Stage::kTransportRtt, 0, 200, 900, 50, 2);
  recorder.Record(track, Stage::kEstimate, 0, 900, 1000);

  const FlightRecorderSnapshot snap = recorder.Snapshot();
  ASSERT_EQ(snap.tracks.size(), 1u);
  EXPECT_EQ(snap.tracks[0], "s0");
  EXPECT_FALSE(snap.closed[0]);
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(snap.events[0].stage, Stage::kAnnounce);
  EXPECT_EQ(snap.events[1].stage, Stage::kTransportRtt);
  EXPECT_EQ(snap.events[1].reports, 50u);
  EXPECT_EQ(snap.events[1].drops, 2u);
  EXPECT_EQ(snap.events[2].t_end_ns, 1000u);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.total_recorded, 3u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(100);
  EXPECT_EQ(recorder.capacity(), 128u);
}

TEST(FlightRecorderTest, WraparoundKeepsNewestAndCountsDropped) {
  FlightRecorder recorder(16);
  const uint32_t track = recorder.RegisterTrack("s");
  for (uint64_t i = 0; i < 40; ++i) {
    recorder.Record(track, Stage::kMerge, i, i * 10, i * 10 + 5);
  }
  const FlightRecorderSnapshot snap = recorder.Snapshot();
  EXPECT_EQ(snap.total_recorded, 40u);
  EXPECT_EQ(snap.dropped, 40u - recorder.capacity());
  ASSERT_EQ(snap.events.size(), recorder.capacity());
  // The survivors are exactly the newest ring-capacity events, in order.
  EXPECT_EQ(snap.events.front().round_index, 40u - recorder.capacity());
  EXPECT_EQ(snap.events.back().round_index, 39u);
  for (std::size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_EQ(snap.events[i].round_index,
              snap.events[i - 1].round_index + 1);
  }
}

TEST(FlightRecorderTest, InFlightMarksAppearAndClear) {
  FlightRecorder recorder;
  const uint32_t track = recorder.RegisterTrack("s");
  recorder.BeginStage(track, Stage::kTransportRtt, 7, 12345);
  FlightRecorderSnapshot snap = recorder.Snapshot();
  ASSERT_EQ(snap.in_flight.size(), 1u);
  EXPECT_EQ(snap.in_flight[0].stage, Stage::kTransportRtt);
  EXPECT_EQ(snap.in_flight[0].round_index, 7u);
  EXPECT_EQ(snap.in_flight[0].t_start_ns, 12345u);

  // Record of the same (track, stage) clears the mark.
  recorder.Record(track, Stage::kTransportRtt, 7, 12345, 20000);
  snap = recorder.Snapshot();
  EXPECT_TRUE(snap.in_flight.empty());

  // Distinct stages hold independent marks (pipelined overlap).
  recorder.BeginStage(track, Stage::kAnnounce, 8, 100);
  recorder.BeginStage(track, Stage::kEstimate, 7, 200);
  snap = recorder.Snapshot();
  EXPECT_EQ(snap.in_flight.size(), 2u);
}

TEST(FlightRecorderTest, CloseTrackClearsMarksAndFlagsClosed) {
  FlightRecorder recorder;
  const uint32_t track = recorder.RegisterTrack("s");
  recorder.BeginStage(track, Stage::kShardFold, 3, 999);
  recorder.CloseTrack(track);
  const FlightRecorderSnapshot snap = recorder.Snapshot();
  EXPECT_TRUE(snap.closed[0]);
  EXPECT_TRUE(snap.in_flight.empty());
  // Idempotent, and out-of-range tracks are ignored.
  recorder.CloseTrack(track);
  recorder.CloseTrack(10'000);
}

// Past kMaxTracks, registration is a typed outcome: the sentinel id, whose
// events are counted, never stored — and never land on a live track.
TEST(FlightRecorderTest, TrackOverflowIsTypedAndCounted) {
  FlightRecorder recorder(64);
  std::vector<uint32_t> ids;
  for (std::size_t i = 0; i <= FlightRecorder::kMaxTracks; ++i) {
    ids.push_back(recorder.RegisterTrack("s" + std::to_string(i)));
  }
  const uint32_t last = ids[FlightRecorder::kMaxTracks - 1];
  const uint32_t overflow = ids[FlightRecorder::kMaxTracks];
  EXPECT_EQ(last, FlightRecorder::kMaxTracks - 1);
  EXPECT_EQ(overflow, FlightRecorder::kNoTrack);

  recorder.Record(last, Stage::kEstimate, 1, 100, 200);
  recorder.Record(overflow, Stage::kEstimate, 7, 300, 400);
  recorder.Record(overflow, Stage::kMerge, 7, 250, 300);
  recorder.BeginStage(overflow, Stage::kTransportRtt, 7, 250);
  recorder.CloseTrack(overflow);

  const FlightRecorderSnapshot snap = recorder.Snapshot();
  EXPECT_EQ(snap.tracks.size(), FlightRecorder::kMaxTracks);
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].track, last);
  EXPECT_EQ(snap.events[0].round_index, 1u);
  EXPECT_EQ(snap.untracked_events, 2u);
  EXPECT_EQ(snap.total_recorded, 1u);
  EXPECT_TRUE(snap.in_flight.empty());
  EXPECT_FALSE(snap.closed[last]);
}

// Hammer the ring from several writer threads while a reader snapshots
// continuously: every surfaced event must be internally consistent
// (writer id encoded in every field), proving the seqlock never tears.
TEST(FlightRecorderTest, ConcurrentWritersNeverTearEvents) {
  FlightRecorder recorder(256);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  std::vector<uint32_t> tracks;
  for (int w = 0; w < kWriters; ++w) {
    std::string name = "w";
    name += std::to_string(w);
    tracks.push_back(recorder.RegisterTrack(name));
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const FlightRecorderSnapshot snap = recorder.Snapshot();
      for (const RoundEvent& ev : snap.events) {
        // All fields of one event must agree on the writer.
        const uint64_t w = ev.track;
        ASSERT_LT(w, static_cast<uint64_t>(kWriters));
        ASSERT_EQ(ev.t_start_ns % kWriters, w);
        ASSERT_EQ(ev.t_end_ns % kWriters, w);
        ASSERT_EQ(ev.reports % kWriters, w);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const uint64_t base = static_cast<uint64_t>(w);
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        recorder.Record(tracks[static_cast<std::size_t>(w)], Stage::kMerge,
                        i, base + i * kWriters, base + (i + 1) * kWriters,
                        base + i * kWriters);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(recorder.total_recorded(), kWriters * kPerWriter);
}

TEST(ChromeTraceTest, RendersRebaseAndMetadata) {
  FlightRecorder recorder;
  const uint32_t track = recorder.RegisterTrack("session \"a\"");
  recorder.Record(track, Stage::kAnnounce, 0, 5'000'000, 6'000'000);
  recorder.Record(track, Stage::kEstimate, 0, 6'000'000, 9'500'000, 42, 1);
  const std::string trace = RenderChromeTrace(recorder.Snapshot());

  // Top-level schema keys.
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Thread metadata with the (escaped) track name.
  EXPECT_NE(trace.find("\"name\":\"thread_name\",\"ph\":\"M\""),
            std::string::npos);
  EXPECT_NE(trace.find("session \\\"a\\\""), std::string::npos);
  // Duration events, microseconds, rebased to the oldest start.
  EXPECT_NE(trace.find("\"name\":\"announce\",\"cat\":\"round\",\"ph\":\"X\","
                       "\"ts\":0,\"dur\":1000"),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"estimate\",\"cat\":\"round\",\"ph\":\"X\","
                       "\"ts\":1000,\"dur\":3500"),
            std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"round\":0,\"reports\":42,\"drops\":1}"),
            std::string::npos);
}

TEST(ChromeTraceTest, EmptyRecorderRendersValidEmptyTrace) {
  FlightRecorder recorder;
  EXPECT_EQ(RenderChromeTrace(recorder.Snapshot()),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

// --- session integration --------------------------------------------------

constexpr std::size_t kDomain = 10;
constexpr uint64_t kUsers = 300;
constexpr std::size_t kSteps = 5;

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>((user + 3 * t) % kDomain);
}

MechanismConfig RecorderConfig() {
  MechanismConfig c;
  c.epsilon = 1.0;
  c.window = 4;
  c.fo = "GRR";
  c.seed = 91;
  return c;
}

struct RecordedRun {
  std::vector<StepResult> steps;
  uint64_t rounds = 0;  // rounds the session announced
};

RecordedRun RunWithRecorder(FlightRecorder* recorder, std::size_t depth,
                            obs::MetricsRegistry* metrics = nullptr,
                            std::size_t threads = 1) {
  const service::ClientFleet fleet(kUsers, TruthValue, 4242);
  service::SessionOptions options;
  options.num_shards = 2;
  options.num_threads = threads;
  options.pipeline_depth = depth;
  options.recorder = recorder;
  options.metrics = metrics;
  if (recorder != nullptr) options.metrics_label = "rec";
  service::MechanismSession session(
      CreateMechanism("LBA", RecorderConfig(), kUsers), kDomain, options,
      fleet.Transport(threads));
  RecordedRun run;
  for (std::size_t t = 0; t < kSteps; ++t) {
    run.steps.push_back(session.Advance());
  }
  run.rounds = session.rounds();
  return run;
}

std::size_t StageIndex(Stage stage) { return static_cast<std::size_t>(stage); }

TEST(FlightRecorderSessionTest, RecorderDoesNotChangeReleases) {
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    FlightRecorder recorder;
    const std::vector<StepResult> bare = RunWithRecorder(nullptr, depth).steps;
    const std::vector<StepResult> recorded =
        RunWithRecorder(&recorder, depth).steps;
    ASSERT_EQ(bare.size(), recorded.size());
    for (std::size_t t = 0; t < bare.size(); ++t) {
      EXPECT_EQ(bare[t].published, recorded[t].published) << t;
      EXPECT_EQ(bare[t].release, recorded[t].release) << t;
    }
  }
}

TEST(FlightRecorderSessionTest, SessionEmitsEventsPerStageAndClosesTrack) {
  constexpr std::size_t kDepth = 2;
  FlightRecorder recorder;
  const uint64_t announced = RunWithRecorder(&recorder, kDepth).rounds;
  const FlightRecorderSnapshot snap = recorder.Snapshot();
  ASSERT_EQ(snap.tracks.size(), 1u);
  EXPECT_EQ(snap.tracks[0], "rec");
  EXPECT_TRUE(snap.closed[0]) << "destroyed session must close its track";
  EXPECT_TRUE(snap.in_flight.empty());
  ASSERT_FALSE(snap.events.empty());

  // The count contract pipeline_test pins for the histograms: one announce
  // per announced round (a prefetched round included), and one event per
  // ingest-chain stage per claimed round — at depth 2 at most one
  // announced round is still unclaimed when the session ends.
  std::size_t per_stage[obs::kNumStages] = {};
  uint64_t max_round = 0;
  for (const RoundEvent& ev : snap.events) {
    ++per_stage[StageIndex(ev.stage)];
    EXPECT_LE(ev.t_start_ns, ev.t_end_ns);
    max_round = std::max(max_round, ev.round_index);
  }
  EXPECT_EQ(per_stage[StageIndex(Stage::kAnnounce)], announced);
  EXPECT_EQ(max_round + 1, announced);
  const std::size_t claimed = per_stage[StageIndex(Stage::kEstimate)];
  EXPECT_GE(claimed, kSteps);
  EXPECT_LE(claimed, announced);
  EXPECT_LT(announced - claimed, kDepth);
  for (const Stage s : {Stage::kTransportRtt, Stage::kArenaDecode,
                        Stage::kShardFold, Stage::kMerge}) {
    EXPECT_EQ(per_stage[StageIndex(s)], claimed) << obs::StageName(s);
  }
  EXPECT_EQ(per_stage[StageIndex(Stage::kSketchMerge)], 0u);
  EXPECT_GE(per_stage[StageIndex(Stage::kPostProcess)], kSteps);

  // The transport-RTT events carry the round's acceptance accounting.
  const RoundEvent* rtt = nullptr;
  for (const RoundEvent& ev : snap.events) {
    if (ev.stage == Stage::kTransportRtt) rtt = &ev;
  }
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->reports, 0u);

  // And the whole thing renders as a loadable Chrome trace.
  const std::string trace = RenderChromeTrace(snap);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"transport_rtt\""), std::string::npos);
}

// One StageSink feeds both consumers, so they agree exactly: per stage,
// the histogram's count and sum are the track's event count and summed
// windows. And each claimed round's ingest slices tile the transport call
// into the merge: rtt | arena_decode | shard_fold | merge, end to start.
TEST(FlightRecorderSessionTest, HistogramsAndTrackRecordTheSameEvents) {
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    obs::MetricsRegistry registry;
    FlightRecorder recorder;
    RunWithRecorder(&recorder, depth, &registry, /*threads=*/2);
    const FlightRecorderSnapshot snap = recorder.Snapshot();
    ASSERT_EQ(snap.dropped, 0u);
    const obs::MetricsSnapshot metrics = registry.Snapshot();

    uint64_t count[obs::kNumStages] = {};
    uint64_t sum[obs::kNumStages] = {};
    std::map<uint64_t, std::map<Stage, RoundEvent>> rounds;
    for (const RoundEvent& ev : snap.events) {
      ++count[StageIndex(ev.stage)];
      sum[StageIndex(ev.stage)] += ev.t_end_ns - ev.t_start_ns;
      EXPECT_TRUE(rounds[ev.round_index].emplace(ev.stage, ev).second)
          << "round " << ev.round_index << " has two "
          << obs::StageName(ev.stage) << " events";
    }
    for (std::size_t i = 0; i < obs::kNumStages; ++i) {
      const char* name = obs::StageName(static_cast<Stage>(i));
      const obs::HistogramSample* h = metrics.FindHistogram(
          obs::kStageDurationMetric, {{"session", "rec"}, {"stage", name}});
      ASSERT_NE(h, nullptr) << name;
      EXPECT_EQ(h->count, count[i]) << name << " depth=" << depth;
      EXPECT_EQ(h->sum, sum[i]) << name << " depth=" << depth;
    }

    std::size_t claimed = 0;
    for (const auto& [round, stages] : rounds) {
      if (stages.count(Stage::kEstimate) == 0) continue;  // prefetched
      ++claimed;
      const RoundEvent& announce = stages.at(Stage::kAnnounce);
      const RoundEvent& rtt = stages.at(Stage::kTransportRtt);
      const RoundEvent& decode = stages.at(Stage::kArenaDecode);
      const RoundEvent& fold = stages.at(Stage::kShardFold);
      const RoundEvent& merge = stages.at(Stage::kMerge);
      const RoundEvent& estimate = stages.at(Stage::kEstimate);
      EXPECT_LE(announce.t_end_ns, rtt.t_start_ns) << round;
      EXPECT_EQ(rtt.t_end_ns, decode.t_start_ns) << round;
      EXPECT_EQ(decode.t_end_ns, fold.t_start_ns) << round;
      EXPECT_EQ(fold.t_end_ns, merge.t_start_ns) << round;
      EXPECT_LE(merge.t_end_ns, estimate.t_start_ns) << round;
      EXPECT_GT(rtt.reports, 0u) << round;
    }
    EXPECT_EQ(claimed, count[StageIndex(Stage::kEstimate)]);
    EXPECT_GE(claimed, kSteps);
  }
}

}  // namespace
}  // namespace ldpids
