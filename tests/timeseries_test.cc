// Rolling time-series and health-model tests. The clock is injected
// everywhere, so stalls are staged, not slept: a round that "hangs" is a
// BeginStage with the fake clock advanced past the stall threshold.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace ldpids::obs {
namespace {

constexpr uint64_t kSec = 1'000'000'000ull;

TEST(RateWindowTest, SlopeAcrossWindow) {
  RateWindow window(10 * kSec);
  EXPECT_EQ(window.RatePerSec(), 0.0);
  window.Observe(0, 0);
  EXPECT_EQ(window.RatePerSec(), 0.0);  // one sample: no slope yet
  window.Observe(2 * kSec, 100);
  EXPECT_DOUBLE_EQ(window.RatePerSec(), 50.0);
  window.Observe(4 * kSec, 400);
  EXPECT_DOUBLE_EQ(window.RatePerSec(), 100.0);
}

TEST(RateWindowTest, EvictsOldSamplesButKeepsTwo) {
  RateWindow window(5 * kSec);
  window.Observe(0, 0);
  window.Observe(1 * kSec, 10);
  window.Observe(20 * kSec, 200);
  // The t=0 sample is far outside the window; rate uses the survivors.
  EXPECT_GT(window.RatePerSec(), 0.0);
  EXPECT_LE(window.size(), 2u);
}

TEST(RateWindowTest, CounterResetReanchors) {
  RateWindow window(10 * kSec);
  window.Observe(0, 1000);
  window.Observe(1 * kSec, 2000);
  window.Observe(2 * kSec, 5);  // restart: cumulative fell
  EXPECT_EQ(window.RatePerSec(), 0.0);
  window.Observe(3 * kSec, 105);
  EXPECT_DOUBLE_EQ(window.RatePerSec(), 100.0);
}

TEST(DurationWindowTest, QuantilesAndEviction) {
  DurationWindow window(4);
  EXPECT_EQ(window.Quantile(0.99), 0u);
  for (uint64_t v : {10u, 20u, 30u, 40u}) window.Observe(v);
  EXPECT_EQ(window.Quantile(0.0), 10u);
  EXPECT_EQ(window.Quantile(0.5), 20u);
  EXPECT_EQ(window.Quantile(1.0), 40u);
  window.Observe(50);  // evicts 10
  EXPECT_EQ(window.size(), 4u);
  EXPECT_EQ(window.Quantile(0.0), 20u);
  EXPECT_EQ(window.Quantile(1.0), 50u);
}

TEST(TimeseriesTrackerTest, TracksCountersAcrossSnapshots) {
  MetricsRegistry registry;
  Counter& a =
      registry.GetCounter("reqs_total", {{"session", "a"}});
  Counter& b =
      registry.GetCounter("reqs_total", {{"session", "b"}});
  TimeseriesTracker tracker;

  a.Add(100);
  b.Add(10);
  tracker.Observe(registry.Snapshot(), 0);
  a.Add(100);
  b.Add(30);
  tracker.Observe(registry.Snapshot(), 1 * kSec);

  EXPECT_DOUBLE_EQ(tracker.RatePerSec("reqs_total", {{"session", "a"}}),
                   100.0);
  EXPECT_DOUBLE_EQ(tracker.RatePerSec("reqs_total", {{"session", "b"}}),
                   30.0);
  EXPECT_EQ(tracker.RatePerSec("reqs_total", {{"session", "zzz"}}), 0.0);
  EXPECT_EQ(tracker.RatePerSec("no_such_total"), 0.0);
}

// Every label asked for must match. A session's ingest counter has six
// `result` series; only the accepted one moves here, and the accepted
// query must read its slope, not whichever series the map visits first.
TEST(TimeseriesTrackerTest, EveryRequestedLabelMustMatch) {
  MetricsRegistry registry;
  const std::vector<std::string> sessions = {"s0", "s1", "s2",
                                             "s3", "s4", "s5"};
  const std::vector<std::string> results = {
      "accepted",        "malformed", "wrong_oracle",
      "wrong_timestamp", "duplicate", "sketch_rejected"};
  for (const std::string& session : sessions) {
    for (const std::string& result : results) {
      registry.GetCounter("ldpids_ingest_reports_total",
                          {{"session", session}, {"result", result}});
    }
  }
  TimeseriesTracker tracker;
  tracker.Observe(registry.Snapshot(), 0);
  for (const std::string& session : sessions) {
    registry
        .GetCounter("ldpids_ingest_reports_total",
                    {{"session", session}, {"result", "accepted"}})
        .Add(5000);
  }
  tracker.Observe(registry.Snapshot(), 1 * kSec);

  for (const std::string& session : sessions) {
    EXPECT_DOUBLE_EQ(
        tracker.RatePerSec("ldpids_ingest_reports_total",
                           {{"session", session}, {"result", "accepted"}}),
        5000.0)
        << session;
    EXPECT_EQ(
        tracker.RatePerSec("ldpids_ingest_reports_total",
                           {{"session", session}, {"result", "duplicate"}}),
        0.0)
        << session;
  }
  // Label order in the query does not matter.
  EXPECT_DOUBLE_EQ(
      tracker.RatePerSec("ldpids_ingest_reports_total",
                         {{"result", "accepted"}, {"session", "s3"}}),
      5000.0);
}

// --- health model ---------------------------------------------------------

struct FakeClock {
  uint64_t now_ns = 0;
  std::function<uint64_t()> fn() {
    return [this] { return now_ns; };
  }
};

HealthOptions FastOptions(FakeClock* clock) {
  HealthOptions opts;
  opts.stall_multiplier = 4.0;
  opts.min_stall_ns = 1 * kSec;
  opts.min_rounds_for_silence = 3;
  opts.now = clock->fn();
  return opts;
}

// Feed `n` healthy rounds of ~100ms cadence ending at *t.
void FeedHealthyRounds(FlightRecorder* recorder, uint32_t track,
                       uint64_t* t, uint64_t start_round, uint64_t n) {
  for (uint64_t r = 0; r < n; ++r) {
    const uint64_t round = start_round + r;
    const uint64_t t0 = *t;
    recorder->Record(track, Stage::kAnnounce, round, t0, t0 + 1'000'000);
    recorder->Record(track, Stage::kTransportRtt, round, t0 + 1'000'000,
                     t0 + 60'000'000, 100, 0);
    recorder->Record(track, Stage::kEstimate, round, t0 + 60'000'000,
                     t0 + 80'000'000);
    recorder->Record(track, Stage::kPostProcess, round, t0 + 80'000'000,
                     t0 + 100'000'000);
    *t += 100'000'000;  // 100 ms cadence
  }
}

TEST(HealthModelTest, HealthySessionIsReady) {
  FlightRecorder recorder;
  const uint32_t track = recorder.RegisterTrack("s");
  FakeClock clock;
  MetricsRegistry registry;
  HealthModel model(&registry, &recorder, FastOptions(&clock));

  uint64_t t = 1 * kSec;
  FeedHealthyRounds(&recorder, track, &t, 0, 10);
  clock.now_ns = t;
  const HealthReport report = model.Update();
  EXPECT_TRUE(report.live);
  EXPECT_TRUE(report.ready);
  EXPECT_EQ(report.open_sessions, 1u);
  EXPECT_TRUE(report.stalls.empty());
  EXPECT_EQ(registry.GetGauge("ldpids_health_stalled_sessions").value(), 0);
  EXPECT_EQ(registry.GetGauge("ldpids_health_up").value(), 1);
}

TEST(HealthModelTest, InFlightStallFlipsHealthAndGauge) {
  FlightRecorder recorder;
  const uint32_t track = recorder.RegisterTrack("wedged");
  FakeClock clock;
  MetricsRegistry registry;
  HealthModel model(&registry, &recorder, FastOptions(&clock));

  uint64_t t = 1 * kSec;
  FeedHealthyRounds(&recorder, track, &t, 0, 10);

  // Round 10 enters transport and never finishes. Threshold is
  // max(1s floor, 4 x p99(~59ms)) = 1s.
  recorder.BeginStage(track, Stage::kTransportRtt, 10, t);
  clock.now_ns = t + 500'000'000;  // 0.5 s in: still fine
  EXPECT_TRUE(model.Update().ready);

  clock.now_ns = t + 3 * kSec;  // 3 s in: stalled
  const HealthReport report = model.Update();
  EXPECT_TRUE(report.live);
  EXPECT_FALSE(report.ready);
  ASSERT_FALSE(report.stalls.empty());
  EXPECT_EQ(report.stalls[0].session, "wedged");
  EXPECT_EQ(report.stalls[0].stage, "transport_rtt");
  EXPECT_EQ(report.stalls[0].round_index, 10u);
  EXPECT_GT(report.stalls[0].age_ns, report.stalls[0].threshold_ns);
  EXPECT_GT(registry.GetGauge("ldpids_health_stalled_sessions").value(), 0);
  EXPECT_EQ(registry.GetGauge("ldpids_health_up").value(), 0);

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"ready\":false"), std::string::npos);
  EXPECT_NE(json.find("\"session\":\"wedged\""), std::string::npos);

  // The stage completes after all: health recovers on the next update.
  recorder.Record(track, Stage::kTransportRtt, 10, t, clock.now_ns, 100, 0);
  clock.now_ns += 100'000'000;
  EXPECT_TRUE(model.Update().ready);
  EXPECT_EQ(registry.GetGauge("ldpids_health_stalled_sessions").value(), 0);
}

TEST(HealthModelTest, SilenceStallDetectedFromRoundCadence) {
  FlightRecorder recorder;
  const uint32_t track = recorder.RegisterTrack("silent");
  FakeClock clock;
  MetricsRegistry registry;
  HealthModel model(&registry, &recorder, FastOptions(&clock));

  uint64_t t = 1 * kSec;
  FeedHealthyRounds(&recorder, track, &t, 0, 10);
  clock.now_ns = t;
  EXPECT_TRUE(model.Update().ready);

  // No new rounds, no in-flight mark (the whole pipeline went quiet).
  clock.now_ns = t + 10 * kSec;
  const HealthReport report = model.Update();
  EXPECT_FALSE(report.ready);
  ASSERT_FALSE(report.stalls.empty());
  EXPECT_EQ(report.stalls[0].stage, "round_gap");
}

TEST(HealthModelTest, ClosedTrackIsNeverStalled) {
  FlightRecorder recorder;
  const uint32_t track = recorder.RegisterTrack("done");
  FakeClock clock;
  MetricsRegistry registry;
  HealthModel model(&registry, &recorder, FastOptions(&clock));

  uint64_t t = 1 * kSec;
  FeedHealthyRounds(&recorder, track, &t, 0, 10);
  recorder.BeginStage(track, Stage::kTransportRtt, 10, t);
  recorder.CloseTrack(track);  // session ended (clears the mark too)

  clock.now_ns = t + 100 * kSec;
  const HealthReport report = model.Update();
  EXPECT_TRUE(report.ready);
  EXPECT_EQ(report.open_sessions, 0u);
}

TEST(HealthModelTest, FreshTrackNeedsHistoryBeforeSilenceApplies) {
  FlightRecorder recorder;
  const uint32_t track = recorder.RegisterTrack("fresh");
  FakeClock clock;
  MetricsRegistry registry;
  HealthModel model(&registry, &recorder, FastOptions(&clock));

  // Two rounds (< min_rounds_for_silence), then a long quiet spell: a
  // session warming up must not be declared stalled by cadence.
  uint64_t t = 1 * kSec;
  FeedHealthyRounds(&recorder, track, &t, 0, 2);
  clock.now_ns = t + 100 * kSec;
  EXPECT_TRUE(model.Update().ready);
}

TEST(WatchdogTest, BackgroundPollerPublishesGauges) {
  FlightRecorder recorder;
  const uint32_t track = recorder.RegisterTrack("s");
  MetricsRegistry registry;
  // Real clock here: the watchdog just needs to run Update at least once.
  HealthModel model(&registry, &recorder, {});
  {
    Watchdog watchdog(&model, /*period_ms=*/10);
    recorder.Record(track, Stage::kMerge, 0, NowNs() - 1000, NowNs());
    const HealthReport report = model.LastReport();
    EXPECT_TRUE(report.live);
  }  // destructor joins promptly even with a long period
  EXPECT_EQ(registry.GetGauge("ldpids_health_up").value(), 1);
}

}  // namespace
}  // namespace ldpids::obs
