// src/obs/ unit tests: counter/gauge/histogram semantics, log2 bucket
// boundaries, concurrent-increment exactness, snapshot isolation, the
// stats-struct feeds, golden exposition output for both exporters, and the
// SIMD backend name the build info reports.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fo/report_arena.h"
#include "fo/wire.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "obs/stats_feed.h"
#include "service/ingest.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "util/simd/avx512.h"
#include "util/simd/simd.h"

namespace ldpids::obs {
namespace {

TEST(CounterTest, AddAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c_total");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAddIncludingNegative) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("g");
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
  g.Set(0);
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 is exactly v == 0; bucket k holds [2^(k-1), 2^k).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  for (std::size_t k = 1; k + 1 < Histogram::kNumBuckets; ++k) {
    EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << (k - 1)), k) << k;
    EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << k) - 1), k) << k;
  }
  // Everything at or above 2^(kNumBuckets-2) lands in the open top bucket.
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1}
                                   << (Histogram::kNumBuckets - 2)),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 2u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1024u);
}

TEST(HistogramTest, ObserveFillsBucketsCountAndSum) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("h_ns");
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.bucket(0), 1u);   // 0
  EXPECT_EQ(h.bucket(1), 1u);   // 1 in [1,2)
  EXPECT_EQ(h.bucket(3), 1u);   // 5 in [4,8)
  EXPECT_EQ(h.bucket(10), 1u);  // 1000 in [512,1024)
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(HistogramTest, QuantileInterpolatesInsideOwningBucket) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("h_ns");
  MetricsSnapshot empty_snap = registry.Snapshot();
  EXPECT_EQ(empty_snap.FindHistogram("h_ns")->Quantile(0.5), 0u);

  h.Observe(0);
  h.Observe(0);
  MetricsSnapshot zeros = registry.Snapshot();
  EXPECT_EQ(zeros.FindHistogram("h_ns")->Quantile(0.99), 0u);

  Histogram& single = registry.GetHistogram("single_ns");
  single.Observe(1000);
  MetricsSnapshot snap = registry.Snapshot();
  // One observation in [512, 1024): any quantile interpolates to the
  // bucket's upper bound.
  EXPECT_EQ(snap.FindHistogram("single_ns")->Quantile(0.5), 1024u);
  // Quantiles are monotone in q.
  const HistogramSample* s = snap.FindHistogram("h_ns");
  EXPECT_LE(s->Quantile(0.0), s->Quantile(1.0));
}

TEST(RegistryTest, SameNameDifferentTypeThrows) {
  MetricsRegistry registry;
  registry.GetCounter("x_total");
  EXPECT_THROW(registry.GetGauge("x_total"), std::logic_error);
  EXPECT_THROW(registry.GetHistogram("x_total"), std::logic_error);
  // Same name + type is the same instance, not an error.
  EXPECT_EQ(&registry.GetCounter("x_total"), &registry.GetCounter("x_total"));
}

TEST(RegistryTest, LabelOrderIsCanonicalized) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("m_total", {{"b", "2"}, {"a", "1"}});
  Counter& b = registry.GetCounter("m_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
  a.Add(3);
  MetricsSnapshot snap = registry.Snapshot();
  const CounterSample* s =
      snap.FindCounter("m_total", {{"b", "2"}, {"a", "1"}});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->value, 3u);
}

TEST(RegistryTest, RenderLabelsEscapes) {
  EXPECT_EQ(RenderLabels({{"k", "a\"b\\c\nd"}}), "k=\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(RenderLabels({}), "");
  EXPECT_EQ(RenderLabels({{"a", "1"}, {"b", "2"}}), "a=\"1\",b=\"2\"");
}

TEST(RegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c_total");
  Histogram& h = registry.GetHistogram("h_ns");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Add(1);
        h.Observe(static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  // Threads 0..7 observe constants: 0 -> bucket 0, 1 -> bucket 1,
  // {2,3} -> bucket 2, {4..7} -> bucket 3.
  EXPECT_EQ(h.bucket(0), kPerThread);
  EXPECT_EQ(h.bucket(1), kPerThread);
  EXPECT_EQ(h.bucket(2), 2 * kPerThread);
  EXPECT_EQ(h.bucket(3), 4 * kPerThread);
}

TEST(RegistryTest, SnapshotIsIsolatedFromLaterWrites) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c_total");
  c.Add(5);
  const MetricsSnapshot before = registry.Snapshot();
  c.Add(100);
  registry.GetGauge("late_gauge").Set(1);
  const MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(before.FindCounter("c_total")->value, 5u);
  EXPECT_EQ(before.gauges.size(), 0u);
  EXPECT_EQ(after.FindCounter("c_total")->value, 105u);
  EXPECT_EQ(after.gauges.size(), 1u);
}

TEST(ExportTest, PrometheusGoldenOutput) {
  MetricsRegistry registry;
  registry.GetCounter("demo_requests_total", {{"code", "200"}}).Add(3);
  registry.GetCounter("demo_requests_total", {{"code", "500"}}).Add(1);
  registry.GetGauge("demo_pending").Set(-2);
  Histogram& h = registry.GetHistogram("demo_latency_ns");
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(1000);
  const std::string expected =
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total{code=\"200\"} 3\n"
      "demo_requests_total{code=\"500\"} 1\n"
      "# TYPE demo_pending gauge\n"
      "demo_pending -2\n"
      "# TYPE demo_latency_ns histogram\n"
      "demo_latency_ns_bucket{le=\"0\"} 1\n"
      "demo_latency_ns_bucket{le=\"2\"} 2\n"
      "demo_latency_ns_bucket{le=\"8\"} 3\n"
      "demo_latency_ns_bucket{le=\"1024\"} 4\n"
      "demo_latency_ns_bucket{le=\"+Inf\"} 4\n"
      "demo_latency_ns_sum 1006\n"
      "demo_latency_ns_count 4\n";
  EXPECT_EQ(RenderPrometheus(registry.Snapshot()), expected);
}

TEST(ExportTest, JsonGoldenOutput) {
  MetricsRegistry registry;
  registry.GetCounter("demo_requests_total", {{"code", "200"}}).Add(3);
  registry.GetGauge("demo_pending").Set(-2);
  Histogram& h = registry.GetHistogram("demo_latency_ns");
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(1000);
  // Pin the scrape-ordering metadata so the golden stays deterministic
  // (live values are tested separately below).
  MetricsSnapshot snap = registry.Snapshot();
  snap.ts_unix_ms = 1754000000000;
  snap.seq = 7;
  // p50 rank 2 lands in [1,2) at its upper edge; p99 rank 4 in [512,1024).
  const std::string expected =
      "{\"ts_unix_ms\":1754000000000,\"seq\":7,"
      "\"counters\":["
      "{\"name\":\"demo_requests_total\",\"labels\":{\"code\":\"200\"},"
      "\"value\":3}"
      "],\"gauges\":["
      "{\"name\":\"demo_pending\",\"labels\":{},\"value\":-2}"
      "],\"histograms\":["
      "{\"name\":\"demo_latency_ns\",\"labels\":{},\"count\":4,"
      "\"sum_ns\":1006,\"p50_ns\":2,\"p99_ns\":1024,\"buckets\":["
      "{\"le_ns\":0,\"count\":1},{\"le_ns\":2,\"count\":1},"
      "{\"le_ns\":8,\"count\":1},{\"le_ns\":1024,\"count\":1}]}"
      "]}";
  EXPECT_EQ(RenderJson(snap), expected);
}

TEST(ExportTest, SnapshotsCarryOrderableTimestampAndSequence) {
  MetricsRegistry registry;
  registry.GetCounter("c_total").Add(1);
  const MetricsSnapshot a = registry.Snapshot();
  const MetricsSnapshot b = registry.Snapshot();
  EXPECT_EQ(a.seq, 1u);
  EXPECT_EQ(b.seq, 2u);
  EXPECT_GT(a.ts_unix_ms, 0u);
  EXPECT_LE(a.ts_unix_ms, b.ts_unix_ms);
  // The rendered document leads with the ordering metadata.
  const std::string json = RenderJson(a);
  EXPECT_EQ(json.rfind("{\"ts_unix_ms\":", 0), 0u);
  EXPECT_NE(json.find(",\"seq\":1,"), std::string::npos);
}

TEST(StageTraceTest, InertSinkIgnoresEventsAndSinkObservesWindows) {
  StageSink inert;
  EXPECT_FALSE(inert.enabled());
  inert.Emit({Stage::kMerge, 0, 100, 223});  // must not crash
  inert.Begin(Stage::kTransportRtt, 0);
  inert.End(Stage::kTransportRtt);

  MetricsRegistry registry;
  StageSink stages(&registry, "s0", /*recorder=*/nullptr);
  EXPECT_TRUE(stages.enabled());
  stages.Emit({Stage::kMerge, 4, 1000, 1077});
  stages.Emit({Stage::kEstimate, 4, 1077, 1090});
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.histograms.size(), kNumStages);
  const HistogramSample* estimate = snap.FindHistogram(
      kStageDurationMetric, {{"stage", "estimate"}, {"session", "s0"}});
  ASSERT_NE(estimate, nullptr);
  EXPECT_EQ(estimate->count, 1u);
  EXPECT_EQ(estimate->sum, 13u);
  const HistogramSample* merge = snap.FindHistogram(
      kStageDurationMetric, {{"stage", "merge"}, {"session", "s0"}});
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->sum, 77u);
  const HistogramSample* announce = snap.FindHistogram(
      kStageDurationMetric, {{"stage", "announce"}, {"session", "s0"}});
  ASSERT_NE(announce, nullptr);
  EXPECT_EQ(announce->count, 0u);
}

TEST(StageTraceTest, StageNamesAreCanonical) {
  EXPECT_STREQ(StageName(Stage::kAnnounce), "announce");
  EXPECT_STREQ(StageName(Stage::kTransportRtt), "transport_rtt");
  EXPECT_STREQ(StageName(Stage::kFrameDecode), "frame_decode");
  EXPECT_STREQ(StageName(Stage::kArenaDecode), "arena_decode");
  EXPECT_STREQ(StageName(Stage::kShardFold), "shard_fold");
  EXPECT_STREQ(StageName(Stage::kMerge), "merge");
  EXPECT_STREQ(StageName(Stage::kEstimate), "estimate");
  EXPECT_STREQ(StageName(Stage::kPostProcess), "post_process");
}

// The name benches, ldpids_build_info and /statusz report must be the
// kernels that run: on an AVX2 build, avx512 exactly when the dispatched
// AVX-512 kernels do; on FORCE_SCALAR (and any non-AVX2) build, generic.
TEST(BuildInfoTest, SimdBackendNameNamesTheKernelsThatRun) {
  const std::string name = SimdBackendName();
  if (std::string_view(simd::kBackendName) == "avx2") {
    EXPECT_EQ(name, simd::Avx512Available() ? "avx512" : "avx2");
  } else {
    EXPECT_EQ(name, "generic");
    EXPECT_FALSE(simd::Avx512Available());
  }
}

TEST(StatsFeedTest, FrameFeedAddsDeltas) {
  MetricsRegistry registry;
  StatsFeed<transport::FrameStats> feed(&registry, {{"session", "t"}});
  transport::FrameStats s;
  s.frames = 10;
  s.data_frames = 9;
  s.end_round_frames = 1;
  s.bytes = 480;
  s.checksum_mismatch = 2;
  s.skipped_bytes = 7;
  feed.Add(s);
  transport::FrameStats delta;
  delta.frames = 2;
  delta.data_frames = 2;
  delta.bytes = 120;
  feed.Add(delta);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(
      snap.FindCounter("ldpids_frame_frames_total", {{"session", "t"}})->value,
      12u);
  EXPECT_EQ(snap.FindCounter("ldpids_frame_bytes_total", {{"session", "t"}})
                ->value,
            600u);
  EXPECT_EQ(snap.FindCounter("ldpids_frame_errors_total",
                             {{"session", "t"},
                              {"reason", "checksum_mismatch"}})
                ->value,
            2u);
  EXPECT_EQ(snap.FindCounter("ldpids_frame_errors_total",
                             {{"session", "t"}, {"reason", "bad_magic"}})
                ->value,
            0u);
}

// The ingest series count the arena's decoded rows: the wire-level
// rejects IngestStats copies from the arena are published only under
// ldpids_arena_rejects_total, so each drop has one series.
TEST(StatsFeedTest, IngestFeedResultLabels) {
  MetricsRegistry registry;
  StatsFeed<service::IngestStats> feed(&registry);
  service::IngestStats s;
  s.accepted = 100;
  s.duplicate = 4;
  s.malformed = 1;
  feed.Add(s);
  feed.Add(s);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("ldpids_ingest_reports_total",
                             {{"result", "accepted"}})
                ->value,
            200u);
  EXPECT_EQ(snap.FindCounter("ldpids_ingest_reports_total",
                             {{"result", "duplicate"}})
                ->value,
            8u);
  EXPECT_EQ(snap.FindCounter("ldpids_ingest_reports_total",
                             {{"result", "sketch_rejected"}})
                ->value,
            0u);
  for (const char* copied : {"malformed", "wrong_oracle", "wrong_timestamp"}) {
    EXPECT_EQ(snap.FindCounter("ldpids_ingest_reports_total",
                               {{"result", copied}}),
              nullptr)
        << copied;
  }
  EXPECT_EQ(snap.counters.size(), 3u);
}

// Wire-error reasons are snake_case and spelled like the frame decoder's
// reason for the same failure.
TEST(StatsFeedTest, ArenaWireErrorsShareTheFrameReasonNames) {
  MetricsRegistry registry;
  StatsFeed<ArenaDecodeStats> arena_feed(&registry);
  StatsFeed<transport::FrameStats> frame_feed(&registry);
  ArenaDecodeStats s;
  s.malformed = 3;
  ++s.wire_error(WireError::kBadMagic);
  ++s.wire_error(WireError::kBadVersion);
  ++s.wire_error(WireError::kChecksumMismatch);
  arena_feed.Add(s);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("ldpids_arena_rejects_total",
                             {{"reason", "malformed"}})
                ->value,
            3u);
  for (const WireError e : {WireError::kBadMagic, WireError::kBadVersion,
                            WireError::kChecksumMismatch}) {
    const Labels reason{{"reason", WireErrorName(e)}};
    ASSERT_NE(snap.FindCounter("ldpids_frame_errors_total", reason), nullptr)
        << WireErrorName(e);
    EXPECT_EQ(snap.FindCounter("ldpids_arena_wire_errors_total", reason)
                  ->value,
              1u)
        << WireErrorName(e);
  }
}

TEST(StatsFeedTest, RoundBufferFeedIdempotentPublishAndDropReasons) {
  MetricsRegistry registry;
  StatsFeed<transport::RoundBufferStats> feed(&registry, {{"session", "rb"}});
  transport::RoundBufferStats s;
  s.buffered = 40;
  s.end_markers = 2;
  s.closed_round_drops = 3;
  s.rounds_drained = 2;
  s.packets_drained = 37;
  feed.Publish(s);
  feed.Publish(s);  // same cumulative snapshot: no double count
  s.buffered = 50;
  s.packets_drained = 47;
  feed.Publish(s);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("ldpids_roundbuf_buffered_total",
                             {{"session", "rb"}})
                ->value,
            50u);
  EXPECT_EQ(snap.FindCounter("ldpids_roundbuf_packets_drained_total",
                             {{"session", "rb"}})
                ->value,
            47u);
  EXPECT_EQ(snap.FindCounter("ldpids_roundbuf_drops_total",
                             {{"session", "rb"}, {"reason", "closed_round"}})
                ->value,
            3u);
  EXPECT_TRUE(snap.gauges.empty());
}

// The pending-rounds gauge is the buffer's own: each drained round sets it
// to the rounds still buffered.
TEST(StatsFeedTest, RoundBufferPublishesPendingRoundsOnDrain) {
  MetricsRegistry registry;
  transport::RoundBuffer buffer;
  buffer.AttachMetrics(&registry, "rb");
  buffer.Deliver(transport::MakeEndRoundFrame(1, 0, 1));
  for (uint64_t round = 0; round < 6; ++round) {
    buffer.Deliver(transport::MakeDataFrame(1, round, {7, 7, 7}));
  }
  ASSERT_EQ(buffer.TakeRound(0).size(), 1u);
  EXPECT_EQ(buffer.stats().deadline_flushes, 0u);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "ldpids_roundbuf_pending_rounds");
  EXPECT_EQ(snap.gauges[0].value, 5);
  EXPECT_EQ(snap.FindCounter("ldpids_roundbuf_buffered_total",
                             {{"session", "rb"}})
                ->value,
            6u);
}

}  // namespace
}  // namespace ldpids::obs
