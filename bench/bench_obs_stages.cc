// Observability bench: per-stage pipeline latency distribution and the
// throughput cost of running the serving path with a live metrics
// registry.
//
// Three sections:
//   1. Metrics overhead — the end-to-end in-process serving path (LBU over
//      the fleet transport, adaptive shards) timed back to back with the
//      registry detached and attached. The acceptance gate is the on/off
//      ratio: scripts/check_bench_regression.py requires >= 0.95 (metrics
//      cost at most 5% of serving throughput).
//   2. Flight-recorder overhead — the same path with the metrics registry
//      AND the round-event flight recorder attached (7 ring events per
//      round). Gate: recorder_ratio (recorder-on vs metrics-only) >= 0.95.
//   3. Stage latencies — a fully instrumented networked run (loopback
//      socket, pipeline_depth=2 split transport, so stage overlap matches
//      a real deployment) reporting p50/p99 for all 8 pipeline stages from
//      the ldpids_stage_duration_ns histograms.
//
// The "[throughput]" line records rps_metrics_off / rps_metrics_on /
// metrics_ratio / rps_recorder_on / recorder_ratio plus
// stage_<name>_p50_ns / _p99_ns for every stage, which run_benches.sh
// parses into BENCH_obs_stages.json.
//
// Flags: --scale, --reps (best rep reported), --threads, --csv, --help.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/factory.h"
#include "core/mechanism.h"
#include "fo/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "service/client_fleet.h"
#include "service/session.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "transport/socket.h"
#include "util/csv_writer.h"
#include "util/flags.h"

namespace {

using namespace ldpids;
using namespace ldpids::bench;
using service::ClientFleet;
using service::MakeBufferedSplitTransport;
using service::MechanismSession;
using service::RoundRequest;
using service::SessionOptions;
using transport::FrameDemux;
using transport::RoundBuffer;
using transport::SendRoundFrames;
using transport::SocketClient;
using transport::SocketListener;

constexpr std::size_t kDomain = 64;
constexpr uint64_t kSessionId = 1;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>(HashCounter(31, user, t) % kDomain);
}

MechanismConfig ServeConfig() {
  MechanismConfig config;
  config.epsilon = 1.0;
  config.window = 8;
  config.fo = "GRR";
  config.seed = 17;
  return config;
}

// End-to-end in-process serving rate (accepted reports/sec, best rep),
// with or without a registry attached. Identical work either way — the
// instrumentation is write-only — so the ratio isolates the metrics cost.
double BestServingRate(uint64_t users, std::size_t timestamps,
                       std::size_t threads, int reps,
                       obs::MetricsRegistry* registry,
                       obs::FlightRecorder* recorder = nullptr) {
  const ClientFleet fleet(users, TruthValue, 77);
  double best = 0.0;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    SessionOptions options;
    options.num_shards = 0;
    options.num_threads = threads;
    if (registry != nullptr) {
      options.metrics = registry;
      options.metrics_label = "inproc";
    }
    options.recorder = recorder;
    MechanismSession session(CreateMechanism("LBU", ServeConfig(), users),
                             kDomain, options, fleet.Transport(threads));
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < timestamps; ++t) session.Advance();
    const double wall = Seconds(start);
    if (wall > 0.0) {
      best = std::max(
          best, static_cast<double>(session.stats().accepted) / wall);
    }
  }
  return best;
}

// One fully instrumented networked run: LBU over a loopback socket with
// the pipelined split transport, every layer feeding `registry` under the
// session label "serve". Exercises all 8 stages including frame_decode.
void InstrumentedSocketRun(uint64_t users, std::size_t timestamps,
                           std::size_t threads,
                           obs::MetricsRegistry* registry) {
  const ClientFleet fleet(users, TruthValue, 78);
  RoundBuffer buffer;
  buffer.AttachMetrics(registry, "serve");
  FrameDemux demux;
  demux.Register(kSessionId, &buffer);
  SocketListener listener(0, demux.Handler());
  listener.AttachMetrics(registry, "serve");
  SocketClient client(listener.port());

  SessionOptions options;
  options.num_shards = 0;
  options.num_threads = threads;
  options.pipeline_depth = 2;
  options.metrics = registry;
  options.metrics_label = "serve";
  auto announce = [&](const RoundRequest& request) {
    SendRoundFrames(client, kSessionId, request.round_index,
                    fleet.ProduceRound(request, threads));
  };
  {
    MechanismSession session(
        CreateMechanism("LBU", ServeConfig(), users), kDomain, options,
        MakeBufferedSplitTransport(buffer, announce, threads));
    for (std::size_t t = 0; t < timestamps; ++t) session.Advance();
    // Session teardown drains the in-flight prefetched round while the
    // socket is still up.
  }
  client.Close();
  listener.Stop();
}

struct StageRow {
  std::string name;
  uint64_t count = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (HandleHelp(flags,
                 "bench_obs_stages — metrics-registry overhead on the "
                 "serving path and p50/p99 latency per pipeline stage")) {
    return 0;
  }
  const double scale = BenchScale(flags);
  const std::size_t threads = BenchThreads(flags);
  const int reps = RepsFlag(flags, 3);
  const std::string csv_path = flags.GetString("csv", "");

  const uint64_t users = std::max<uint64_t>(400, ScaledUsers(scale, 60000));
  const std::size_t timestamps =
      std::max<std::size_t>(12, ScaledLength(scale, 96));

  PrintHeader("Observability: metrics overhead + stage latencies", scale);

  // --- section 1: metrics on/off serving throughput ---
  const double rps_off =
      BestServingRate(users, timestamps, threads, reps, nullptr);
  obs::MetricsRegistry overhead_registry;
  const double rps_on =
      BestServingRate(users, timestamps, threads, reps, &overhead_registry);
  const double ratio = rps_off > 0.0 ? rps_on / rps_off : 0.0;
  // Recorder on top of metrics: isolates the flight-recorder ring cost
  // (vs the metrics-on rate, not the bare rate — the recorder is always
  // deployed alongside the registry).
  obs::MetricsRegistry recorder_registry;
  obs::FlightRecorder flight_recorder;
  const double rps_recorder = BestServingRate(
      users, timestamps, threads, reps, &recorder_registry, &flight_recorder);
  const double recorder_ratio = rps_on > 0.0 ? rps_recorder / rps_on : 0.0;
  std::printf(
      "serving throughput (LBU x %zu timestamps, %llu users/round):\n"
      "  metrics off:          %12.0f reports/s\n"
      "  metrics on:           %12.0f reports/s   (ratio %.3f)\n"
      "  metrics + recorder:   %12.0f reports/s   (recorder ratio %.3f)\n",
      timestamps, static_cast<unsigned long long>(users), rps_off, rps_on,
      ratio, rps_recorder, recorder_ratio);

  // --- section 2: stage latency distribution, networked + pipelined ---
  obs::MetricsRegistry registry;
  InstrumentedSocketRun(users, timestamps, threads, &registry);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  std::vector<StageRow> rows;
  std::printf(
      "\nstage latencies over the socket path (pipeline_depth=2):\n"
      "  stage           count      p50          p99\n");
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    const char* name = obs::StageName(static_cast<obs::Stage>(s));
    const obs::HistogramSample* h = snap.FindHistogram(
        obs::kStageDurationMetric, {{"session", "serve"}, {"stage", name}});
    StageRow row;
    row.name = name;
    if (h != nullptr) {
      row.count = h->count;
      row.p50_ns = h->Quantile(0.50);
      row.p99_ns = h->Quantile(0.99);
    }
    std::printf("  %-13s %7llu  %8.1fus   %8.1fus\n", name,
                static_cast<unsigned long long>(row.count),
                static_cast<double>(row.p50_ns) / 1e3,
                static_cast<double>(row.p99_ns) / 1e3);
    rows.push_back(std::move(row));
  }

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path, {"stage", "count", "p50_ns", "p99_ns"});
    for (const StageRow& row : rows) {
      csv.WriteRow(row.name, {static_cast<double>(row.count),
                              static_cast<double>(row.p50_ns),
                              static_cast<double>(row.p99_ns)});
    }
  }

  std::string line;
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "[throughput] threads=%zu users=%llu timestamps=%zu "
                "rps_metrics_off=%.0f rps_metrics_on=%.0f metrics_ratio=%.3f "
                "rps_recorder_on=%.0f recorder_ratio=%.3f",
                threads, static_cast<unsigned long long>(users), timestamps,
                rps_off, rps_on, ratio, rps_recorder, recorder_ratio);
  line += buf;
  for (const StageRow& row : rows) {
    std::snprintf(buf, sizeof(buf),
                  " stage_%s_p50_ns=%llu stage_%s_p99_ns=%llu",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.p50_ns),
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.p99_ns));
    line += buf;
  }
  std::printf("\n%s\n", line.c_str());
  return 0;
}
