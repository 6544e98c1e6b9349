// End-to-end online serving demo: simulated client devices perturb their
// values, encode checksummed wire packets, a hostile network corrupts some
// in transit, and the serving layer (src/service/) ingests the survivors
// across shards, merges, and drives a w-event LDP mechanism one timestamp
// at a time — the server never sees a single true value.
//
// `--transport` selects how the packets reach the server:
//   inproc  (default) PR 3's in-process RoundTransport callback;
//   socket  each round's packets travel as length-prefixed frames over a
//           loopback TCP connection into a RoundBuffer (src/transport/),
//           with shuffled delivery and ~2% of the round duplicated;
//   file    the same framed traffic is recorded to an append-only log,
//           then replayed into a second, fresh server — which must (and
//           does) publish the identical release stream.
// All three paths produce bit-identical releases: the ingest edge
// deduplicates by user nonce, shard assignment is nonce-keyed, and sketch
// state is additive, so delivery order and duplication never show.
//
// Other flags: --users, --timestamps, --shards (0 = one per hardware
// thread), --log (frame log path for --transport=file), --pipeline
// (SessionOptions::pipeline_depth; >= 2 overlaps the next round's
// ingestion with the current round's estimation — releases are identical
// at every depth; with --transport=socket the announce half runs on the
// session thread via the split transport so the next round's frames are
// in flight during the current estimate), --connections (socket mode
// only: stripe each round's frames across K loopback TCP connections;
// the RoundBuffer reassembles by distinct-packet count, so the releases
// are bit-identical at every K).
//
// Observability flags (src/obs/): --metrics-dump {json|text|both} prints
// an end-of-run snapshot of every registered metric (frame, round-buffer,
// arena, ingest counters plus per-stage latency histograms) — to stdout,
// or to --metrics-out PATH for machine consumption (CI validates the JSON
// with python3 -m json.tool). --metrics-every N prints a one-line stderr
// summary every N timestamps while the stream runs. Metrics never change
// the releases: instrumentation is write-only, pinned by the file-mode
// replay identity check running fully instrumented.
//
// Live scrape plane: --http-port N binds the embedded observability
// endpoint (obs/scrape_endpoint.h) on 127.0.0.1:N (0 = ephemeral; the
// bound port is printed as `[obs] http endpoint on 127.0.0.1:PORT`),
// serving /metrics, /metrics.json, /healthz, /statusz and /trace while
// the stream runs. --linger-ms M keeps the process (and the endpoint)
// alive M milliseconds after the run so external scrapers can collect the
// final state — CI's scrape smoke job curls every endpoint in that
// window. --trace-out PATH writes the flight recorder's ring as Chrome
// trace-event JSON at exit (open in chrome://tracing or ui.perfetto.dev).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <chrono>
#include <thread>

#include "core/factory.h"
#include "core/mechanism.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/scrape_endpoint.h"
#include "obs/stage_trace.h"
#include "obs/stats_feed.h"
#include "service/client_fleet.h"
#include "service/session.h"
#include "transport/batch_file.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "transport/socket.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace {

using namespace ldpids;
using service::ClientFleet;
using service::IngestStats;
using service::MechanismSession;
using service::RoundRequest;
using service::SessionOptions;
using transport::Frame;
using transport::FrameDemux;
using transport::FrameLogWriter;
using transport::MakeBufferedTransport;
using transport::RoundBuffer;
using transport::RoundBufferOptions;
using transport::SendRoundFrames;
using transport::SocketClient;
using transport::SocketListener;

constexpr std::size_t kDomain = 8;
constexpr uint64_t kSessionId = 1;
constexpr double kCorruptionRate = 0.01;
constexpr double kDuplicationRate = 0.02;

struct DemoRun {
  std::vector<StepResult> steps;
  service::IngestStats ingest;
  uint64_t rounds = 0;
};

MechanismConfig DemoConfig() {
  MechanismConfig config;
  config.epsilon = 1.0;
  config.window = 4;
  config.fo = "OUE";
  config.seed = 11;
  return config;
}

// One-line live summary of the registry: rounds, accepted reports, and
// the p50 of the two most deployment-relevant stages. Sums across label
// sets so it works for any session/connection labeling.
void PrintObsSummary(const obs::MetricsRegistry& registry, std::size_t t) {
  const obs::MetricsSnapshot snap = registry.Snapshot();
  uint64_t rounds = 0;
  uint64_t accepted = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "ldpids_session_rounds_total") rounds += c.value;
    if (c.name == "ldpids_ingest_reports_total") {
      for (const auto& [key, value] : c.labels) {
        if (key == "result" && value == "accepted") accepted += c.value;
      }
    }
  }
  uint64_t rtt_p50 = 0;
  uint64_t estimate_p50 = 0;
  for (const auto& h : snap.histograms) {
    if (h.name != obs::kStageDurationMetric) continue;
    for (const auto& [key, value] : h.labels) {
      if (key != "stage") continue;
      if (value == "transport_rtt") rtt_p50 = h.Quantile(0.5);
      if (value == "estimate") estimate_p50 = h.Quantile(0.5);
    }
  }
  std::fprintf(stderr,
               "[obs] t=%zu rounds=%llu accepted=%llu "
               "transport_rtt_p50=%.1fus estimate_p50=%.1fus\n",
               t, static_cast<unsigned long long>(rounds),
               static_cast<unsigned long long>(accepted),
               static_cast<double>(rtt_p50) / 1e3,
               static_cast<double>(estimate_p50) / 1e3);
}

// Optional observability for a demo run: a registry to summarize every
// `every` timestamps (0 = never).
struct ObsOptions {
  const obs::MetricsRegistry* registry = nullptr;
  std::size_t every = 0;
};

// Drives one full session and collects its releases. `Transport` is
// either a service::RoundTransport or a service::SplitRoundTransport.
template <typename Transport>
DemoRun RunSession(uint64_t users, std::size_t timestamps,
                   SessionOptions options, Transport t,
                   const ObsOptions& obs_opts = {}) {
  MechanismSession session(CreateMechanism("LBA", DemoConfig(), users),
                           kDomain, options, std::move(t));
  DemoRun result;
  for (std::size_t step = 0; step < timestamps; ++step) {
    result.steps.push_back(session.Advance());
    if (obs_opts.registry != nullptr && obs_opts.every != 0 &&
        (step + 1) % obs_opts.every == 0) {
      PrintObsSummary(*obs_opts.registry, step + 1);
    }
  }
  result.ingest = session.stats();
  result.rounds = session.rounds();
  return result;
}

// End-of-run metrics dump: `mode` is json, text or both; written to
// `out_path` when non-empty (pure JSON stays machine-parseable there),
// stdout otherwise.
int DumpMetrics(obs::MetricsRegistry& registry, const std::string& mode,
                const std::string& out_path) {
  obs::TouchProcessMetrics(&registry);  // fresh uptime on the final dump
  const obs::MetricsSnapshot snap = registry.Snapshot();
  std::string rendered;
  if (mode == "json") {
    rendered = obs::RenderJson(snap) + "\n";
  } else if (mode == "text") {
    rendered = obs::RenderPrometheus(snap);
  } else {  // both
    rendered = obs::RenderJson(snap) + "\n" + obs::RenderPrometheus(snap);
  }
  if (out_path.empty()) {
    std::printf("\n--- metrics (%s) ---\n%s", mode.c_str(), rendered.c_str());
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write --metrics-out %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(rendered.data(), 1, rendered.size(), f);
  std::fclose(f);
  std::printf("\nmetrics (%s) written to %s\n", mode.c_str(),
              out_path.c_str());
  return 0;
}

void PrintReleases(const DemoRun& result) {
  std::printf("  t  published  est[2]   est[5]\n");
  for (std::size_t t = 0; t < result.steps.size(); ++t) {
    std::printf(" %2zu      %s     %+.3f   %+.3f\n", t,
                result.steps[t].published ? "yes" : " no",
                result.steps[t].release[2], result.steps[t].release[5]);
  }
  std::printf("\nrounds: %llu   ingest: %s\n",
              static_cast<unsigned long long>(result.rounds),
              result.ingest.ToString().c_str());
}

bool SameReleases(const DemoRun& a, const DemoRun& b) {
  if (a.steps.size() != b.steps.size()) return false;
  for (std::size_t t = 0; t < a.steps.size(); ++t) {
    if (a.steps[t].release != b.steps[t].release) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string mode = flags.GetString("transport", "inproc");
  const uint64_t users =
      static_cast<uint64_t>(flags.GetInt("users", 30000));
  const std::size_t timestamps =
      static_cast<std::size_t>(flags.GetInt("timestamps", 16));
  const std::size_t shards =
      static_cast<std::size_t>(flags.GetInt("shards", 4));
  const std::string log_path =
      flags.GetString("log", "live_service_frames.log");
  const int64_t pipeline = flags.GetInt("pipeline", 1);
  const int64_t connections = flags.GetInt("connections", 1);
  const std::string metrics_dump = flags.GetString("metrics-dump", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::size_t metrics_every =
      static_cast<std::size_t>(flags.GetInt("metrics-every", 0));
  const int64_t http_port = flags.GetInt("http-port", -1);
  const int64_t linger_ms = flags.GetInt("linger-ms", 0);
  const std::string trace_out = flags.GetString("trace-out", "");
  if (http_port > 65535) {
    std::fprintf(stderr, "--http-port must be <= 65535, got %lld\n",
                 static_cast<long long>(http_port));
    return 2;
  }
  if (!metrics_dump.empty() && metrics_dump != "json" &&
      metrics_dump != "text" && metrics_dump != "both") {
    std::fprintf(stderr,
                 "unknown --metrics-dump '%s' (want json, text or both)\n",
                 metrics_dump.c_str());
    return 2;
  }
  if (mode != "inproc" && mode != "socket" && mode != "file") {
    std::fprintf(stderr,
                 "unknown --transport '%s' (want inproc, socket or file)\n",
                 mode.c_str());
    return 2;
  }
  if (pipeline < 1) {
    std::fprintf(stderr, "--pipeline must be >= 1, got %lld\n",
                 static_cast<long long>(pipeline));
    return 2;
  }
  if (connections < 1) {
    std::fprintf(stderr, "--connections must be >= 1, got %lld\n",
                 static_cast<long long>(connections));
    return 2;
  }

  // Ground truth held on-device: a burst moves the population's mode from
  // value 2 to value 5 halfway through the stream.
  const std::size_t half = timestamps / 2;
  auto truth = [half](uint64_t user, std::size_t t) -> uint32_t {
    const uint64_t h = HashCounter(99, user, t);
    const uint32_t mode_value = t < half ? 2u : 5u;
    return (h % 10) < 7 ? mode_value : static_cast<uint32_t>(h % kDomain);
  };
  const ClientFleet fleet(users, truth, /*seed=*/2026);

  // Hostile network, applied on the client side of every transport: ~1% of
  // packets get a byte flipped in transit. The ingest edge must reject
  // them by checksum, never crash, never skew the estimate (corruption is
  // value-independent).
  Rng network_rng(7);
  auto mangle = [&network_rng](std::vector<uint8_t>& packet) {
    if (network_rng.Bernoulli(kCorruptionRate)) {
      packet[network_rng.UniformInt(packet.size())] ^= 0xFF;
    }
  };

  SessionOptions options;
  options.num_shards = shards;
  options.num_threads = 1;
  options.pipeline_depth = static_cast<std::size_t>(pipeline);

  // The demo always runs instrumented — releases are bit-identical either
  // way (the file-mode replay identity check runs fully instrumented), and
  // the --metrics-* flags only control what gets printed.
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  options.metrics_label = "live";
  const ObsOptions obs_opts{&registry, metrics_every};

  // The flight recorder rides along unconditionally, like the registry:
  // recording is write-only and lock-free, and the releases stay
  // bit-identical with it attached.
  obs::FlightRecorder recorder;
  options.recorder = &recorder;
  obs::TouchProcessMetrics(&registry);
  std::unique_ptr<obs::ScrapeEndpoint> endpoint;
  if (http_port >= 0) {
    obs::ScrapeEndpointOptions endpoint_options;
    endpoint_options.port = static_cast<uint16_t>(http_port);
    endpoint = std::make_unique<obs::ScrapeEndpoint>(&registry, &recorder,
                                                     endpoint_options);
    std::printf("[obs] http endpoint on 127.0.0.1:%u\n", endpoint->port());
    std::fflush(stdout);
  }

  // Common exit path: trace export, metrics dump, then the linger window
  // (the scrape endpoint stays up through it for external collectors).
  auto finish = [&](int rc) -> int {
    if (!trace_out.empty()) {
      const obs::FlightRecorderSnapshot trace_snap = recorder.Snapshot();
      const std::string trace = obs::RenderChromeTrace(trace_snap);
      std::FILE* f = std::fopen(trace_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write --trace-out %s\n",
                     trace_out.c_str());
        if (rc == 0) rc = 1;
      } else {
        std::fwrite(trace.data(), 1, trace.size(), f);
        std::fclose(f);
        std::printf("chrome trace (%zu events) written to %s\n",
                    trace_snap.events.size(), trace_out.c_str());
      }
    }
    if (!metrics_dump.empty()) {
      const int dump_rc = DumpMetrics(registry, metrics_dump, metrics_out);
      if (rc == 0) rc = dump_rc;
    }
    if (linger_ms > 0 && endpoint != nullptr) {
      std::fprintf(stderr, "[obs] lingering %lld ms for scrapers\n",
                   static_cast<long long>(linger_ms));
      std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
    }
    return rc;
  };

  std::printf(
      "online LDP-IDS serving: %llu clients, d=%zu, %zu shards%s, "
      "LBA + OUE, w=%zu, transport=%s, pipeline_depth=%lld\n\n",
      static_cast<unsigned long long>(users), kDomain, shards,
      shards == 0 ? " (adaptive)" : "", DemoConfig().window, mode.c_str(),
      static_cast<long long>(pipeline));

  if (mode == "inproc") {
    const DemoRun result = RunSession(
        users, timestamps, options,
        fleet.Transport(1, [&mangle](std::vector<uint8_t>& packet, uint64_t,
                                     uint64_t) {
          mangle(packet);
          return true;
        }),
        obs_opts);
    PrintReleases(result);
    std::printf("(the mode handoff 2 -> 5 at t=%zu shows up in the "
                "releases while every report stayed eps-LDP on the wire)\n",
                half);
    return finish(0);
  }

  // Framed transports: the round's packets leave the fleet as frames, get
  // shuffled and partially duplicated in flight, and reassemble in a
  // RoundBuffer on the server side.
  Rng delivery_rng(13);
  uint64_t frames_duplicated = 0;
  auto send_round = [&](const std::vector<transport::FrameSender*>& senders,
                        const RoundRequest& request) {
    auto packets = fleet.ProduceRound(request, 1);
    for (auto& packet : packets) mangle(packet);
    // Shuffle delivery order and duplicate ~2% of the round.
    for (std::size_t i = packets.size(); i > 1; --i) {
      std::swap(packets[i - 1], packets[delivery_rng.UniformInt(i)]);
    }
    const std::size_t n = packets.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (delivery_rng.Bernoulli(kDuplicationRate)) {
        packets.push_back(packets[i]);
        ++frames_duplicated;
      }
    }
    SendRoundFrames(senders, kSessionId, request.round_index, packets);
  };

  if (mode == "socket") {
    RoundBuffer buffer;
    buffer.AttachMetrics(&registry, "live");
    FrameDemux demux;
    demux.Register(kSessionId, &buffer);
    SocketListener listener(0, demux.Handler());
    listener.AttachMetrics(&registry, "live");
    std::vector<std::unique_ptr<SocketClient>> clients;
    std::vector<transport::FrameSender*> senders;
    for (int64_t c = 0; c < connections; ++c) {
      clients.push_back(std::make_unique<SocketClient>(listener.port()));
      senders.push_back(clients.back().get());
    }
    std::printf("loopback listener on 127.0.0.1:%u, %lld connection%s\n\n",
                listener.port(), static_cast<long long>(connections),
                connections == 1 ? "" : "s");

    // Pipelined sessions want the split transport: the announce half (the
    // fleet answering over the socket) then runs on the session thread
    // while the ingest worker folds the previous round.
    const DemoRun result = RunSession(
        users, timestamps, options,
        transport::MakeBufferedSplitTransport(
            buffer,
            [&](const RoundRequest& request) { send_round(senders, request); },
            options.num_threads),
        obs_opts);
    for (auto& client : clients) client->Close();
    listener.Stop();
    PrintReleases(result);
    std::printf("frames duplicated in flight: %llu (rejected by nonce "
                "dedup; corrupted copies by checksum)\n",
                static_cast<unsigned long long>(frames_duplicated));
    // Per-connection decode accounting: stats() is the operator+= sum of
    // the per-connection entries, and the demo checks that here.
    const std::vector<transport::FrameStats> per_conn =
        listener.connection_stats();
    transport::FrameStats summed;
    for (std::size_t c = 0; c < per_conn.size(); ++c) {
      std::printf("  conn %zu: %s\n", c, per_conn[c].ToString().c_str());
      summed += per_conn[c];
    }
    std::printf("listener (%zu connections summed): %s\n", per_conn.size(),
                summed.ToString().c_str());
    std::printf("round buffer: %s\n", buffer.stats().ToString().c_str());
    return finish(0);
  }

  // --transport=file: record the framed traffic while serving live, then
  // replay the log into a second, fresh server and check both publish the
  // identical release stream.
  class RecordAndDeliver : public transport::FrameSender {
   public:
    RecordAndDeliver(FrameLogWriter& recorder, RoundBuffer& buffer)
        : recorder_(recorder), buffer_(buffer) {}
    void Send(const Frame& frame) override {
      recorder_.Send(frame);
      Frame copy = frame;
      buffer_.Deliver(std::move(copy));
    }
    void Flush() override { recorder_.Flush(); }

   private:
    FrameLogWriter& recorder_;
    RoundBuffer& buffer_;
  };

  DemoRun live;
  {
    RoundBuffer buffer;
    buffer.AttachMetrics(&registry, "live");
    FrameLogWriter recorder(log_path);
    RecordAndDeliver tee(recorder, buffer);
    live = RunSession(
        users, timestamps, options,
        MakeBufferedTransport(
            buffer,
            [&](const RoundRequest& request) { send_round({&tee}, request); },
            options.num_threads),
        obs_opts);
    recorder.Close();
    std::printf("recorded %llu frames (%llu bytes) -> %s\n\n",
                static_cast<unsigned long long>(recorder.frames_written()),
                static_cast<unsigned long long>(recorder.bytes_written()),
                log_path.c_str());
  }
  PrintReleases(live);

  // Replay: the whole recording lands up front, so every round beyond the
  // first arrives early — widen the watermark so the buffer holds it all.
  RoundBufferOptions replay_options;
  replay_options.max_lateness = ~uint64_t{0} / 2;
  replay_options.max_buffered_rounds = ~uint64_t{0} / 2;
  RoundBuffer replay_buffer(replay_options);
  replay_buffer.AttachMetrics(&registry, "replay");
  const transport::FrameStats replay_stats = transport::ReplayFrameLog(
      log_path,
      [&](Frame&& frame) { replay_buffer.Deliver(std::move(frame)); });
  // The log replayer owns its decoder, so its stats reach the canonical
  // frame metrics through a feed the demo owns.
  obs::StatsFeed<transport::FrameStats> replay_feed(
      &registry, obs::Labels{{"session", "replay"}});
  replay_feed.Add(replay_stats);
  SessionOptions replay_session_options = options;
  replay_session_options.metrics_label = "replay";
  const DemoRun replayed =
      RunSession(users, timestamps, replay_session_options,
                 MakeBufferedTransport(replay_buffer, nullptr,
                                       options.num_threads),
                 obs_opts);
  std::printf("\nreplay: %s\n", replay_stats.ToString().c_str());
  if (!SameReleases(live, replayed)) {
    std::printf("replayed releases DIVERGED from the live run\n");
    return finish(1);
  }
  std::printf("replayed releases are bit-identical to the live run "
              "(%zu timestamps, %llu rounds)\n",
              replayed.steps.size(),
              static_cast<unsigned long long>(replayed.rounds));
  IngestStats combined = live.ingest;
  combined += replayed.ingest;
  std::printf("combined ingest over both runs: %s (%llu packets)\n",
              combined.ToString().c_str(),
              static_cast<unsigned long long>(combined.total()));
  return finish(0);
}
