// Pipelined vs serial serving: end-to-end releases/sec of one mechanism
// session when round t+1's ingestion overlaps round t's estimation.
//
// The client/network edge is modeled by a fleet thread with a configurable
// round-trip (--rtt-us, default 2000): an announced round's packets arrive
// that long after the announcement, exactly like devices answering a
// control-plane push. The serial path (pipeline_depth=1) pays the
// round-trip inline for every FO round; the pipelined path announces the
// mechanism's planned round early (PlanNextCollect), so the next round's
// production + transit + folding runs under the current round's estimate
// and the round-trips of a timestamp's publication round and the next
// timestamp's dissimilarity round overlap. Releases are bit-identical
// either way (pinned in pipeline_test); this bench records the wall-clock
// consequence. --rtt-us=0 isolates the pure CPU overlap (on a single
// hardware thread the two stages share one core, so expect parity there,
// not speedup).
//
// Flags: --scale, --reps (best rep kept), --threads, --rtt-us,
// --connections (highest K of the {1,2,4} sweep: the fleet stripes each
// round's frames across K senders feeding the same RoundBuffer, modeling
// multi-connection delivery; releases stay bit-identical at every K),
// --csv, --help. The "[throughput]" line records serial vs pipelined
// releases/sec (and reports/sec under overlap) plus the pipelined rate at
// each swept connection count for BENCH_pipeline.json.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/factory.h"
#include "core/mechanism.h"
#include "service/client_fleet.h"
#include "service/session.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace ldpids;
using namespace ldpids::bench;
using service::ClientFleet;
using service::MakeBufferedSplitTransport;
using service::MechanismSession;
using service::RoundRequest;
using service::SessionOptions;
using transport::Frame;
using transport::RoundBuffer;
using transport::SendRoundFrames;

constexpr std::size_t kDomain = 32;
constexpr uint64_t kSessionId = 1;

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>(HashCounter(29, user, t) % kDomain);
}

MechanismConfig PipeConfig() {
  MechanismConfig config;
  config.epsilon = 1.0;
  config.window = 4;
  config.fo = "GRR";
  config.seed = 17;
  return config;
}

// Delivers frames straight into a RoundBuffer (the bench isolates the
// pipeline from socket costs; bench_transport covers the codec/socket).
class BufferSender final : public transport::FrameSender {
 public:
  explicit BufferSender(RoundBuffer& buffer) : buffer_(buffer) {}
  void Send(const Frame& frame) override {
    Frame copy = frame;
    buffer_.Deliver(std::move(copy));
  }

 private:
  RoundBuffer& buffer_;
};

// The client/network edge: each announced round's packets are produced and
// delivered into the RoundBuffer one round-trip after the announcement.
// Deadlines are taken at announce time, so the round-trips of rounds
// announced close together elapse concurrently — latency, not occupancy.
class LatentFleet {
 public:
  LatentFleet(const ClientFleet& fleet, RoundBuffer& buffer,
              std::chrono::microseconds rtt, std::size_t connections)
      : fleet_(fleet), rtt_(rtt) {
    for (std::size_t c = 0; c < std::max<std::size_t>(1, connections); ++c) {
      senders_.push_back(std::make_unique<BufferSender>(buffer));
      sender_ptrs_.push_back(senders_.back().get());
    }
    worker_ = std::thread([this] { Loop(); });
  }

  ~LatentFleet() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  // Session thread; cheap (posts the descriptor). The request is copied —
  // planned rounds are whole-population, so no cohort pointer escapes.
  void Announce(const RoundRequest& request) {
    Pending pending;
    pending.request = request;
    pending.deadline = std::chrono::steady_clock::now() + rtt_;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(pending);
    }
    cv_.notify_all();
  }

 private:
  struct Pending {
    RoundRequest request;
    std::chrono::steady_clock::time_point deadline;
  };

  void Loop() {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        pending = std::move(queue_.front());
        queue_.pop_front();
      }
      std::this_thread::sleep_until(pending.deadline);
      SendRoundFrames(sender_ptrs_, kSessionId, pending.request.round_index,
                      fleet_.ProduceRound(pending.request, 1));
    }
  }

  const ClientFleet& fleet_;
  std::vector<std::unique_ptr<BufferSender>> senders_;
  std::vector<transport::FrameSender*> sender_ptrs_;
  const std::chrono::microseconds rtt_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  std::thread worker_;
};

struct PipeRun {
  std::size_t depth = 0;
  double wall_s = 0.0;
  uint64_t releases = 0;
  uint64_t reports = 0;

  double releases_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(releases) / wall_s : 0.0;
  }
  double reports_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(reports) / wall_s : 0.0;
  }
};

// One full session run at the given pipeline depth; best of `reps`.
PipeRun RunOnce(uint64_t users, std::size_t timestamps, std::size_t depth,
                std::chrono::microseconds rtt, std::size_t shards,
                std::size_t threads, std::size_t connections) {
  const ClientFleet fleet(users, TruthValue, 2026);
  // The whole recording fits the default admission window comfortably,
  // but a prefetched round is one ahead of the drain point by design.
  RoundBuffer buffer;
  LatentFleet edge(fleet, buffer, rtt, connections);

  SessionOptions options;
  options.num_shards = shards;
  options.num_threads = threads;
  options.pipeline_depth = depth;

  PipeRun run;
  run.depth = depth;
  const auto start = std::chrono::steady_clock::now();
  {
    MechanismSession session(
        CreateMechanism("LBA", PipeConfig(), users), kDomain, options,
        MakeBufferedSplitTransport(
            buffer, [&](const RoundRequest& r) { edge.Announce(r); },
            threads));
    for (std::size_t t = 0; t < timestamps; ++t) {
      session.Advance();
    }
    run.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    run.releases = timestamps;
    run.reports = session.stats().accepted;
    // The session destructor drains the final prefetched round; that
    // tail is deliberately outside the timed window (steady state is
    // what the pipeline changes).
  }
  return run;
}

PipeRun BestOf(int reps, uint64_t users, std::size_t timestamps,
               std::size_t depth, std::chrono::microseconds rtt,
               std::size_t shards, std::size_t threads,
               std::size_t connections = 1) {
  PipeRun best;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    PipeRun run = RunOnce(users, timestamps, depth, rtt, shards, threads,
                          connections);
    if (best.depth == 0 || run.wall_s < best.wall_s) best = run;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (HandleHelp(flags,
                 "bench_pipeline — serial vs pipelined mechanism session: "
                 "end-to-end releases/sec with a simulated client "
                 "round-trip (--rtt-us)")) {
    return 0;
  }
  const double scale = BenchScale(flags);
  const std::size_t threads = BenchThreads(flags);
  const int reps = RepsFlag(flags, 2);
  const std::string csv_path = flags.GetString("csv", "");
  const int64_t rtt_us_flag = flags.GetInt("rtt-us", 2000);
  if (rtt_us_flag < 0) {
    std::fprintf(stderr, "error: --rtt-us must be >= 0, got %lld\n",
                 static_cast<long long>(rtt_us_flag));
    return 2;
  }
  const int64_t connections_flag = flags.GetInt("connections", 4);
  if (connections_flag < 1) {
    std::fprintf(stderr, "error: --connections must be >= 1, got %lld\n",
                 static_cast<long long>(connections_flag));
    return 2;
  }
  const auto rtt = std::chrono::microseconds(rtt_us_flag);

  const uint64_t users = ScaledUsers(scale, 20000);
  const std::size_t timestamps = std::max<std::size_t>(
      16, ScaledLength(scale, 96));
  const std::size_t shards = 2;

  PrintHeader("Async release pipeline (LBA + GRR, releases/sec)", scale);
  std::printf("%llu users, %zu timestamps, rtt=%lldus, %zu shards\n\n",
              static_cast<unsigned long long>(users), timestamps,
              static_cast<long long>(rtt_us_flag), shards);

  std::printf("rtt_us   depth   wall_s   releases/sec   reports/sec\n");
  std::vector<PipeRun> runs;
  std::vector<int64_t> run_rtts;
  for (const int64_t case_rtt_us : {rtt_us_flag, int64_t{0}}) {
    for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
      const PipeRun run =
          BestOf(reps, users, timestamps, depth,
                 std::chrono::microseconds(case_rtt_us), shards, threads);
      std::printf("%6lld  %6zu  %7.3f  %13.1f  %12.0f\n",
                  static_cast<long long>(case_rtt_us), run.depth, run.wall_s,
                  run.releases_per_s(), run.reports_per_s());
      runs.push_back(run);
      run_rtts.push_back(case_rtt_us);
    }
  }

  const PipeRun& serial = runs[0];
  const PipeRun& pipelined = runs[1];
  const PipeRun& serial_nortt = runs[2];
  const PipeRun& pipelined_nortt = runs[3];
  std::printf("\noverlap win at rtt=%lldus: %.2fx releases/sec "
              "(%.1f -> %.1f)\n",
              static_cast<long long>(rtt_us_flag),
              serial.releases_per_s() > 0.0
                  ? pipelined.releases_per_s() / serial.releases_per_s()
                  : 0.0,
              serial.releases_per_s(), pipelined.releases_per_s());

  // Multi-connection sweep at the pipelined depth: the fleet stripes each
  // round across K senders; rates should hold and releases are pinned
  // bit-identical by transport_test, so this only records the cost curve.
  std::vector<std::size_t> sweep;
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    if (k <= static_cast<std::size_t>(connections_flag)) sweep.push_back(k);
  }
  std::vector<PipeRun> sweep_runs;
  if (!sweep.empty()) {
    std::printf("\npipelined (depth 2) across striped connections:\n");
    std::printf("  conns=1: %13.1f releases/sec\n",
                pipelined.releases_per_s());
    for (const std::size_t k : sweep) {
      sweep_runs.push_back(BestOf(reps, users, timestamps, /*depth=*/2, rtt,
                                  shards, threads, k));
      std::printf("  conns=%zu: %13.1f releases/sec\n", k,
                  sweep_runs.back().releases_per_s());
    }
  }

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path, {"rtt_us", "depth", "wall_s", "releases_per_s",
                             "reports_per_s"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      csv.WriteRow(std::to_string(run_rtts[i]),
                   {static_cast<double>(runs[i].depth), runs[i].wall_s,
                    runs[i].releases_per_s(), runs[i].reports_per_s()});
    }
  }

  std::string per_connection;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    char key[64];
    std::snprintf(key, sizeof(key), " pipelined_rps_c%zu=%.1f", sweep[i],
                  sweep_runs[i].releases_per_s());
    per_connection += key;
  }
  std::printf(
      "\n[throughput] threads=%zu connections=%lld rtt_us=%lld "
      "serial_rps=%.1f pipelined_rps=%.1f speedup=%.3f "
      "serial_reports_per_s=%.0f pipelined_reports_per_s=%.0f "
      "serial_rps_rtt0=%.1f pipelined_rps_rtt0=%.1f%s\n",
      threads, static_cast<long long>(connections_flag),
      static_cast<long long>(rtt_us_flag), serial.releases_per_s(),
      pipelined.releases_per_s(),
      serial.releases_per_s() > 0.0
          ? pipelined.releases_per_s() / serial.releases_per_s()
          : 0.0,
      serial.reports_per_s(), pipelined.reports_per_s(),
      serial_nortt.releases_per_s(), pipelined_nortt.releases_per_s(),
      per_connection.c_str());
  return 0;
}
