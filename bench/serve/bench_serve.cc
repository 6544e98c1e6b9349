// bench_serve — the repository benchmark: a server-only serving harness.
//
// The server processes never generate load. `gen` runs the real client
// protocol once per workload and records every round's frames; a
// single-threaded `inject` process then writes those recorded bytes into
// the server's sockets, each round at max(announce, due(t)). The server is
// timed from outside, through wrappers around the public calls into each
// layer (server.h), and every run's releases are checked against gen's
// reference. README.md describes the workloads, metrics and pacing model.
//
// Roles (one binary, re-executed through /proc/self/exe):
//   coordinator default: gen once per workload, then a fresh `server` per
//               (workload, phase, rep); prints and records the metrics
//   gen         records the frame logs, the round table and the reference,
//               then runs the pre-flight checks
//   server      one phase (sat | low | high) of one workload
//   inject      the load generator a server spawns
//   aggregator  a tree-hr leaf a server spawns
//
// Coordinator flags: --workload NAME (default: all four), --seed N (1),
// --reps R (3), --seconds S (measure for S seconds per workload instead of
// R reps), --trace (add traced reps: per-layer metrics + Chrome traces),
// --out DIR, --json PATH, --help. Exit status is non-zero on any digest
// mismatch, round divergence, lost report, deadline flush or invalid
// generator.
#include <sys/prctl.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "gen.h"
#include "inject.h"
#include "obs/build_info.h"
#include "server.h"
#include "trace.h"
#include "util/flags.h"
#include "util/simd/avx512.h"
#include "util/thread_pool.h"
#include "workloads.h"

#ifndef BENCH_SERVE_BUILD_TYPE
#define BENCH_SERVE_BUILD_TYPE "unknown"
#endif

namespace ldpids::bench_serve {
namespace {

// Root -> aggregator, one per announced round.
struct LeafDescriptor {
  uint64_t round_index = 0;
  uint64_t timestamp = 0;
  uint64_t epsilon_bits = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(LeafDescriptor) == 32, "descriptor is the pipe ABI");

// A sat run whose injector is busier than this share of its wall, or a
// paced run whose injector's p99 lag behind its schedule exceeds both the
// absolute limit and this share of the run's p99 latency, measured the
// generator rather than the server. The relative allowance covers the
// whole VM stalling (a shared host deschedules it for milliseconds): the
// injector is then as late as the server, and its lag stays a small part
// of the latency tail the stall creates.
constexpr double kMaxInjectBusyShare = 0.5;
constexpr double kMaxInjectLagP99Us = 1000.0;
constexpr double kMaxInjectLagShareOfLatP99 = 0.5;
// Attempts of one phase before it is given up as unmeasurable; a workload
// fails when no valid run measured one of its metrics.
constexpr int kInvalidAttempts = 3;

// The server and its aggregators run this much nicer than the injector, so
// on a shared host the load generator is never starved by the system it
// measures (real devices do not share the server's cores).
constexpr int kServerNice = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (untraced runs), in report order.
constexpr MetricDef kEndToEnd[] = {
    {"reports_per_s", "reports/s"}, {"lat_low_p50_ms", "ms"},
    {"cpu_ns_per_report", "ns"},    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

// Per-layer metrics, grouped by layer. The first three are end-to-end
// latencies demoted here because their run-to-run spread on a shared
// 4-core host exceeds any usable bound (README.md); they come from the
// untraced paced runs, the rest from the traced sat runs.
constexpr MetricDef kPerLayer[] = {
    {"lat_low_p99_ms", "ms"},
    {"lat_high_p50_ms", "ms"},
    {"lat_high_p99_ms", "ms"},
    {"inject.lag_p99_us", "us"},
    {"inject.busy_share", "ratio"},
    {"transport.deliver_ns_per_frame", "ns"},
    {"transport.take_wait_us_p50", "us"},
    {"transport.marker_to_take_us_p50", "us"},
    {"transport.frame_errors", "count"},
    {"transport.closed_round_drops", "count"},
    {"transport.duplicate_frames", "count"},
    {"transport.deadline_flushes", "count"},
    {"fo.arena_decode_ns_per_report", "ns"},
    {"service.shard_fold_ns_per_report", "ns"},
    {"service.merge_us_per_round", "us"},
    {"service.ingest_batch_us_p50", "us"},
    {"service.rejected_malformed", "count"},
    {"service.rejected_duplicate", "count"},
    {"service.inproc_reports_per_s", "reports/s"},
    {"core.advance_us_p50", "us"},
    {"core.advance_us_p99", "us"},
    {"core.self_us_p50", "us"},
    {"core.planned_share", "ratio"},
    {"core.rounds_per_ts", "rounds"},
    {"core.publish_share", "ratio"},
    {"core.unattributed_share", "ratio"},
    {"aggregator.round_us_p50", "us"},
    {"aggregator.partial_bytes", "bytes"},
    {"root.input_skew_us_p50", "us"},
    {"process.threads_peak", "count"},
    {"process.ctx_switches_per_ts", "count"},
    {"process.cpu_share", "ratio"},
    {"trace.overhead", "ratio"},
    {"run.fail_share", "ratio"},
};

Workload WorkloadFromFlags(const Flags& flags) {
  const Workload* w = FindWorkload(flags.GetString("workload", ""));
  if (w == nullptr) Die("unknown --workload");
  return *w;
}

std::string Arg(const char* name, const std::string& value) {
  return std::string("--") + name + "=" + value;
}

uint64_t ParseTagged(const std::string& line, const char* tag) {
  const std::string prefix = std::string(tag) + " ";
  if (line.rfind(prefix, 0) != 0) {
    Die(("unexpected child handshake: " + line).c_str());
  }
  return std::stoull(line.substr(prefix.size()));
}

template <typename Pred>
void WaitFor(Pred pred, const char* what) {
  const uint64_t give_up = NowNs() + 10000000000ull;
  while (!pred()) {
    if (NowNs() > give_up) Die(what);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.t1 - s.t0) / 1e3);
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Adds a transport.marker_wait span (end marker arrival -> TakeRound
// return) for every round this process drained.
void AddMarkerWaits(Tracer& tracer) {
  for (const Span& s : tracer.spans()) {
    if (s.name != "transport.take_round" || s.group >= tracer.max_rounds()) {
      continue;
    }
    const uint64_t marker = tracer.marker(s.group);
    if (marker != 0 && marker <= s.t1) {
      tracer.AddSpan("transport.marker_wait", marker, s.t1, s.group);
    }
  }
}

// Length of the union of `intervals` clipped to [lo, hi].
uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                   uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0, cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

// --- server role ---------------------------------------------------------

// Per-layer metrics of one traced server run, from the spans of every
// process of the run (server, injector, aggregators) plus the counters.
void LayerMetrics(const Workload& w, const GeneratedWorkload& g,
                  std::size_t timestamps, const Tracer& tracer,
                  const StageTotals& stages, const Report& leaves,
                  uint64_t wall_ns, Report* out) {
  Report& r = *out;
  const std::vector<Span> spans = tracer.spans();
  r["transport.deliver_ns_per_frame"] =
      (static_cast<double>(tracer.deliver_ns()) +
       leaves.at("leaf_deliver_ns")) /
      std::max(1.0, static_cast<double>(tracer.deliver_frames()) +
                        leaves.at("leaf_deliver_frames"));
  r["transport.take_wait_us_p50"] =
      Median(DurationsUs(spans, "transport.take_round"));
  r["transport.marker_to_take_us_p50"] =
      Median(DurationsUs(spans, "transport.marker_wait"));
  const double reports = std::max(
      1.0, static_cast<double>(stages.reports) + leaves.at("leaf_reports"));
  r["fo.arena_decode_ns_per_report"] =
      (static_cast<double>(stages.arena_decode_ns) +
       leaves.at("leaf_arena_ns")) /
      reports;
  r["service.shard_fold_ns_per_report"] =
      (static_cast<double>(stages.shard_fold_ns) + leaves.at("leaf_fold_ns")) /
      reports;
  r["service.merge_us_per_round"] = Mean(DurationsUs(spans, "service.merge"));
  r["service.ingest_batch_us_p50"] =
      Median(DurationsUs(spans, "service.ingest_batch"));
  r["aggregator.round_us_p50"] = Median(DurationsUs(
      spans, w.tree ? "aggregator.round" : "service.execute_round"));

  // Advance and its self time: the part of each Advance(t) window that no
  // ingest span of a round of timestamp t covers. On tree-hr the ingest
  // half runs in the aggregators, whose rounds include their own ingest.
  auto is_ingest = [&w](const std::string& name) {
    if (w.tree) return name == "aggregator.round";
    return name == "transport.take_round" || name == "service.ingest_batch" ||
           name == "service.merge";
  };
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> by_ts(timestamps);
  for (const Span& s : spans) {
    if (!is_ingest(s.name) || s.group >= g.rounds.size()) continue;
    const uint64_t t = g.rounds[s.group].timestamp;
    if (t < timestamps) by_ts[t].push_back({s.t0, s.t1});
  }
  std::vector<double> advance_us, self_us;
  uint64_t advance_ns = 0;
  for (const Span& s : spans) {
    if (s.name != "core.advance" || s.pid != 0 || s.group >= timestamps) {
      continue;
    }
    const uint64_t dur = s.t1 - s.t0;
    advance_ns += dur;
    advance_us.push_back(static_cast<double>(dur) / 1e3);
    self_us.push_back(
        static_cast<double>(dur - CoveredNs(by_ts[s.group], s.t0, s.t1)) /
        1e3);
  }
  r["core.advance_us_p50"] = Quantile(advance_us, 0.50);
  r["core.advance_us_p99"] = Quantile(advance_us, 0.99);
  r["core.self_us_p50"] = Median(self_us);
  r["core.unattributed_share"] =
      wall_ns > advance_ns ? static_cast<double>(wall_ns - advance_ns) /
                                 static_cast<double>(wall_ns)
                           : 0.0;

  // First -> last arrival of one round's inputs at this process's frame
  // handler: the K partials at the tree root, the report frames elsewhere.
  std::vector<double> skew_us;
  for (std::size_t round = 0; round < tracer.max_rounds(); ++round) {
    const uint64_t first = tracer.first_data(round);
    if (first == ~0ull) continue;
    skew_us.push_back(
        static_cast<double>(tracer.last_data(round) - first) / 1e3);
  }
  r["root.input_skew_us_p50"] = Median(skew_us);
}

int RunServer(const Flags& flags) {
  const uint64_t t_main = NowNs();
  const Workload w = WorkloadFromFlags(flags);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string dir = flags.GetString("dir", ".");
  const auto timestamps =
      static_cast<std::size_t>(flags.GetInt("timestamps", 0));
  const auto period_ns = static_cast<uint64_t>(flags.GetInt("period-ns", 0));
  const bool trace = flags.GetBool("trace", false);
  const std::string trace_out = flags.GetString("trace-out", "");
  const GeneratedWorkload g = LoadGenerated(dir);
  if (timestamps == 0 || timestamps >= g.release_hash.size()) {
    Die("server: --timestamps must be within the recording");
  }
  std::unique_ptr<Tracer> tracer =
      trace ? std::make_unique<Tracer>(0, g.rounds.size()) : nullptr;

  // Touched only by the announce callback, which runs on this thread.
  std::vector<uint64_t> announce_ns(g.rounds.size(), 0);
  uint64_t phase_t0 = 0;
  int inject_fd = -1;
  std::vector<int> leaf_fds;
  auto announce = [&](const service::RoundRequest& request) {
    const uint64_t now = NowNs();
    if (!MatchesRecord(g, w, request)) {
      std::fprintf(stderr,
                   "bench_serve: round %llu diverged from the recorded "
                   "workload\n",
                   static_cast<unsigned long long>(request.round_index));
      std::fflush(stderr);
      std::_Exit(3);
    }
    const RoundEntry& e = g.rounds[request.round_index];
    announce_ns[request.round_index] = now;
    const LeafDescriptor leaf{e.round_index, e.timestamp, e.epsilon_bits, 0};
    for (int fd : leaf_fds) WriteAll(fd, &leaf, sizeof(leaf));
    const uint64_t due =
        period_ns != 0 ? phase_t0 + e.timestamp * period_ns : 0;
    const InjectDescriptor d{e.round_index, std::max(now, due)};
    WriteAll(inject_fd, &d, sizeof(d));
    if (tracer) tracer->AddSpan("core.announce", now, NowNs(), e.round_index);
  };

  Child injector;
  std::vector<Child> leaves;
  uint64_t injector_prep_ns = 0;
  auto spawn_injector = [&](const std::vector<uint16_t>& ports) {
    std::string list;
    for (uint16_t p : ports) {
      if (!list.empty()) list += ',';
      list += std::to_string(p);
    }
    const uint64_t t_spawn = NowNs();
    injector = SpawnSelf({"--role=inject", Arg("workload", w.name),
                          Arg("dir", dir), Arg("ports", list),
                          Arg("trace", trace ? "1" : "0")},
                         /*feed_stdin=*/true);
    inject_fd = injector.in_fd;
    injector_prep_ns = ParseTagged(ReadLine(injector), "connect_ns") - t_spawn;
  };

  Report report;
  std::vector<double> lat_ms;  // release - due(t), paced phases only
  auto serve = [&](auto& session, std::size_t listener_conns) {
    WaitFor([&] { return session.connections() >= listener_conns; },
            "server: connections never arrived");
    for (Child& leaf : leaves) {
      if (ReadLine(leaf) != "ready") Die("server: aggregator not ready");
    }
    LowerPriority(kServerNice);
    report["setup_s"] =
        static_cast<double>(NowNs() - t_main - injector_prep_ns) / 1e9;

    std::vector<uint64_t> release_ns(timestamps);
    uint64_t published = 0;
    bool digest_ok = true;
    const ProcUsage u0 = SelfUsage();
    phase_t0 = NowNs();
    for (std::size_t t = 0; t < timestamps; ++t) {
      const StepResult step = session.Advance();
      release_ns[t] = NowNs();
      digest_ok = digest_ok && ReleaseHash(step.release) == g.release_hash[t];
      published += step.published ? 1 : 0;
    }
    const ProcUsage u1 = SelfUsage();
    const uint64_t threads = SelfThreads();
    session.Shutdown();

    std::vector<std::string> lines;
    report["inject_exit"] = FinishChild(injector, &lines);
    for (const auto& [key, value] : ParseReport(lines)) report[key] = value;
    if (tracer) tracer->AdoptSpans(lines, 1);
    Report leaf_sum;
    for (const char* key :
         {"leaf_cpu_ns", "leaf_maxrss_kb", "leaf_ctx_switches", "leaf_threads",
          "leaf_partial_bytes", "leaf_rounds", "leaf_frame_errors",
          "leaf_closed_round_drops", "leaf_duplicate_frames",
          "leaf_deadline_flushes", "leaf_malformed", "leaf_duplicate",
          "leaf_deliver_ns", "leaf_deliver_frames", "leaf_arena_ns",
          "leaf_fold_ns", "leaf_reports"}) {
      leaf_sum[key] = 0.0;
    }
    for (std::size_t k = 0; k < leaves.size(); ++k) {
      lines.clear();
      if (FinishChild(leaves[k], &lines) != 0) report["leaf_failed"] = 1;
      for (const auto& [key, value] : ParseReport(lines)) {
        leaf_sum[key] += value;
      }
      if (tracer) tracer->AdoptSpans(lines, static_cast<uint32_t>(2 + k));
    }
    const transport::FrameStats frames =
        session.StopListening(listener_conns);
    const transport::RoundBufferStats buffer = session.buffer_stats();
    const service::IngestStats& ingest = session.ingest_stats();

    const uint64_t wall_ns = release_ns.back() - announce_ns[0];
    const double accepted = static_cast<double>(ingest.accepted);
    const double cpu_ns =
        static_cast<double>(u1.cpu_ns - u0.cpu_ns) + leaf_sum["leaf_cpu_ns"];
    report["digest_ok"] = digest_ok ? 1 : 0;
    report["accepted"] = accepted;
    report["wall_s"] = static_cast<double>(wall_ns) / 1e9;
    report["reports_per_s"] = accepted / (static_cast<double>(wall_ns) / 1e9);
    report["cpu_ns_per_report"] = cpu_ns / std::max(1.0, accepted);
    report["peak_rss_mb"] =
        (static_cast<double>(u1.maxrss_kb) + leaf_sum["leaf_maxrss_kb"]) /
        1024.0;
    report["deadline_flushes"] = static_cast<double>(buffer.deadline_flushes) +
                                 leaf_sum["leaf_deadline_flushes"];
    if (period_ns != 0) {
      for (std::size_t t = 0; t < timestamps; ++t) {
        const uint64_t due = phase_t0 + t * period_ns;
        lat_ms.push_back(static_cast<double>(release_ns[t] - due) / 1e6);
      }
      report["lat_p50_ms"] = Quantile(lat_ms, 0.50);
      report["lat_p99_ms"] = Quantile(lat_ms, 0.99);
    }

    // The damage the run was sent (hostile-oue), for the coordinator.
    uint64_t broken_sent = 0, flipped_consumed = 0;
    for (const RoundEntry& e : g.rounds) {
      if (announce_ns[e.round_index] != 0) broken_sent += e.broken;
      if (e.timestamp < timestamps) flipped_consumed += e.flipped;
    }
    report["expected_frame_errors"] = static_cast<double>(broken_sent);
    report["expected_malformed"] = static_cast<double>(flipped_consumed);

    // Counters of every layer, cheap enough to keep in untraced runs.
    uint64_t rounds = 0, planned = 0, later_rounds = 0;
    for (const RoundEntry& e : g.rounds) {
      if (e.timestamp >= timestamps) continue;
      ++rounds;
      if (e.timestamp == 0) continue;
      ++later_rounds;
      if (announce_ns[e.round_index] < release_ns[e.timestamp - 1]) ++planned;
    }
    const double ts = static_cast<double>(timestamps);
    report["inject.lag_p99_us"] = report["inject_lag_p99_us"];
    report["inject.busy_share"] =
        report["inject_cpu_ns"] / std::max(1.0, report["inject_wall_ns"]);
    report["transport.frame_errors"] =
        static_cast<double>(frames.checksum_mismatch) +
        leaf_sum["leaf_frame_errors"];
    report["transport.closed_round_drops"] =
        static_cast<double>(buffer.closed_round_drops) +
        leaf_sum["leaf_closed_round_drops"];
    report["transport.duplicate_frames"] =
        static_cast<double>(buffer.duplicate_frames) +
        leaf_sum["leaf_duplicate_frames"];
    report["transport.deadline_flushes"] = report["deadline_flushes"];
    report["service.rejected_malformed"] =
        w.tree ? leaf_sum["leaf_malformed"]
               : static_cast<double>(ingest.malformed);
    report["service.rejected_duplicate"] =
        w.tree ? leaf_sum["leaf_duplicate"]
               : static_cast<double>(ingest.duplicate);
    report["core.planned_share"] =
        static_cast<double>(planned) / std::max<double>(1.0, later_rounds);
    report["core.rounds_per_ts"] = static_cast<double>(rounds) / ts;
    report["core.publish_share"] = static_cast<double>(published) / ts;
    report["aggregator.partial_bytes"] =
        leaf_sum["leaf_partial_bytes"] / std::max(1.0, leaf_sum["leaf_rounds"]);
    report["process.threads_peak"] =
        static_cast<double>(threads) + leaf_sum["leaf_threads"];
    report["process.ctx_switches_per_ts"] =
        (static_cast<double>(u1.ctx_switches - u0.ctx_switches) +
         leaf_sum["leaf_ctx_switches"]) /
        ts;
    report["process.cpu_share"] =
        cpu_ns / (static_cast<double>(wall_ns) *
                  static_cast<double>(HardwareThreads()));
    if (tracer) {
      AddMarkerWaits(*tracer);
      LayerMetrics(w, g, timestamps, *tracer, session.stages(), leaf_sum,
                   wall_ns, &report);
      if (!trace_out.empty()) {
        std::vector<std::string> names = {"server", "inject"};
        for (std::size_t k = 0; k < leaves.size(); ++k) {
          names.push_back("aggregator" + std::to_string(k));
        }
        std::vector<uint64_t> round_timestamp;
        for (const RoundEntry& e : g.rounds) {
          round_timestamp.push_back(e.timestamp);
        }
        if (!WriteChromeTrace(trace_out, tracer->spans(), names,
                              round_timestamp)) {
          Die("server: cannot write the trace");
        }
      }
    }
  };

  if (!w.tree) {
    LocalSession session(w, seed, announce, tracer.get(), /*listen=*/true);
    spawn_injector(std::vector<uint16_t>(w.conns, session.port()));
    serve(session, w.conns);
  } else {
    TreeRoot root(w, seed, announce, tracer.get(), /*listen=*/true);
    std::vector<uint16_t> ports;
    for (std::size_t k = 0; k < w.conns; ++k) {
      leaves.push_back(SpawnSelf(
          {"--role=aggregator", Arg("workload", w.name),
           Arg("node", std::to_string(k)),
           Arg("root-port", std::to_string(root.port())),
           Arg("rounds", std::to_string(g.rounds.size())),
           Arg("trace", trace ? "1" : "0")},
          /*feed_stdin=*/true));
      leaf_fds.push_back(leaves.back().in_fd);
      ports.push_back(static_cast<uint16_t>(
          ParseTagged(ReadLine(leaves.back()), "port")));
    }
    spawn_injector(ports);
    serve(root, w.conns);
  }
  EmitReport(report, stdout);
  for (double v : lat_ms) std::printf("lat_sample %.6f\n", v);
  return 0;
}

// --- aggregator role -------------------------------------------------------

int RunAggregator(const Flags& flags) {
  const Workload w = WorkloadFromFlags(flags);
  const auto node = static_cast<std::size_t>(flags.GetInt("node", 0));
  const auto root_port = static_cast<uint16_t>(flags.GetInt("root-port", 0));
  const auto rounds = static_cast<std::size_t>(flags.GetInt("rounds", 0));
  const bool trace = flags.GetBool("trace", false);
  std::unique_ptr<Tracer> tracer =
      trace ? std::make_unique<Tracer>(0, rounds) : nullptr;
  LowerPriority(kServerNice);
  TreeLeaf leaf(w, node, tracer.get(), /*listen=*/true);
  const auto upstream = ConnectUpstream(root_port);
  std::printf("port %u\n", static_cast<unsigned>(leaf.port()));
  std::fflush(stdout);
  WaitFor([&] { return leaf.connections() >= 1; },
          "aggregator: the injector never connected");
  std::printf("ready\n");
  std::fflush(stdout);

  const ProcUsage u0 = SelfUsage();
  LeafDescriptor d;
  while (ReadExact(STDIN_FILENO, &d, sizeof(d))) {
    leaf.RunRound(d.round_index, d.timestamp, d.epsilon_bits, *upstream);
  }
  const ProcUsage u1 = SelfUsage();
  const uint64_t threads = SelfThreads();
  upstream->Close();
  const transport::FrameStats frames = leaf.StopListening();
  const transport::RoundBufferStats buffer = leaf.buffer_stats();
  Report r;
  r["leaf_cpu_ns"] = static_cast<double>(u1.cpu_ns - u0.cpu_ns);
  r["leaf_maxrss_kb"] = static_cast<double>(u1.maxrss_kb);
  r["leaf_ctx_switches"] =
      static_cast<double>(u1.ctx_switches - u0.ctx_switches);
  r["leaf_threads"] = static_cast<double>(threads);
  r["leaf_partial_bytes"] = static_cast<double>(upstream->bytes_sent());
  r["leaf_rounds"] = static_cast<double>(leaf.rounds());
  r["leaf_frame_errors"] = static_cast<double>(frames.checksum_mismatch);
  r["leaf_closed_round_drops"] = static_cast<double>(buffer.closed_round_drops);
  r["leaf_duplicate_frames"] = static_cast<double>(buffer.duplicate_frames);
  r["leaf_deadline_flushes"] = static_cast<double>(buffer.deadline_flushes);
  r["leaf_malformed"] = static_cast<double>(leaf.ingest_stats().malformed);
  r["leaf_duplicate"] = static_cast<double>(leaf.ingest_stats().duplicate);
  if (tracer) {
    AddMarkerWaits(*tracer);
    r["leaf_deliver_ns"] = static_cast<double>(tracer->deliver_ns());
    r["leaf_deliver_frames"] = static_cast<double>(tracer->deliver_frames());
    r["leaf_arena_ns"] = static_cast<double>(leaf.stages().arena_decode_ns);
    r["leaf_fold_ns"] = static_cast<double>(leaf.stages().shard_fold_ns);
    r["leaf_reports"] = static_cast<double>(leaf.stages().reports);
  }
  EmitReport(r, stdout);
  if (tracer) tracer->EmitSpans(stdout);
  return 0;
}

// --- coordinator role --------------------------------------------------------

// One metric of one workload: the median and IQR of its per-run values, n
// runs. Latencies are pooled instead: the percentile over every sample of
// every rep (so that p99 has at least ten samples beyond it), the IQR of
// the per-rep percentiles, and n samples.
struct Summary {
  double median = 0.0;
  double iqr = 0.0;
  std::size_t n = 0;
};

struct WorkloadResult {
  Workload w;
  Report gen;
  std::map<std::string, std::vector<double>> values;  // per-run values
  std::vector<double> lat_low_ms, lat_high_ms;         // pooled samples
  std::map<std::string, Summary> summary;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int reps = 0;       // with --seconds, as many as fit
  int runs = 0;       // judged server runs, every phase of every rep
  int discarded = 0;  // invalid server runs, run again
  std::vector<std::string> errors;
  double period_low_us = 0.0;
  double period_high_us = 0.0;

  void Summarize() {
    for (const auto& [name, v] : values) {
      summary[name] = {Median(v), Iqr(v), v.size()};
    }
    auto pooled = [&](const char* name, const std::vector<double>& samples,
                      double q) {
      if (samples.empty()) return;
      summary[name] = {Quantile(samples, q), Iqr(values[name]),
                       samples.size()};
    };
    pooled("lat_low_p50_ms", lat_low_ms, 0.50);
    pooled("lat_low_p99_ms", lat_low_ms, 0.99);
    pooled("lat_high_p50_ms", lat_high_ms, 0.50);
    pooled("lat_high_p99_ms", lat_high_ms, 0.99);
  }
};

struct PhaseResult {
  bool ok = false;
  Report report;
  std::vector<double> lat_ms;
};

class Coordinator {
 public:
  explicit Coordinator(const Flags& flags)
      : seed(static_cast<uint64_t>(flags.GetInt("seed", 1))),
        reps(static_cast<int>(std::max<int64_t>(1, flags.GetInt("reps", 3)))),
        seconds(flags.GetDouble("seconds", 0.0)),
        trace(flags.GetBool("trace", false)),
        out(flags.GetString("out", "bench_serve_out")) {}

  // gen, then reps of server phases. Every rep runs an untraced sat, low
  // and high phase (the end-to-end metrics and the paced latencies); with
  // --trace it adds a traced sat (the per-layer metrics, and
  // trace.overhead against the rep's untraced sat). With --seconds, reps
  // run while the next one still fits in the budget, which gen counts
  // against too.
  WorkloadResult Run(const Workload& w) {
    const uint64_t start = NowNs();
    WorkloadResult res;
    res.w = w;
    const std::string dir = out + "/" + w.name;
    std::filesystem::create_directories(dir);
    std::filesystem::remove(TracePath(w));
    std::vector<std::string> lines;
    Child gen = SpawnSelf({"--role=gen", Arg("workload", w.name),
                           Arg("seed", std::to_string(seed)), Arg("dir", dir)},
                          /*feed_stdin=*/false);
    if (FinishChild(gen, &lines) != 0) {
      std::filesystem::remove_all(dir);
      res.errors.push_back("gen or its pre-flight check failed");
      return res;
    }
    res.gen = ParseReport(lines);
    res.values["service.inproc_reports_per_s"].push_back(
        res.gen["inproc_reports_per_s"]);
    const GeneratedWorkload g = LoadGenerated(dir);

    const uint64_t low_ns = w.period_low_us * 1000;
    const uint64_t high_ns = w.period_high_us * 1000;
    uint64_t longest_rep = 0;
    for (int rep = 0;; ++rep) {
      if (seconds > 0.0) {
        const uint64_t next_end = NowNs() - start + longest_rep;
        if (rep > 0 && static_cast<double>(next_end) > seconds * 1e9) break;
      } else if (rep == reps) {
        break;
      }
      const uint64_t rep_start = NowNs();
      const PhaseResult sat =
          Phase(w, g, dir, "sat", w.timestamps, 0, false, &res);
      Record(sat, {{"reports_per_s", "reports_per_s"},
                   {"cpu_ns_per_report", "cpu_ns_per_report"},
                   {"peak_rss_mb", "peak_rss_mb"},
                   {"setup_s", "setup_s"}},
             &res);
      const PhaseResult low =
          Phase(w, g, dir, "low", w.paced_timestamps, low_ns, false, &res);
      Record(low, {{"lat_low_p50_ms", "lat_p50_ms"},
                   {"lat_low_p99_ms", "lat_p99_ms"},
                   {"inject.lag_p99_us", "inject.lag_p99_us"},
                   {"setup_s", "setup_s"}},
             &res);
      res.lat_low_ms.insert(res.lat_low_ms.end(), low.lat_ms.begin(),
                            low.lat_ms.end());
      const PhaseResult high =
          Phase(w, g, dir, "high", w.paced_timestamps, high_ns, false, &res);
      Record(high, {{"lat_high_p50_ms", "lat_p50_ms"},
                    {"lat_high_p99_ms", "lat_p99_ms"},
                    {"setup_s", "setup_s"}},
             &res);
      res.lat_high_ms.insert(res.lat_high_ms.end(), high.lat_ms.begin(),
                             high.lat_ms.end());
      if (trace) {
        const PhaseResult tsat =
            Phase(w, g, dir, "sat", w.timestamps, 0, true, &res);
        for (const MetricDef& m : kPerLayer) {
          const std::string name = m.name;
          // Latency and injector lag are paced-phase metrics (above).
          if (name.rfind("lat_", 0) != 0 && name != "inject.lag_p99_us") {
            Record(tsat, {{m.name, m.name}}, &res);
          }
        }
        if (sat.ok && tsat.ok) {
          res.values["trace.overhead"].push_back(
              sat.report.at("reports_per_s") / tsat.report.at("reports_per_s"));
        }
      }
      longest_rep = std::max(longest_rep, NowNs() - rep_start);
      ++res.reps;
    }
    res.values["run.fail_share"].push_back(
        res.attempted == 0 ? 1.0
                           : static_cast<double>(res.failed) /
                                 static_cast<double>(res.attempted));
    res.period_low_us = static_cast<double>(low_ns) / 1e3;
    res.period_high_us = static_cast<double>(high_ns) / 1e3;
    std::filesystem::remove_all(dir);
    res.Summarize();
    auto require = [&res](const MetricDef* defs, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        if (res.summary.count(defs[i].name) == 0) {
          res.errors.push_back(std::string("no valid run measured ") +
                               defs[i].name);
        }
      }
    };
    require(kEndToEnd, std::size(kEndToEnd));
    if (trace) require(kPerLayer, std::size(kPerLayer));
    return res;
  }

  std::string TracePath(const Workload& w) const {
    return out + "/" + w.name + ".trace.json";
  }

  const uint64_t seed;
  const int reps;
  const double seconds;
  const bool trace;
  const std::string out;

 private:
  // Runs one server phase and judges it. A failed run contributes its whole
  // expected acceptance to `failed`. An invalid run measured the injector,
  // not the server (on a shared host, a stalled vCPU makes it late): it is
  // discarded and run again, and after kInvalidAttempts the phase gives no
  // sample. The first traced sat run of a workload writes its Chrome trace.
  PhaseResult Phase(const Workload& w, const GeneratedWorkload& g,
                    const std::string& dir, const char* phase,
                    std::size_t timestamps, uint64_t period_ns, bool traced,
                    WorkloadResult* res) {
    for (int attempt = 0; attempt < kInvalidAttempts; ++attempt) {
      PhaseResult result;
      bool invalid = false;
      const std::string error = RunPhase(w, g, dir, timestamps, period_ns,
                                         traced, &result, &invalid);
      if (invalid) {
        ++res->discarded;
        std::fprintf(stderr, "bench_serve: %s %s: %s (discarded)\n", w.name,
                     phase, error.c_str());
        continue;
      }
      const uint64_t expected = g.ExpectedAccepted(timestamps);
      ++res->runs;
      res->attempted += expected;
      if (error.empty()) return result;
      res->failed += expected;
      res->errors.push_back(std::string(phase) + (traced ? " (traced)" : "") +
                            ": " + error);
      std::fprintf(stderr, "bench_serve: %s %s: %s\n", w.name, phase,
                   error.c_str());
      return {};
    }
    return {};
  }

  // One server process; returns why the run failed, or "" when it passed.
  std::string RunPhase(const Workload& w, const GeneratedWorkload& g,
                       const std::string& dir, std::size_t timestamps,
                       uint64_t period_ns, bool traced, PhaseResult* result,
                       bool* invalid) {
    std::vector<std::string> args = {
        "--role=server",
        Arg("workload", w.name),
        Arg("seed", std::to_string(seed)),
        Arg("dir", dir),
        Arg("timestamps", std::to_string(timestamps)),
        Arg("period-ns", std::to_string(period_ns)),
        Arg("trace", traced ? "1" : "0")};
    if (traced && !std::filesystem::exists(TracePath(w))) {
      args.push_back(Arg("trace-out", TracePath(w)));
    }
    Child server = SpawnSelf(args, /*feed_stdin=*/false);
    std::vector<std::string> lines;
    const int status = FinishChild(server, &lines);
    // Orphans of a crashed server were re-parented here (subreaper).
    while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
    }
    result->report = ParseReport(lines);
    for (const std::string& line : lines) {
      if (line.rfind("lat_sample ", 0) == 0) {
        result->lat_ms.push_back(std::stod(line.substr(11)));
      }
    }
    Report& r = result->report;
    const uint64_t expected = g.ExpectedAccepted(timestamps);
    if (status == 3) return "round divergence";
    if (status != 0) {
      return "server exited with status " + std::to_string(status);
    }
    if (r["digest_ok"] != 1.0) return "release digest mismatch";
    if (r["deadline_flushes"] != 0.0) return "round deadline flush";
    if (r["accepted"] != static_cast<double>(expected)) {
      return "accepted " +
             std::to_string(static_cast<uint64_t>(r["accepted"])) + " of " +
             std::to_string(expected) + " reports";
    }
    if (r["inject_exit"] != 0.0 || r.count("leaf_failed") != 0) {
      return "a child process failed";
    }
    if (r["transport.frame_errors"] != r["expected_frame_errors"] ||
        r["service.rejected_malformed"] < r["expected_malformed"]) {
      return "the server missed generated damage";
    }
    *invalid = true;
    if (period_ns == 0 && r["inject.busy_share"] > kMaxInjectBusyShare) {
      return "invalid: injector busy " + std::to_string(r["inject.busy_share"]);
    }
    const double max_lag_us =
        std::max(kMaxInjectLagP99Us,
                 kMaxInjectLagShareOfLatP99 * r["lat_p99_ms"] * 1e3);
    if (period_ns != 0 && r["inject_lag_p99_us"] > max_lag_us) {
      return "invalid: injector lag p99 " +
             std::to_string(r["inject_lag_p99_us"]) + " us";
    }
    *invalid = false;
    result->ok = true;
    return "";
  }

  static void Record(
      const PhaseResult& phase,
      std::initializer_list<std::pair<const char*, const char*>> mapping,
      WorkloadResult* res) {
    if (!phase.ok) return;
    for (const auto& [metric, key] : mapping) {
      const auto it = phase.report.find(key);
      if (it != phase.report.end()) res->values[metric].push_back(it->second);
    }
  }
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteMetricGroup(FILE* f, const char* key, const WorkloadResult& r,
                      const MetricDef* defs, std::size_t n) {
  std::fprintf(f, "      %s: {", JsonString(key).c_str());
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = r.summary.find(defs[i].name);
    if (it == r.summary.end()) continue;
    std::fprintf(f,
                 "%s\n        %s: {\"unit\": %s, \"median\": %s, \"iqr\": %s, "
                 "\"n\": %zu}",
                 first ? "" : ",", JsonString(defs[i].name).c_str(),
                 JsonString(defs[i].unit).c_str(),
                 JsonNumber(it->second.median).c_str(),
                 JsonNumber(it->second.iqr).c_str(), it->second.n);
    first = false;
  }
  std::fprintf(f, "\n      }");
}

bool WriteJson(const std::string& path, const Coordinator& d,
               const std::vector<WorkloadResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"bench_serve\",\n  \"host\": {");
  std::fprintf(f,
               "\"nproc\": %zu, \"cpu_model\": %s, \"simd_backend\": %s, "
               "\"avx512\": %s, \"build_version\": %s, \"build_type\": %s, "
               "\"seed\": %llu, \"reps\": %d, \"seconds\": %s},\n",
               HardwareThreads(), JsonString(CpuModel()).c_str(),
               JsonString(obs::SimdBackendName()).c_str(),
               simd::Avx512Available() ? "true" : "false",
               JsonString(obs::BuildVersion()).c_str(),
               JsonString(BENCH_SERVE_BUILD_TYPE).c_str(),
               static_cast<unsigned long long>(d.seed), d.reps,
               JsonNumber(d.seconds).c_str());
  std::fprintf(f, "  \"workloads\": {");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    const Workload& w = r.w;
    std::fprintf(f, "%s\n    %s: {\n", i == 0 ? "" : ",",
                 JsonString(w.name).c_str());
    std::fprintf(f,
                 "      \"params\": {\"mechanism\": %s, \"fo\": %s, "
                 "\"domain\": %zu, \"users\": %llu, \"window\": %zu, "
                 "\"conns\": %zu, \"T\": %zu, \"T_paced\": %zu, "
                 "\"period_low_us\": %s, \"period_high_us\": %s},\n",
                 JsonString(w.mechanism).c_str(), JsonString(w.fo).c_str(),
                 w.domain, static_cast<unsigned long long>(w.users), w.window,
                 w.conns, w.timestamps, w.paced_timestamps,
                 JsonNumber(r.period_low_us).c_str(),
                 JsonNumber(r.period_high_us).c_str());
    std::fprintf(f, "      \"gen\": {");
    bool first = true;
    for (const auto& [key, value] : r.gen) {
      std::fprintf(f, "%s%s: %s", first ? "" : ", ", JsonString(key).c_str(),
                   JsonNumber(value).c_str());
      first = false;
    }
    std::fprintf(f, "},\n");
    std::fprintf(f,
                 "      \"correct\": %s, \"attempted\": %llu, "
                 "\"failed\": %llu, \"reps\": %d, \"runs\": %d, "
                 "\"discarded\": %d,\n      \"errors\": [",
                 r.errors.empty() ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed), r.reps, r.runs,
                 r.discarded);
    for (std::size_t e = 0; e < r.errors.size(); ++e) {
      std::fprintf(f, "%s%s", e == 0 ? "" : ", ",
                   JsonString(r.errors[e]).c_str());
    }
    std::fprintf(f, "],\n");
    WriteMetricGroup(f, "end_to_end", r, kEndToEnd, std::size(kEndToEnd));
    std::fprintf(f, ",\n");
    WriteMetricGroup(f, "per_layer", r, kPerLayer, std::size(kPerLayer));
    std::fprintf(f, "\n    }");
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

void PrintTable(const WorkloadResult& r) {
  const Workload& w = r.w;
  std::printf(
      "\n-- %s: %s/%s d=%zu N=%llu w=%zu, %zu conns; T=%zu T_paced=%zu "
      "P_low=%.0fus P_high=%.0fus\n",
      w.name, w.mechanism, w.fo, w.domain,
      static_cast<unsigned long long>(w.users), w.window, w.conns, w.timestamps,
      w.paced_timestamps, r.period_low_us, r.period_high_us);
  if (!r.gen.empty()) {
    const Report& g = r.gen;
    std::printf(
        "   gen %.2fs + pre-flight %.2fs: %.0f reports/ts, %.0f bytes/ts, "
        "logs %.0f MB, in-process %.0f reports/s\n",
        g.at("gen_s"), g.at("preflight_s"), g.at("reports_per_ts"),
        g.at("bytes_per_ts"), g.at("log_bytes") / 1e6,
        g.at("inproc_reports_per_s"));
  }
  std::printf("   %-34s %-10s %14s %12s %5s\n", "metric", "unit", "median",
              "iqr", "n");
  auto print = [&](const MetricDef* defs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = r.summary.find(defs[i].name);
      if (it == r.summary.end()) continue;
      std::printf("   %-34s %-10s %14.6g %12.4g %5zu\n", defs[i].name,
                  defs[i].unit, it->second.median, it->second.iqr,
                  it->second.n);
    }
  };
  print(kEndToEnd, std::size(kEndToEnd));
  print(kPerLayer, std::size(kPerLayer));
  std::printf(
      "   attempted %llu reports over %d reps (%d runs, %d discarded as "
      "invalid), failed %llu%s\n",
      static_cast<unsigned long long>(r.attempted), r.reps, r.runs,
      r.discarded, static_cast<unsigned long long>(r.failed),
      r.errors.empty() ? "" : "  << FAILED");
  for (const std::string& e : r.errors) {
    std::printf("   error: %s\n", e.c_str());
  }
}

int RunCoordinator(const Flags& flags) {
  // Orphans of a crashed server re-parent here, so none outlives the run.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1UL, 0, 0, 0);
  std::vector<Workload> workloads;
  const std::string only = flags.GetString("workload", "");
  for (const Workload& w : AllWorkloads()) {
    if (only.empty() || only == w.name) workloads.push_back(w);
  }
  if (workloads.empty()) Die("unknown --workload");
  Coordinator coordinator(flags);
  std::printf("=== bench_serve: server-only serving benchmark ===\n");
  std::printf(
      "host: nproc=%zu cpu=\"%s\" simd=%s avx512=%d version=%s build=%s "
      "seed=%llu reps=%d seconds=%g\n",
      HardwareThreads(), CpuModel().c_str(), obs::SimdBackendName(),
      simd::Avx512Available() ? 1 : 0, obs::BuildVersion(),
      BENCH_SERVE_BUILD_TYPE, static_cast<unsigned long long>(coordinator.seed),
      coordinator.reps, coordinator.seconds);
  std::vector<WorkloadResult> results;
  bool ok = true;
  for (const Workload& w : workloads) {
    results.push_back(coordinator.Run(w));
    PrintTable(results.back());
    ok = ok && results.back().errors.empty();
  }
  const std::string json = flags.GetString("json", "");
  if (!json.empty() && !WriteJson(json, coordinator, results)) {
    Die("cannot write --json");
  }
  return ok ? 0 : 1;
}

void PrintHelp() {
  std::printf(
      "bench_serve - server-only serving benchmark "
      "(see bench/serve/README.md)\n\n"
      "  --workload NAME  bd-grr | pd-olh | hostile-oue | tree-hr "
      "(default: all)\n"
      "  --seed N         workload and mechanism seed (default 1)\n"
      "  --reps R         untraced reps of sat/low/high per workload "
      "(default 3)\n"
      "  --seconds S      instead of --reps: run reps for about S seconds\n"
      "  --trace          add traced reps: per-layer metrics and\n"
      "                   <out>/<workload>.trace.json (Perfetto)\n"
      "  --out DIR        work and trace directory (default bench_serve_out)\n"
      "  --json PATH      write the result record\n");
}

}  // namespace
}  // namespace ldpids::bench_serve

int main(int argc, char** argv) {
  using namespace ldpids::bench_serve;
  try {
    const ldpids::Flags flags(argc, argv);
    const std::string role = flags.GetString("role", "coordinator");
    if (flags.GetBool("help", false)) {
      PrintHelp();
      return 0;
    }
    if (role == "gen") {
      const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
      EmitReport(GenerateAndCheck(WorkloadFromFlags(flags), seed,
                                  flags.GetString("dir", ".")),
                 stdout);
      return 0;
    }
    if (role == "server") return RunServer(flags);
    if (role == "aggregator") return RunAggregator(flags);
    if (role == "inject") {
      std::vector<uint16_t> ports;
      std::string list = flags.GetString("ports", "");
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        ports.push_back(static_cast<uint16_t>(
            std::stoul(list.substr(pos, comma - pos))));
        pos = comma + 1;
      }
      return RunInjector(WorkloadFromFlags(flags), flags.GetString("dir", "."),
                         ports, flags.GetBool("trace", false));
    }
    if (role == "coordinator") return RunCoordinator(flags);
    Die("unknown --role");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 1;
  }
}
