// Distributed aggregation tier throughput: reports/s of a merge-tree
// deployment versus the single-process baseline.
//
// The sweep runs one in-process merge tree per aggregator count K in
// {1, 2, 4}: K AggregatorNodes each ingest their UserAssignment range
// slice of the fleet (in parallel, one thread per child — the in-process
// stand-in for K separate processes), encode partial sketches, and a
// RootSession drains and folds them through a RoundBuffer. The baseline
// is the same mechanism over PR 3's in-process transport. Every tree
// run's releases are diffed against the baseline's — the bench aborts on
// any divergence, so the recorded numbers are always from exact runs.
//
// The "[throughput]" line records reports_per_s_single, per-K
// reports_per_s_k{K}, and root_merge_ratio = k1 / single — the
// single-aggregator tree against the monolith, i.e. the pure overhead of
// the sketch-wire hop + root merge, gated >= 0.95 by
// scripts/check_bench_regression.py on BENCH_distributed.json.
//
// Flags: --scale, --reps (best rep reported), --threads (per-child ingest
// threads), --aggregators (highest K of the sweep), --csv, --help.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/factory.h"
#include "core/mechanism.h"
#include "fo/wire.h"
#include "service/aggregator.h"
#include "service/client_fleet.h"
#include "service/session.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace {

using namespace ldpids;
using namespace ldpids::bench;
using service::AggregatorNode;
using service::AggregatorOptions;
using service::AssignMode;
using service::ClientFleet;
using service::MechanismSession;
using service::RootSession;
using service::RoundRequest;
using service::SessionOptions;
using service::UserAssignment;
using transport::MakePartialSketchFrame;
using transport::RoundBuffer;

constexpr std::size_t kDomain = 64;
constexpr double kEpsilon = 1.0;
constexpr uint64_t kSessionId = 1;
constexpr char kFo[] = "OUE";

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>(HashCounter(13, user, t) % kDomain);
}

MechanismConfig BenchConfig() {
  MechanismConfig config;
  config.epsilon = kEpsilon;
  config.window = 8;
  config.fo = kFo;
  config.seed = 17;
  return config;
}

struct RunCell {
  uint64_t reports = 0;
  double reports_per_s = 0.0;
  double wall_s = 0.0;
  std::vector<Histogram> releases;
};

// The monolith: one session, whole fleet, in-process transport.
RunCell BenchSingleProcess(uint64_t users, std::size_t timestamps,
                           std::size_t threads, int reps) {
  RunCell best;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    const ClientFleet fleet(users, TruthValue, 42);
    SessionOptions options;
    options.num_shards = 0;  // adaptive
    options.num_threads = threads;
    MechanismSession session(CreateMechanism("LBA", BenchConfig(), users),
                             kDomain, options, fleet.Transport(threads));
    RunCell cell;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < timestamps; ++t) {
      cell.releases.push_back(session.Advance().release);
    }
    cell.wall_s = Seconds(start);
    cell.reports = session.stats().accepted;
    if (cell.wall_s > 0.0) {
      cell.reports_per_s = static_cast<double>(cell.reports) / cell.wall_s;
    }
    if (cell.reports_per_s > best.reports_per_s) best = std::move(cell);
  }
  return best;
}

// One merge tree: K children (a thread each, simulating K processes)
// ingest their range slice and deliver partials into the root's buffer.
RunCell BenchMergeTree(uint64_t users, std::size_t timestamps,
                       std::size_t threads, std::size_t num_children,
                       int reps) {
  RunCell best;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    const ClientFleet fleet(users, TruthValue, 42);
    const UserAssignment assign(num_children, users, AssignMode::kRange);
    const auto slices = assign.PartitionAll();
    std::vector<std::unique_ptr<AggregatorNode>> children;
    for (std::size_t k = 0; k < num_children; ++k) {
      AggregatorOptions options;
      options.num_shards = 0;  // adaptive, like the baseline
      options.node_id = 1 + k;
      children.push_back(std::make_unique<AggregatorNode>(
          GetFrequencyOracle(kFo), OracleIdFromName(kFo), kDomain, options));
    }

    RoundBuffer buffer;
    auto announce = [&](const RoundRequest& request) {
      std::vector<std::thread> workers;
      workers.reserve(num_children);
      for (std::size_t k = 0; k < num_children; ++k) {
        workers.emplace_back([&, k] {
          RoundRequest child_request = request;
          child_request.cohort = &slices[k];
          auto payload = children[k]->RunRoundToPartial(
              child_request,
              [&](const RoundRequest& req, service::ReportRouter& router) {
                router.IngestBatch(fleet.ProduceRound(req, threads),
                                   threads);
              });
          buffer.Deliver(MakePartialSketchFrame(
              kSessionId, request.round_index, std::move(payload)));
        });
      }
      for (auto& worker : workers) worker.join();
    };

    RunCell cell;
    const auto start = std::chrono::steady_clock::now();
    {
      RootSession root(CreateMechanism("LBA", BenchConfig(), users), kDomain,
                       SessionOptions{}, num_children, kSessionId, buffer,
                       announce);
      for (std::size_t t = 0; t < timestamps; ++t) {
        cell.releases.push_back(root.Advance().release);
      }
      cell.wall_s = Seconds(start);
      // accepted at the root == users folded across merged partials.
      cell.reports = root.session().stats().accepted;
      const SketchMergeStats& merges = root.merge_stats();
      if (merges.missing != 0 || merges.drops() != 0) {
        std::fprintf(stderr, "merge tree dropped partials: %s\n",
                     merges.ToString().c_str());
        std::exit(1);
      }
    }
    if (cell.wall_s > 0.0) {
      cell.reports_per_s = static_cast<double>(cell.reports) / cell.wall_s;
    }
    if (cell.reports_per_s > best.reports_per_s) best = std::move(cell);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (HandleHelp(flags,
                 "bench_distributed — merge-tree aggregation tier: "
                 "reports/s at K aggregators vs the single-process "
                 "baseline (releases diffed for exactness)")) {
    return 0;
  }
  const double scale = BenchScale(flags);
  const std::size_t threads = BenchThreads(flags);
  const int reps = RepsFlag(flags, 3);
  const std::string csv_path = flags.GetString("csv", "");
  const int64_t aggregators_flag = flags.GetInt("aggregators", 4);
  if (aggregators_flag < 1) {
    std::fprintf(stderr, "error: --aggregators must be >= 1, got %lld\n",
                 static_cast<long long>(aggregators_flag));
    return 2;
  }
  const auto max_children = static_cast<std::size_t>(aggregators_flag);

  PrintHeader("Distributed aggregation throughput", scale);

  const uint64_t users = std::max<uint64_t>(400, ScaledUsers(scale, 60000));
  const std::size_t timestamps =
      std::max<std::size_t>(8, ScaledLength(scale, 48));

  const RunCell single =
      BenchSingleProcess(users, timestamps, threads, reps);
  std::printf(
      "single process: LBA x %zu timestamps, %llu users/round\n"
      "  ingested: %llu reports (%12.0f reports/s)\n\n",
      timestamps, static_cast<unsigned long long>(users),
      static_cast<unsigned long long>(single.reports),
      single.reports_per_s);

  std::vector<std::size_t> sweep;
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    if (k <= max_children) sweep.push_back(k);
  }
  std::vector<RunCell> cells;
  std::printf("merge tree (partial sketches through a RoundBuffer):\n");
  for (const std::size_t k : sweep) {
    cells.push_back(BenchMergeTree(users, timestamps, threads, k, reps));
    const RunCell& cell = cells.back();
    if (cell.releases != single.releases) {
      std::fprintf(stderr,
                   "merge tree releases diverged from single process "
                   "at K=%zu — refusing to record\n",
                   k);
      return 1;
    }
    std::printf("  K=%zu aggregators: %12.0f reports/s  (exact)\n", k,
                cell.reports_per_s);
  }

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path, {"section", "items", "items_per_s"});
    csv.WriteRow("single_process",
                 {static_cast<double>(single.reports),
                  single.reports_per_s});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      csv.WriteRow("merge_tree_k" + std::to_string(sweep[i]),
                   {static_cast<double>(cells[i].reports),
                    cells[i].reports_per_s});
    }
  }

  std::string per_k;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    char key[64];
    std::snprintf(key, sizeof(key), " reports_per_s_k%zu=%.0f", sweep[i],
                  cells[i].reports_per_s);
    per_k += key;
  }
  const double ratio = single.reports_per_s > 0.0
                           ? cells.front().reports_per_s /
                                 single.reports_per_s
                           : 0.0;
  std::printf(
      "\n[throughput] threads=%zu aggregators=%zu users=%llu "
      "reports_per_s_single=%.0f%s root_merge_ratio=%.3f wall_s=%.3f\n",
      threads, max_children, static_cast<unsigned long long>(users),
      single.reports_per_s, per_k.c_str(), ratio,
      single.wall_s + cells.front().wall_s);
  return 0;
}
