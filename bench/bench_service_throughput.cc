// Serving-layer throughput: wire-report ingestion rate (reports/sec) as a
// function of shard and thread counts. One pre-produced round of wire
// packets per oracle is pushed through ReportRouter::IngestBatch at
// several (shards x threads) configurations; reports/sec covers decode,
// validation, sketch folding and the final shard merge.
//
// Flags: --scale (population multiplier), --reps (timing repetitions; best
// rep is reported), --threads, --fo, --csv, --help. The "[throughput]"
// line records the peak ingestion configuration for BENCH_*.json.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fo/frequency_oracle.h"
#include "fo/wire.h"
#include "service/client_fleet.h"
#include "service/ingest.h"
#include "service/session.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

using namespace ldpids;
using namespace ldpids::bench;
using service::ClientFleet;
using service::IngestStats;
using service::ReportRouter;
using service::RoundRequest;

// --domain flag (default 64, the historical shape); d=1024 is the columnar
// ingest acceptance configuration recorded in BENCH_ingest_columnar.json.
std::size_t g_domain = 64;
constexpr double kEpsilon = 1.0;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>(HashCounter(13, user, t) % g_domain);
}

struct IngestCell {
  std::string oracle;
  std::size_t shards = 0;
  std::size_t threads = 0;
  uint64_t reports = 0;
  double reports_per_s = 0.0;
};

// One pre-produced round pushed through the router `reps` times; the best
// rep is recorded (timing noise only shrinks the number).
IngestCell BenchIngest(OracleId oracle, std::size_t num_reports,
                       std::size_t shards, std::size_t threads, int reps) {
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
  const FoParams params{kEpsilon, g_domain};

  const ClientFleet fleet(num_reports, TruthValue, 97);
  RoundRequest request;
  request.timestamp = 0;
  request.epsilon = kEpsilon;
  request.domain = g_domain;
  request.oracle = oracle;
  const auto packets = fleet.ProduceRound(request, threads);

  IngestCell cell;
  cell.oracle = OracleIdName(oracle);
  cell.shards = shards;
  cell.threads = threads;
  cell.reports = num_reports;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    ReportRouter router(fo, params, oracle, 0, shards);
    const auto start = std::chrono::steady_clock::now();
    router.IngestBatch(packets, threads);
    IngestStats stats;
    auto sketch = router.Close(&stats);
    const double wall = Seconds(start);
    if (stats.accepted != num_reports || stats.total() != num_reports) {
      std::fprintf(stderr, "ingest dropped packets: %s\n",
                   stats.ToString().c_str());
      std::exit(1);
    }
    const double rate =
        wall > 0.0 ? static_cast<double>(num_reports) / wall : 0.0;
    cell.reports_per_s = std::max(cell.reports_per_s, rate);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (HandleHelp(flags,
                 "bench_service_throughput — online serving layer: sharded "
                 "wire ingestion rates")) {
    return 0;
  }
  const double scale = BenchScale(flags);
  const std::size_t threads = BenchThreads(flags);
  const int reps = RepsFlag(flags, 3);
  const std::string csv_path = flags.GetString("csv", "");
  g_domain = static_cast<std::size_t>(
      std::max<int64_t>(2, flags.GetInt("domain", 64)));

  PrintHeader("Service throughput (reports/sec)", scale);

  const std::size_t num_reports = ScaledUsers(scale, 400000);
  std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  std::vector<IngestCell> cells;
  std::printf("oracle   shards  threads     reports    reports/sec\n");
  for (OracleId oracle :
       {OracleId::kGrr, OracleId::kOue, OracleId::kOlh, OracleId::kHr}) {
    for (std::size_t shards : shard_counts) {
      const IngestCell cell =
          BenchIngest(oracle, num_reports, shards, threads, reps);
      std::printf("%-8s %6zu  %7zu  %10llu  %13.0f\n", cell.oracle.c_str(),
                  cell.shards, cell.threads,
                  static_cast<unsigned long long>(cell.reports),
                  cell.reports_per_s);
      cells.push_back(cell);
    }
  }

  // The measured shards -> reports/sec curve above is what sanity-checks
  // the adaptive default (num_shards = 0 resolves to the hardware thread
  // count inside ReportRouter): the curve's knee sits at the core count.
  {
    const FrequencyOracle& fo = GetFrequencyOracle("GRR");
    ReportRouter adaptive(fo, {kEpsilon, g_domain}, OracleId::kGrr, 0, 0);
    std::printf(
        "\nadaptive default: num_shards=0 -> %zu shards "
        "(hardware threads: %zu)\n",
        adaptive.num_shards(), HardwareThreads());
  }

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path,
                  {"oracle", "shards", "threads", "reports", "reports_per_s"});
    for (const IngestCell& cell : cells) {
      csv.WriteRow(cell.oracle,
                   {static_cast<double>(cell.shards),
                    static_cast<double>(cell.threads),
                    static_cast<double>(cell.reports), cell.reports_per_s});
    }
  }

  // Peak ingestion configuration, folded into BENCH_*.json by
  // scripts/run_benches.sh.
  const auto best = std::max_element(
      cells.begin(), cells.end(), [](const IngestCell& a, const IngestCell& b) {
        return a.reports_per_s < b.reports_per_s;
      });
  std::printf(
      "\n[throughput] threads=%zu shards=%zu domain=%zu oracle=%s reports=%llu "
      "reports_per_s=%.0f\n",
      threads, best->shards, g_domain, best->oracle.c_str(),
      static_cast<unsigned long long>(best->reports), best->reports_per_s);
  return 0;
}
