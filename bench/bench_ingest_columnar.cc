// Columnar ingest acceptance bench: per-report ingestion (the serial
// decode-validate-fold loop) against the columnar batch path (ReportArena
// staging + vectorized FoSketch::AddReports) on identical packet rounds.
//
// The columnar path runs through ReportRouter with a single shard; the
// per-report baseline is a local loop (IngestPerReport) that does the
// same work one packet at a time: wire decode, round validation, nonce
// dedup and sketch folding, then the estimate. The only difference is
// per-packet vs columnar execution. For each oracle and domain size
// d in {64, 1024, 4096} the table reports reports/sec for both paths and
// the columnar speedup; the "[throughput]" line records the d=1024 row per
// oracle (the acceptance configuration for BENCH_ingest_columnar.json).
//
// Flags: --scale, --reps (best rep is reported), --threads (batch-path
// lanes; the per-report path is inherently serial), --csv, --metrics
// (run with a live obs::MetricsRegistry: router stage timing enabled and
// every rep's IngestStats + stage nanos published — the acceptance gate
// pins the d=1024 columnar rate within 5% of the registry-off baseline),
// --help.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fo/frequency_oracle.h"
#include "fo/wire.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "obs/stats_feed.h"
#include "service/client_fleet.h"
#include "service/ingest.h"
#include "service/session.h"
#include "util/histogram.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/u64_set.h"

namespace {

using namespace ldpids;
using namespace ldpids::bench;
using service::ClientFleet;
using service::IngestStats;
using service::ReportRouter;
using service::RoundRequest;

constexpr double kEpsilon = 1.0;

std::size_t g_domain = 64;

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>(HashCounter(29, user, t) % g_domain);
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Cell {
  std::string oracle;
  std::size_t domain = 0;
  uint64_t reports = 0;
  double per_report_rps = 0.0;
  double columnar_rps = 0.0;
  double speedup() const {
    return per_report_rps > 0.0 ? columnar_rps / per_report_rps : 0.0;
  }
};

// The per-report baseline: decode, validate and fold one packet at a
// time, in the batch path's classification order (malformed, wrong
// oracle, wrong timestamp, duplicate, sketch-rejected). A duplicate
// outranks a sketch rejection, and a nonce is burned only on acceptance.
void IngestPerReport(const std::vector<std::vector<uint8_t>>& packets,
                     OracleId oracle, FoSketch* sketch, U64Set* seen,
                     IngestStats* stats) {
  DecodedReport report;  // reused across packets; no per-packet alloc
  for (const std::vector<uint8_t>& packet : packets) {
    if (TryDecodeReport(packet, g_domain, &report) != WireError::kOk) {
      ++stats->malformed;
    } else if (report.oracle != oracle) {
      ++stats->wrong_oracle;
    } else if (report.timestamp != 0) {
      ++stats->wrong_timestamp;
    } else if (seen->Contains(report.nonce)) {
      ++stats->duplicate;
    } else if (!sketch->AddReport(report)) {
      ++stats->sketch_rejected;
    } else {
      seen->Insert(report.nonce);
      ++stats->accepted;
    }
  }
}

// Times one ingest strategy over `reps` runs of the same packets; the best
// rep is reported (noise only shrinks the rate). Each rep's round state
// (router or sketch + nonce set) is built outside the timed window. The
// window runs through EstimateInto: sketches may defer folding work until
// the estimate (OLH resolves pending reports lazily), so stopping at the
// fold would credit whichever path happened to defer more. Every round of
// the real serving path ends in an estimate anyway. Exits on any drop:
// every produced packet must be accepted, so both paths demonstrably do
// the full decode + validation + fold work.
double BestRate(const FrequencyOracle& fo, OracleId oracle,
                const std::vector<std::vector<uint8_t>>& packets,
                bool columnar, std::size_t threads, int reps,
                obs::MetricsRegistry* metrics) {
  const FoParams params{kEpsilon, g_domain};
  double best = 0.0;
  Histogram estimate;
  // Feeds and stage sink register once, outside the timed window; with
  // --metrics the window itself pays the router's stage clock reads plus
  // the per-rep stage events and counter publication — the instrumented
  // serving cost.
  std::unique_ptr<obs::StageSink> stages;
  std::unique_ptr<obs::StatsFeed<IngestStats>> feed;
  if (metrics != nullptr) {
    stages = std::make_unique<obs::StageSink>(metrics, OracleIdName(oracle),
                                              /*recorder=*/nullptr);
    feed = std::make_unique<obs::StatsFeed<IngestStats>>(
        metrics, obs::Labels{{"session", OracleIdName(oracle)}});
  }
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    ReportRouter router(fo, params, oracle, 0, /*num_shards=*/1);
    if (metrics != nullptr) router.EnableStageTiming();
    // The per-report baseline's round state; the columnar path's lives in
    // the router.
    std::unique_ptr<FoSketch> sketch =
        columnar ? nullptr : fo.CreateSketch(params);
    U64Set seen;
    IngestStats stats;
    const auto start = std::chrono::steady_clock::now();
    if (columnar) {
      router.IngestBatch(packets, threads);
      sketch = router.Close(&stats);
    } else {
      IngestPerReport(packets, oracle, sketch.get(), &seen, &stats);
    }
    sketch->EstimateInto(&estimate);
    if (stages != nullptr) {
      // Histograms only, so each event needs just its duration.
      const uint64_t round = static_cast<uint64_t>(rep);
      const service::RouterStageNanos& busy = router.stage_nanos();
      stages->Emit({obs::Stage::kArenaDecode, round, 0, busy.arena_decode});
      stages->Emit({obs::Stage::kShardFold, round, 0, busy.shard_fold});
      stages->Emit({obs::Stage::kMerge, round, 0, busy.merge});
      feed->Add(stats);
    }
    const double wall = Seconds(start);
    if (stats.accepted != packets.size() || stats.total() != packets.size()) {
      std::fprintf(stderr, "ingest dropped packets: %s\n",
                   stats.ToString().c_str());
      std::exit(1);
    }
    if (wall > 0.0) {
      best = std::max(best, static_cast<double>(packets.size()) / wall);
    }
  }
  return best;
}

Cell BenchOracle(OracleId oracle, std::size_t num_reports, int reps,
                 std::size_t threads, obs::MetricsRegistry* metrics) {
  const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));

  const ClientFleet fleet(num_reports, TruthValue, 53);
  RoundRequest request;
  request.timestamp = 0;
  request.epsilon = kEpsilon;
  request.domain = g_domain;
  request.oracle = oracle;
  const auto packets = fleet.ProduceRound(request, threads);

  Cell cell;
  cell.oracle = OracleIdName(oracle);
  cell.domain = g_domain;
  cell.reports = num_reports;
  cell.per_report_rps = BestRate(fo, oracle, packets, /*columnar=*/false,
                                 threads, reps, metrics);
  cell.columnar_rps = BestRate(fo, oracle, packets, /*columnar=*/true,
                               threads, reps, metrics);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (HandleHelp(flags,
                 "bench_ingest_columnar — per-report vs columnar (arena + "
                 "SIMD kernel) wire ingestion, per oracle and domain size")) {
    return 0;
  }
  const double scale = BenchScale(flags);
  const std::size_t threads = BenchThreads(flags);
  const int reps = RepsFlag(flags, 3);
  const std::string csv_path = flags.GetString("csv", "");
  const bool metrics_on = flags.GetBool("metrics", false);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = metrics_on ? &registry : nullptr;

  PrintHeader("Columnar ingest speedup (reports/sec, per-report vs arena)",
              scale);
  std::printf("kernel backend: %s   metrics registry: %s\n\n",
              obs::SimdBackendName(), metrics_on ? "on" : "off");
  std::printf(
      "oracle   domain     reports   per-report/s     columnar/s  speedup\n");

  const std::vector<std::size_t> domains = {64, 1024, 4096};
  const std::vector<OracleId> oracles = {OracleId::kGrr, OracleId::kOue,
                                         OracleId::kOlh, OracleId::kSue,
                                         OracleId::kHr};
  std::vector<Cell> cells;
  for (std::size_t domain : domains) {
    g_domain = domain;
    // Larger domains carry proportionally heavier payloads (OUE/SUE bit
    // vectors, HR Hadamard columns), so the population shrinks with d to
    // keep the serial baseline path tractable at every scale.
    const std::size_t num_reports = std::max<std::size_t>(
        2000, static_cast<std::size_t>(ScaledUsers(scale, 12000000)) / domain);
    for (OracleId oracle : oracles) {
      const Cell cell =
          BenchOracle(oracle, num_reports, reps, threads, metrics);
      std::printf("%-8s %6zu  %10llu  %13.0f  %13.0f  %6.2fx\n",
                  cell.oracle.c_str(), cell.domain,
                  static_cast<unsigned long long>(cell.reports),
                  cell.per_report_rps, cell.columnar_rps, cell.speedup());
      cells.push_back(cell);
    }
    std::printf("\n");
  }

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path, {"oracle", "domain", "reports", "per_report_rps",
                             "columnar_rps", "speedup"});
    for (const Cell& cell : cells) {
      csv.WriteRow(cell.oracle,
                   {static_cast<double>(cell.domain),
                    static_cast<double>(cell.reports), cell.per_report_rps,
                    cell.columnar_rps, cell.speedup()});
    }
  }

  // Acceptance record: the d=1024 row per oracle, plus the minimum speedup
  // across oracles at that domain (the "columnar ingest is >= 2x" claim).
  double min_speedup = 0.0;
  std::string line = "[throughput] threads=" + std::to_string(threads) +
                     " domain=1024 backend=" + obs::SimdBackendName() +
                     " metrics=" + (metrics_on ? "1" : "0");
  char buf[128];
  for (const Cell& cell : cells) {
    if (cell.domain != 1024) continue;
    std::string key = cell.oracle;
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    std::snprintf(buf, sizeof(buf),
                  " %s_per_report_rps=%.0f %s_columnar_rps=%.0f "
                  "%s_speedup=%.2f",
                  key.c_str(), cell.per_report_rps, key.c_str(),
                  cell.columnar_rps, key.c_str(), cell.speedup());
    line += buf;
    min_speedup =
        min_speedup == 0.0 ? cell.speedup() : std::min(min_speedup, cell.speedup());
  }
  std::snprintf(buf, sizeof(buf), " min_speedup=%.2f", min_speedup);
  line += buf;
  std::printf("%s\n", line.c_str());
  return 0;
}
