// Extension bench: w-event LDP mean release over numeric streams (the
// paper's footnote-2 generalization, implemented in src/mean).
//
// Prints MSE and CFPU of MeanLBU / MeanLPU / MeanLPA (LBU, LPU and LPA over
// a MeanCollector) across eps and w on a drifting numeric stream. Expected
// shape: the population-division gap of Theorem 6.1 carries over verbatim —
// MeanLPU/MeanLPA beat MeanLBU by a widening factor as w grows, and MeanLPA
// pays the least communication.
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/factory.h"
#include "core/mechanism.h"
#include "mean/mean_stream.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace {

using namespace ldpids;

struct MeanMetrics {
  double mse = 0.0;
  double cfpu = 0.0;
};

MeanMetrics Evaluate(const NumericStreamDataset& data,
                     const std::string& name, double eps, std::size_t w,
                     int reps, std::size_t threads) {
  // Warm the lazily-cached true means before fanning out, so the parallel
  // repetitions below only ever read the cache.
  for (std::size_t t = 0; t < data.length(); ++t) data.TrueMean(t);
  const std::vector<MeanMetrics> per_rep = bench::ParallelReps<MeanMetrics>(
      threads, reps, [&](std::size_t rep) {
        MechanismConfig config;
        config.epsilon = eps;
        config.window = w;
        config.seed = 1000 + static_cast<uint64_t>(rep);
        MeanCollector collector(data);
        const RunResult run = CreateMechanism(name, config, data.num_users())
                                  ->Run(collector, data.length());
        double mse = 0.0;
        for (std::size_t t = 0; t < run.releases.size(); ++t) {
          const double diff = run.releases[t][0] - data.TrueMean(t);
          mse += diff * diff;
        }
        return MeanMetrics{mse / static_cast<double>(run.releases.size()),
                           run.Cfpu()};
      });
  // Fixed-order reduction keeps the table identical for every thread count.
  MeanMetrics metrics;
  for (const MeanMetrics& r : per_rep) {
    metrics.mse += r.mse;
    metrics.cfpu += r.cfpu;
  }
  metrics.mse /= reps;
  metrics.cfpu /= reps;
  return metrics;
}

// The mean family: the histogram mechanisms over a MeanCollector.
const std::string kMechanisms[] = {"LBU", "LPU", "LPA"};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string kTitle =
      "Extension — w-event LDP mean estimation";
  if (bench::HandleHelp(flags, kTitle)) {
    return 0;
  }
  const double scale = flags.GetDouble("scale", 0.3);
  const int reps = bench::RepsFlag(flags, 2);
  const std::size_t threads = bench::BenchThreads(flags);
  bench::PrintHeader(kTitle, scale);
  bench::ThroughputRecorder throughput(threads);

  const auto data = MakeNumericSineDataset(bench::ScaledUsers(scale, 100000),
                                           bench::ScaledLength(scale, 400),
                                           /*period_b=*/0.05);

  std::printf("MSE vs eps (w=20)\n");
  TablePrinter eps_table({"method", "eps=0.5", "eps=1.0", "eps=2.0"});
  for (const std::string& name : kMechanisms) {
    std::vector<double> row;
    for (double eps : {0.5, 1.0, 2.0}) {
      row.push_back(Evaluate(*data, name, eps, 20, reps, threads).mse);
    }
    eps_table.AddRow("Mean" + name, row, 6);
  }
  eps_table.Print(std::cout);

  std::printf("\nMSE vs w (eps=1)\n");
  TablePrinter w_table({"method", "w=10", "w=20", "w=40"});
  for (const std::string& name : kMechanisms) {
    std::vector<double> row;
    for (std::size_t w : {10u, 20u, 40u}) {
      row.push_back(Evaluate(*data, name, 1.0, w, reps, threads).mse);
    }
    w_table.AddRow("Mean" + name, row, 6);
  }
  w_table.Print(std::cout);

  std::printf("\nCFPU (eps=1, w=20)\n");
  TablePrinter c_table({"method", "CFPU"});
  for (const std::string& name : kMechanisms) {
    c_table.AddRow("Mean" + name,
                   {Evaluate(*data, name, 1.0, 20, reps, threads).cfpu}, 4);
  }
  c_table.Print(std::cout);
  // Mean mechanisms bypass RunMechanism; count them explicitly:
  // 3 methods x (3 eps + 3 w + 1 cfpu) cells x reps runs.
  throughput.AddRuns(static_cast<uint64_t>(reps) * 3 * 7);
  throughput.Print();
  return 0;
}
