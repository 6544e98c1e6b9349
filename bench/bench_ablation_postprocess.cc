// Ablation: release post-processing and FAST-style smoothing.
//
// Both are privacy-free transformations of the released stream (the
// post-processing theorem), and both matter in practice:
//   * consistency enforcement (clamp / simplex projection / norm-sub)
//     removes the impossible negative bins of unbiased LDP estimates;
//   * Kalman smoothing (Remark 3's FAST composition) exploits temporal
//     correlation that the raw releases leave on the table.
//
// The table reports MRE on LNS (left, sparse binary) and a Taxi-like
// categorical stream (right) for each mechanism x post-processing mode,
// plus a smoothing row for the always-publish methods.
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/runner.h"
#include "analysis/smoother.h"
#include "bench_common.h"
#include "core/factory.h"
#include "core/postprocess.h"
#include "fo/frequency_oracle.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace ldpids;
  const Flags flags(argc, argv);
  const std::string kTitle =
      "Ablation — consistency post-processing and smoothing (eps=1, w=20)";
  if (bench::HandleHelp(flags, kTitle)) {
    return 0;
  }
  const double scale = flags.GetDouble("scale", 0.3);
  const int reps = bench::RepsFlag(flags, 2);
  const std::size_t threads = bench::BenchThreads(flags);
  bench::PrintHeader(kTitle, scale);
  bench::ThroughputRecorder throughput(threads);

  const auto lns = MakeLnsDataset(bench::ScaledUsers(scale),
                                  bench::ScaledLength(scale));
  RealWorldSimOptions o;
  o.scale = scale;
  const auto taxi = MakeTaxiLikeDataset(o);

  const std::vector<PostProcess> modes = {
      PostProcess::kNone, PostProcess::kClamp, PostProcess::kSimplex,
      PostProcess::kNormSub};

  for (const auto& data :
       std::vector<std::shared_ptr<StreamDataset>>{lns, taxi}) {
    std::printf("dataset %s — MRE by post-processing mode\n",
                data->name().c_str());
    std::vector<std::string> header = {"method"};
    for (PostProcess m : modes) header.push_back(PostProcessName(m));
    TablePrinter table(header);
    for (const std::string method : {"LBU", "LBA", "LPU", "LPA"}) {
      std::vector<double> row;
      for (PostProcess mode : modes) {
        MechanismConfig config;
        config.epsilon = 1.0;
        config.window = 20;
        config.post_process = mode;
        row.push_back(EvaluateMechanism(*data, method, config,
                                        static_cast<std::size_t>(reps),
                                        threads)
                          .mre);
      }
      table.AddRow(method, row);
    }
    table.Print(std::cout);
    std::printf("\n");
  }

  // Smoothing ablation on LNS: raw vs Kalman-filtered releases.
  std::printf("Kalman smoothing (FAST-style), LNS — MSE raw vs smoothed\n");
  const auto truth = lns->TrueStream();
  const double q = EstimateProcessVariance(truth);
  TablePrinter smooth_table({"method", "raw MSE", "smoothed MSE", "gain"});
  for (const std::string method : {"LBU", "LPU", "LPA"}) {
    MechanismConfig config;
    config.epsilon = 1.0;
    config.window = 20;
    // Per-method measurement variance at publications.
    double r;
    const auto& fo = GetFrequencyOracle("GRR");
    if (method == "LBU") {
      r = fo.MeanVariance(1.0 / 20.0, lns->num_users(), 2);
    } else if (method == "LPU") {
      r = fo.MeanVariance(1.0, lns->num_users() / 20, 2);
    } else {
      r = fo.MeanVariance(1.0, lns->num_users() / (2 * 20), 2);
    }
    // Repetitions fan out across threads; the reduction stays in fixed rep
    // order so the printed numbers match the serial run bit-for-bit.
    struct RepMse {
      double raw = 0.0;
      double smoothed = 0.0;
    };
    const std::vector<RepMse> per_rep = bench::ParallelReps<RepMse>(
        threads, reps, [&](std::size_t rep) {
          const RunResult run = RunMechanism(*lns, method, config, rep);
          return RepMse{MeanSquaredError(truth, run.releases),
                        MeanSquaredError(truth, SmoothRun(run, q, r))};
        });
    double raw = 0.0, smoothed = 0.0;
    for (const RepMse& m : per_rep) {
      raw += m.raw;
      smoothed += m.smoothed;
    }
    smooth_table.AddRow(method,
                        {raw / reps, smoothed / reps,
                         raw > 0 ? raw / std::max(smoothed, 1e-18) : 0.0},
                        6);
  }
  smooth_table.Print(std::cout);
  throughput.Print();
  return 0;
}
