// Ablation: the CDP -> LDP utility gap that motivates the paper (Sections
// 1-2). With a trusted aggregator, Kellaris-style budget division (BD/BA)
// is cheap: Laplace variance degrades only quadratically in the budget.
// Without one, the LDP analogues LBD/LBA pay roughly exponentially — which
// is exactly why LDP-IDS switches to population division (LPD/LPA).
//
// The table prints end-to-end MSE of all three tiers on the same LNS
// stream; expect CDP << LDP-population << LDP-budget.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "analysis/metrics.h"
#include "analysis/runner.h"
#include "bench_common.h"
#include "cdp/laplace.h"
#include "core/factory.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace ldpids;
  const Flags flags(argc, argv);
  const std::string kTitle =
      "Ablation — CDP vs LDP utility gap (LNS, w=20)";
  if (bench::HandleHelp(flags, kTitle)) {
    return 0;
  }
  const double scale = flags.GetDouble("scale", 0.3);
  const int reps = bench::RepsFlag(flags, 2);
  const std::size_t threads = bench::BenchThreads(flags);
  bench::PrintHeader(kTitle, scale);
  bench::ThroughputRecorder throughput(threads);

  const auto data = MakeLnsDataset(bench::ScaledUsers(scale),
                                   bench::ScaledLength(scale));
  const auto truth = data->TrueStream();

  TablePrinter table({"tier", "method", "eps=0.5 MSE", "eps=1 MSE",
                      "eps=2 MSE"});
  const std::vector<double> epsilons = {0.5, 1.0, 2.0};

  // CDP tier (trusted aggregator, Laplace): Kellaris's Uniform, BD and BA
  // are LBU, LBD and LBA over a LaplaceCollector.
  const std::pair<std::string, std::string> cdp_methods[] = {
      {"Uniform", "LBU"}, {"BD", "LBD"}, {"BA", "LBA"}};
  for (const auto& [name, mechanism] : cdp_methods) {
    std::vector<double> row;
    for (double eps : epsilons) {
      double total = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        MechanismConfig c;
        c.epsilon = eps;
        c.window = 20;
        c.seed = 1000 + static_cast<uint64_t>(rep);
        LaplaceCollector collector(truth, data->num_users());
        total += MeanSquaredError(
            truth, CreateMechanism(mechanism, c, data->num_users())
                       ->Run(collector, truth.size())
                       .releases);
      }
      row.push_back(total / reps);
    }
    std::vector<std::string> cells = {"CDP", name};
    for (double v : row) cells.push_back(FormatDouble(v, 9));
    table.AddRow(cells);
  }

  // LDP tiers.
  for (const std::string name : {"LBU", "LBD", "LBA", "LPU", "LPD", "LPA"}) {
    std::vector<std::string> cells = {
        name[1] == 'B' ? "LDP-budget" : "LDP-population", name};
    for (double eps : epsilons) {
      MechanismConfig c;
      c.epsilon = eps;
      c.window = 20;
      cells.push_back(FormatDouble(
          EvaluateMechanism(*data, name, c, static_cast<std::size_t>(reps),
                            threads)
              .mse,
          9));
    }
    table.AddRow(cells);
  }
  table.Print(std::cout);
  throughput.AddRuns(static_cast<uint64_t>(reps) * 9);  // CDP tier runs
  throughput.Print();
  return 0;
}
