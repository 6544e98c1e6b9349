// Centralized-DP Laplace histogram release — the substrate of the paper's
// CDP reference methods (Kellaris et al., VLDB 2014), reimplemented so the
// ablation benches can quantify the CDP->LDP utility gap that motivates
// LDP-IDS (Sections 1-2).
//
// The trusted aggregator sees the true frequency histogram c_t over N users
// and releases c_t + Lap(s / (N * eps)) per bin, where `s` is the L1
// sensitivity in count space (one user changing their value moves two bins
// by 1, so s = 2 for full histograms; s = 1 for per-bin counting queries).
//
// `LaplaceCollector` makes that release a collection round, so the w-event
// mechanisms of src/core run on it unchanged: LBU, LSP, LBD and LBA over a
// LaplaceCollector are Kellaris's Uniform, Sampling, Budget Distribution
// and Budget Absorption. Like LBD/LBA, BD/BA then compare an MSE-based
// dissimilarity (debiased by the Laplace variance) against the Laplace
// variance, instead of Kellaris's mean-absolute formulation; the strategy
// logic and budget schedules follow the original.
#ifndef LDPIDS_CDP_LAPLACE_H_
#define LDPIDS_CDP_LAPLACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/collector.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids {

// Frequency-space Laplace mechanism: adds i.i.d. Lap(sensitivity/(n*eps))
// noise to each bin of `frequencies`.
Histogram LaplacePerturbHistogram(const Histogram& frequencies, double epsilon,
                                  uint64_t n, double sensitivity, Rng& rng);

// Per-bin variance of the above: 2 * (sensitivity / (n * eps))^2.
double LaplaceVariance(double epsilon, uint64_t n, double sensitivity);

// A trusted aggregator over a known true stream: each round releases
// c_t + Lap(2 / (N * eps)) per bin, with the full-histogram sensitivity 2,
// whichever budget the mechanism spends. Every round is a whole-population
// round; a cohort (population division) has no meaning here and throws.
class LaplaceCollector final : public CollectorContext {
 public:
  // `stream[t]` is c_t over `num_users` users. Throws
  // std::invalid_argument on an empty stream or one whose histograms
  // differ in size.
  LaplaceCollector(std::vector<Histogram> stream, uint64_t num_users);

  std::size_t domain() const override { return stream_.front().size(); }
  uint64_t num_users() const override { return num_users_; }

  void Collect(std::size_t t, double epsilon,
               const std::vector<uint32_t>* subset, Rng& rng,
               uint64_t* n_out, Histogram* out) override;

  double MeanVariance(double epsilon, uint64_t n) const override;

 private:
  const std::vector<Histogram> stream_;
  const uint64_t num_users_;
};

}  // namespace ldpids

#endif  // LDPIDS_CDP_LAPLACE_H_
