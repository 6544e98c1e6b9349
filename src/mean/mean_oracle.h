// LDP mean estimation for numeric values in [-1, 1] — Duchi et al.'s
// one-bit mechanism (FOCS 2013 / "Privacy aware learning"), the numeric
// counterpart of the frequency oracles in src/fo.
//
// The paper's footnote 2 notes that "other aggregate analyses, such as
// count and mean estimation, can be applicable, as the query type is
// orthogonal to the streaming data setting"; src/mean realizes that claim:
// through mean_stream.h's MeanCollector this oracle drives the histogram
// family's own w-event mechanisms, the way the FOs do.
//
// Client: holding x in [-1, 1], report the single bit
//     B = +C with probability 1/2 + x (e^eps - 1) / (2 (e^eps + 1)),
//     B = -C otherwise,           where C = (e^eps + 1) / (e^eps - 1).
// The two-point output distribution satisfies eps-LDP and E[B] = x.
//
// Server: the sample mean of the reports is an unbiased mean estimate with
//     Var(B | x) = C^2 - x^2   =>   Var(mean) <= C^2 / n.
#ifndef LDPIDS_MEAN_MEAN_ORACLE_H_
#define LDPIDS_MEAN_MEAN_ORACLE_H_

#include <cstdint>

#include "util/rng.h"

namespace ldpids {

class MeanOracle {
 public:
  // eps must be positive.
  explicit MeanOracle(double epsilon);

  // Client-side perturbation of one value (clamped to [-1, 1]).
  double Perturb(double value, Rng& rng) const;

  // The report magnitude C = (e^eps + 1) / (e^eps - 1).
  double report_magnitude() const { return c_; }
  double epsilon() const { return epsilon_; }

  // Worst-case variance of the mean of n reports: C^2 / n (exact per-user
  // variance is C^2 - x^2; the mechanisms use the data-independent bound,
  // mirroring the FO path's V(eps, n)).
  double MeanVariance(uint64_t n) const;

 private:
  double epsilon_;
  double c_;
};

// Server-side accumulator for one collection round.
class MeanAccumulator {
 public:
  void Consume(double report);
  // Unbiased mean estimate; requires at least one report.
  double Estimate() const;
  uint64_t num_reports() const { return n_; }

 private:
  double sum_ = 0.0;
  uint64_t n_ = 0;
};

}  // namespace ldpids

#endif  // LDPIDS_MEAN_MEAN_ORACLE_H_
