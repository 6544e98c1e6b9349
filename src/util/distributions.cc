#include "util/distributions.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace ldpids {

double SampleGaussian(Rng& rng) {
  // Marsaglia polar method. Acceptance probability pi/4 ~ 0.785.
  while (true) {
    const double u = 2.0 * rng.NextDouble() - 1.0;
    const double v = 2.0 * rng.NextDouble() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double SampleGaussian(Rng& rng, double mean, double stddev) {
  return mean + stddev * SampleGaussian(rng);
}

double SampleLaplace(Rng& rng, double scale) {
  // Inverse CDF: X = -scale * sign(u) * ln(1 - 2|u|), u ~ U(-1/2, 1/2).
  const double u = rng.NextDouble() - 0.5;
  const double magnitude = -scale * std::log(1.0 - 2.0 * std::fabs(u));
  return u < 0.0 ? -magnitude : magnitude;
}

namespace {

// glibc's lgamma writes the process-global `signgam`, which makes every
// concurrent binomial draw a data race (flagged by the CI TSan job) even
// though the returned value is fine. The reentrant form returns the same
// bits — thread-count invariance of all sampled streams is unaffected.
inline double LogGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

// Sequential CDF inversion ("BINV"); expected cost O(n*p). Exact.
uint64_t BinomialInversion(Rng& rng, uint64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  // f(0) = q^n computed in log space to avoid underflow for large n.
  double f = std::exp(static_cast<double>(n) * std::log1p(-p));
  double u = rng.NextDouble();
  uint64_t k = 0;
  while (u > f) {
    u -= f;
    ++k;
    if (k > n) {
      // Numerically possible only through rounding in the tail; retry.
      f = std::exp(static_cast<double>(n) * std::log1p(-p));
      u = rng.NextDouble();
      k = 0;
      continue;
    }
    f *= s * static_cast<double>(n - k + 1) / static_cast<double>(k);
  }
  return k;
}

// BTRS transformed-rejection sampler (Hormann, "The generation of binomial
// random variates", 1993). Exact, O(1) expected time. Requires
// n * p >= 10 and p <= 0.5.
uint64_t BinomialBtrs(Rng& rng, uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double np = nd * p;
  const double q = 1.0 - p;
  const double spq = std::sqrt(np * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = np + 0.5;
  const double vr = 0.92 - 4.2 / b;
  const double urvr = 0.86 * vr;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(p / q);
  const double m = std::floor((nd + 1.0) * p);
  const double h = LogGamma(m + 1.0) + LogGamma(nd - m + 1.0);

  while (true) {
    double v = rng.NextDouble();
    double u;
    if (v <= urvr) {
      // Fast path: inside the "squeeze" region, accept immediately.
      u = v / vr - 0.43;
      const double us = 0.5 - std::fabs(u);
      return static_cast<uint64_t>(std::floor((2.0 * a / us + b) * u + c));
    }
    if (v >= vr) {
      u = rng.NextDouble() - 0.5;
    } else {
      u = v / vr - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = rng.NextDouble() * vr;
    }
    const double us = 0.5 - std::fabs(u);
    if (us < 0.013 && v > us) continue;  // guard the extreme tails
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    const double logv = std::log(v * alpha / (a / (us * us) + b));
    const double bound =
        h - LogGamma(kd + 1.0) - LogGamma(nd - kd + 1.0) + (kd - m) * lpq;
    if (logv <= bound) return static_cast<uint64_t>(kd);
  }
}

}  // namespace

uint64_t SampleBinomial(Rng& rng, uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - SampleBinomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < 10.0) return BinomialInversion(rng, n, p);
  return BinomialBtrs(rng, n, p);
}

std::vector<uint64_t> SampleMultinomial(Rng& rng, uint64_t n,
                                        const std::vector<double>& weights) {
  std::vector<uint64_t> counts;
  SampleMultinomial(rng, n, weights, &counts);
  return counts;
}

void SampleMultinomial(Rng& rng, uint64_t n, const std::vector<double>& weights,
                       std::vector<uint64_t>* out) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("negative multinomial weight");
    total += w;
  }
  if (weights.empty() || total <= 0.0) {
    throw std::invalid_argument("multinomial weights must have positive sum");
  }
  out->assign(weights.size(), 0);
  std::vector<uint64_t>& counts = *out;
  uint64_t remaining = n;
  double weight_left = total;
  for (std::size_t k = 0; k + 1 < weights.size() && remaining > 0; ++k) {
    const double p =
        weight_left > 0.0 ? std::min(1.0, weights[k] / weight_left) : 0.0;
    counts[k] = SampleBinomial(rng, remaining, p);
    remaining -= counts[k];
    weight_left -= weights[k];
  }
  counts.back() = remaining;
}

namespace {

// Sequential exact hypergeometric draw: pull `draws` elements one at a time.
// O(draws); used when inversion would be slower.
uint64_t HypergeometricSequential(Rng& rng, uint64_t total, uint64_t marked,
                                  uint64_t draws) {
  uint64_t hits = 0;
  uint64_t remaining_total = total;
  uint64_t remaining_marked = marked;
  for (uint64_t i = 0; i < draws; ++i) {
    const double p = static_cast<double>(remaining_marked) /
                     static_cast<double>(remaining_total);
    if (rng.Bernoulli(p)) {
      ++hits;
      --remaining_marked;
    }
    --remaining_total;
    if (remaining_marked == 0) break;
    if (remaining_marked == remaining_total) {
      // All remaining elements are marked.
      hits += draws - i - 1;
      break;
    }
  }
  return hits;
}

// CDF inversion from k = 0; expected cost O(mean). Exact.
uint64_t HypergeometricInversion(Rng& rng, uint64_t total, uint64_t marked,
                                 uint64_t draws) {
  // log f(0) = log C(total-marked, draws) - log C(total, draws)
  //          = sum_{i=0}^{draws-1} log((total-marked-i) / (total-i)).
  double logf = 0.0;
  for (uint64_t i = 0; i < draws; ++i) {
    logf += std::log(static_cast<double>(total - marked - i)) -
            std::log(static_cast<double>(total - i));
  }
  double f = std::exp(logf);
  double u = rng.NextDouble();
  uint64_t k = 0;
  const uint64_t kmax = std::min(marked, draws);
  while (u > f) {
    u -= f;
    if (k >= kmax) {  // numeric tail guard; restart
      f = std::exp(logf);
      u = rng.NextDouble();
      k = 0;
      continue;
    }
    // f(k+1)/f(k) = (marked-k)(draws-k) / ((k+1)(total-marked-draws+k+1)).
    f *= static_cast<double>(marked - k) * static_cast<double>(draws - k) /
         (static_cast<double>(k + 1) *
          static_cast<double>(total - marked - draws + k + 1));
    ++k;
  }
  return k;
}

}  // namespace

uint64_t SampleHypergeometric(Rng& rng, uint64_t total, uint64_t marked,
                              uint64_t draws) {
  assert(marked <= total && draws <= total);
  if (draws == 0 || marked == 0) return 0;
  if (marked == total) return draws;
  if (draws == total) return marked;
  // Symmetry reductions: marked <-> draws leaves the law unchanged; taking
  // complements flips it. Pick the variant with the smallest expected value.
  if (marked > total - marked) {
    return draws - SampleHypergeometric(rng, total, total - marked, draws);
  }
  if (draws > total - draws) {
    return marked - SampleHypergeometric(rng, total, marked, total - draws);
  }
  const double mean = static_cast<double>(draws) *
                      static_cast<double>(marked) /
                      static_cast<double>(total);
  if (mean < 64.0) return HypergeometricInversion(rng, total, marked, draws);
  return HypergeometricSequential(rng, total, marked,
                                  std::min(draws, marked) == draws ? draws
                                                                   : draws);
}

std::vector<double> ZipfWeights(std::size_t d, double s) {
  std::vector<double> w(d);
  double total = 0.0;
  for (std::size_t k = 0; k < d; ++k) {
    w[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
    total += w[k];
  }
  for (double& x : w) x /= total;
  return w;
}

}  // namespace ldpids
