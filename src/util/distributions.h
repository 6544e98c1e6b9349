// Random-variate samplers used across the library.
//
// Everything is built on `Rng` so results are reproducible. The binomial
// sampler matters most: the cohort-mode frequency-oracle simulation
// (FoSketch::AddCohort) replaces O(n) per-user coin flips with O(d) binomial
// draws, so the sampler must be exact and fast for n up to ~10^6.
#ifndef LDPIDS_UTIL_DISTRIBUTIONS_H_
#define LDPIDS_UTIL_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace ldpids {

// Standard-normal variate (polar / Marsaglia method). Each call consumes a
// fresh pair of uniforms; no state is carried between calls.
double SampleGaussian(Rng& rng);

// Gaussian with the given mean and standard deviation.
double SampleGaussian(Rng& rng, double mean, double stddev);

// Laplace(0, scale) variate via inverse CDF; used by the centralized-DP
// baselines (Kellaris BD/BA) in src/cdp.
double SampleLaplace(Rng& rng, double scale);

// Binomial(n, p) variate.
//
// Exact for all (n, p):
//  * small n*min(p,1-p): inversion (sequential CDF walk), O(n*p) expected;
//  * otherwise: BTRS transformed-rejection sampler (Hormann 1993), O(1)
//    expected, exact.
uint64_t SampleBinomial(Rng& rng, uint64_t n, double p);

// Multinomial(n, weights) sample via the conditional-binomial decomposition:
// draw count_0 ~ Binomial(n, w_0 / W), then recurse on the remainder. Exact,
// O(k) binomial draws for k categories. `weights` must be non-negative with
// a positive sum. Returns a vector of counts summing to n.
std::vector<uint64_t> SampleMultinomial(Rng& rng, uint64_t n,
                                        const std::vector<double>& weights);

// Scratch-buffer overload for hot paths: writes the counts into `*out`
// (resized to weights.size()), so a caller drawing one multinomial per
// domain value per timestamp reuses one buffer instead of allocating.
// Consumes exactly the same RNG stream as the allocating overload.
void SampleMultinomial(Rng& rng, uint64_t n, const std::vector<double>& weights,
                       std::vector<uint64_t>* out);

// Hypergeometric sample: number of "marked" elements in a size-`draws`
// subset drawn without replacement from a population of size `total`
// containing `marked` marked elements. Exact; inversion for small draws,
// symmetry reductions otherwise.
uint64_t SampleHypergeometric(Rng& rng, uint64_t total, uint64_t marked,
                              uint64_t draws);

// Zipf-like power-law weights w_k = 1 / (k + 1)^s for k in [0, d), normalized
// to sum to 1. Used by the real-world-like dataset simulators.
std::vector<double> ZipfWeights(std::size_t d, double s);

}  // namespace ldpids

#endif  // LDPIDS_UTIL_DISTRIBUTIONS_H_
