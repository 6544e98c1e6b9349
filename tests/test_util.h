// Shared helpers for the LDP-IDS test suite.
//
// Many properties under test are distributional (unbiasedness, variance
// formulas, LDP perturbation probabilities). The helpers below compute
// sample moments and standard errors so tests can assert with principled
// tolerances (a few standard errors) instead of magic numbers. Regression
// pins instead compare whole runs bit for bit through `DigestRun`.
#ifndef LDPIDS_TESTS_TEST_UTIL_H_
#define LDPIDS_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "util/histogram.h"

namespace ldpids::testing {

// FNV-1a over `n` raw bytes, continuing from `h`.
inline uint64_t FnvFold(uint64_t h, const void* p, std::size_t n) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// FNV-1a over the raw bytes of a release stream. Bitwise: any change in
// any released double trips it. `h` chains several streams into one
// digest.
inline uint64_t DigestReleases(const std::vector<Histogram>& releases,
                               uint64_t h = 1469598103934665603ULL) {
  for (const Histogram& r : releases) {
    h = FnvFold(h, r.data(), r.size() * sizeof(double));
  }
  return h;
}

// DigestReleases over the run's releases, then its publication flags and
// message counters. `h` chains several runs into one digest.
inline uint64_t DigestRun(const RunResult& run,
                          uint64_t h = 1469598103934665603ULL) {
  h = DigestReleases(run.releases, h);
  auto fold = [&h](const void* p, std::size_t n) { h = FnvFold(h, p, n); };
  for (bool p : run.published) {
    const unsigned char b = p ? 1 : 0;
    fold(&b, 1);
  }
  fold(&run.total_messages, sizeof(run.total_messages));
  fold(&run.num_publications, sizeof(run.num_publications));
  return h;
}

inline double SampleMean(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

inline double SampleVariance(const std::vector<double>& xs) {
  const double mean = SampleMean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return ss / static_cast<double>(xs.size() - 1);
}

// Standard error of the sample mean.
inline double StdError(const std::vector<double>& xs) {
  return std::sqrt(SampleVariance(xs) / static_cast<double>(xs.size()));
}

// True if |observed_mean - expected| <= sigmas * standard error (plus a tiny
// absolute slack for exact-zero cases).
inline bool MeanWithin(const std::vector<double>& xs, double expected,
                       double sigmas = 5.0, double abs_slack = 1e-12) {
  return std::fabs(SampleMean(xs) - expected) <=
         sigmas * StdError(xs) + abs_slack;
}

// VmSize from /proc/self/status, in KiB (0 if unreadable). Leak tests
// bound its growth over many connect/close cycles.
inline uint64_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      uint64_t kb = 0;
      status >> kb;
      return kb;
    }
  }
  return 0;
}

}  // namespace ldpids::testing

#endif  // LDPIDS_TESTS_TEST_UTIL_H_
