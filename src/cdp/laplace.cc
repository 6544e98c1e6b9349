#include "cdp/laplace.h"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/distributions.h"

namespace ldpids {

namespace {
// L1 sensitivity of a full frequency histogram in count space.
constexpr double kHistogramSensitivity = 2.0;
}  // namespace

Histogram LaplacePerturbHistogram(const Histogram& frequencies, double epsilon,
                                  uint64_t n, double sensitivity, Rng& rng) {
  if (!(epsilon > 0.0)) throw std::invalid_argument("epsilon must be > 0");
  if (n == 0) throw std::invalid_argument("population must be positive");
  const double scale = sensitivity / (static_cast<double>(n) * epsilon);
  Histogram out(frequencies.size());
  for (std::size_t k = 0; k < frequencies.size(); ++k) {
    out[k] = frequencies[k] + SampleLaplace(rng, scale);
  }
  return out;
}

double LaplaceVariance(double epsilon, uint64_t n, double sensitivity) {
  const double scale = sensitivity / (static_cast<double>(n) * epsilon);
  return 2.0 * scale * scale;
}

LaplaceCollector::LaplaceCollector(std::vector<Histogram> stream,
                                   uint64_t num_users)
    : stream_(std::move(stream)), num_users_(num_users) {
  if (stream_.empty()) throw std::invalid_argument("empty stream");
  for (const Histogram& c : stream_) {
    if (c.size() != stream_.front().size()) {
      throw std::invalid_argument("stream domain changes mid-stream");
    }
  }
}

void LaplaceCollector::Collect(std::size_t t, double epsilon,
                               const std::vector<uint32_t>* subset, Rng& rng,
                               uint64_t* n_out, Histogram* out) {
  if (subset != nullptr) {
    throw std::invalid_argument("a Laplace release has no cohort rounds");
  }
  *out = LaplacePerturbHistogram(stream_.at(t), epsilon, num_users_,
                                 kHistogramSensitivity, rng);
  if (n_out != nullptr) *n_out = num_users_;
}

double LaplaceCollector::MeanVariance(double epsilon, uint64_t n) const {
  return LaplaceVariance(epsilon, n, kHistogramSensitivity);
}

}  // namespace ldpids
