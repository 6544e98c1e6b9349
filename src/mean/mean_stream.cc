#include "mean/mean_stream.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ldpids {

double NumericStreamDataset::TrueMean(std::size_t t) const {
  if (t >= length()) throw std::out_of_range("timestamp beyond stream");
  // Lock-free fast path for warmed slots; see StreamDataset::TrueCounts.
  if (cache_ready_.load(std::memory_order_acquire) &&
      cached_[t].load(std::memory_order_acquire)) {
    return mean_cache_[t];
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (!cache_ready_.load(std::memory_order_relaxed)) {
    mean_cache_.resize(length(), 0.0);
    cached_ = std::vector<std::atomic<bool>>(length());
    cache_ready_.store(true, std::memory_order_release);
  }
  if (!cached_[t].load(std::memory_order_relaxed)) {
    double total = 0.0;
    for (uint64_t u = 0; u < num_users(); ++u) total += value(u, t);
    mean_cache_[t] = total / static_cast<double>(num_users());
    cached_[t].store(true, std::memory_order_release);
  }
  return mean_cache_[t];
}

SyntheticNumericDataset::SyntheticNumericDataset(
    std::string name, uint64_t num_users, std::vector<double> base_series,
    double user_spread, uint64_t seed)
    : name_(std::move(name)),
      num_users_(num_users),
      base_(std::move(base_series)),
      user_spread_(user_spread),
      seed_(seed) {
  if (num_users_ == 0) throw std::invalid_argument("need at least one user");
  if (base_.empty()) throw std::invalid_argument("empty base series");
}

double SyntheticNumericDataset::value(uint64_t user, std::size_t t) const {
  // Personal offset: uniform in [-spread, spread], deterministic per
  // (seed, user, t).
  const double u01 =
      static_cast<double>(HashCounter(seed_, user, t) >> 11) * 0x1.0p-53;
  const double offset = (2.0 * u01 - 1.0) * user_spread_;
  return std::clamp(base_[t] + offset, -1.0, 1.0);
}

std::shared_ptr<SyntheticNumericDataset> MakeNumericSineDataset(
    uint64_t num_users, std::size_t length, double period_b,
    double user_spread, uint64_t seed) {
  std::vector<double> base(length);
  for (std::size_t t = 0; t < length; ++t) {
    base[t] = 0.6 * std::sin(period_b * static_cast<double>(t)) +
              0.2 * std::sin(0.31 * period_b * static_cast<double>(t));
  }
  return std::make_shared<SyntheticNumericDataset>(
      "NumericSine", num_users, std::move(base), user_spread, seed);
}

void MeanCollector::Collect(std::size_t t, double epsilon,
                            const std::vector<uint32_t>* subset, Rng& rng,
                            uint64_t* n_out, Histogram* out) {
  const MeanOracle oracle(epsilon);
  MeanAccumulator acc;
  if (subset == nullptr) {
    for (uint64_t u = 0; u < data_.num_users(); ++u) {
      acc.Consume(oracle.Perturb(data_.value(u, t), rng));
    }
  } else {
    for (uint32_t u : *subset) {
      acc.Consume(oracle.Perturb(data_.value(u, t), rng));
    }
  }
  out->assign(1, acc.Estimate());
  if (n_out != nullptr) *n_out = acc.num_reports();
}

}  // namespace ldpids
