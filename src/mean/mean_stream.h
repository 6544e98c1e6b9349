// w-event LDP mean release over infinite numeric streams — the paper's
// framework (Sections 5-6) instantiated for mean estimation instead of
// histograms, demonstrating footnote 2's "query type is orthogonal" claim.
//
// The mechanisms are the histogram family's own (core/factory.h), run
// over a `MeanCollector`:
//   * LBU — budget division, eps/w per timestamp, everyone reports;
//   * LPU — population division, one fresh 1/w group per timestamp with
//     the full budget;
//   * LPA — adaptive population absorption: a dissimilarity cohort
//     estimates dis = (m_hat - last_release)^2 - Var (the scalar Theorem
//     5.2) and a publication cohort is spent only when dis exceeds the
//     potential publication error, with LPA's absorb/nullify schedule.
// The benches print them as MeanLBU, MeanLPU and MeanLPA.
//
// Privacy: identical accounting to the histogram mechanisms — LBU splits
// the window budget; LPU/LPA let each user report at most once per window
// (enforced by PopulationManager) with full budget.
#ifndef LDPIDS_MEAN_MEAN_STREAM_H_
#define LDPIDS_MEAN_MEAN_STREAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/collector.h"
#include "mean/mean_oracle.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids {

// Ground truth for a numeric stream: each of N users holds a value in
// [-1, 1] at every timestamp.
class NumericStreamDataset {
 public:
  virtual ~NumericStreamDataset() = default;
  virtual std::string name() const = 0;
  virtual uint64_t num_users() const = 0;
  virtual std::size_t length() const = 0;
  virtual double value(uint64_t user, std::size_t t) const = 0;

  // Population mean at t (cached on first use). Thread-safe like
  // StreamDataset::TrueCounts: first access fills the slot under a mutex,
  // warmed reads are lock-free acquire loads.
  double TrueMean(std::size_t t) const;

 private:
  mutable std::mutex cache_mu_;
  mutable std::atomic<bool> cache_ready_{false};
  mutable std::vector<double> mean_cache_;
  mutable std::vector<std::atomic<bool>> cached_;
};

// Synthetic numeric stream: per-user value = clamp(base_t + personal noise)
// where base_t follows a sine plus random walk. Lazy/counter-based like the
// categorical datasets.
class SyntheticNumericDataset final : public NumericStreamDataset {
 public:
  SyntheticNumericDataset(std::string name, uint64_t num_users,
                          std::vector<double> base_series, double user_spread,
                          uint64_t seed);

  std::string name() const override { return name_; }
  uint64_t num_users() const override { return num_users_; }
  std::size_t length() const override { return base_.size(); }
  double value(uint64_t user, std::size_t t) const override;

 private:
  std::string name_;
  uint64_t num_users_;
  std::vector<double> base_;
  double user_spread_;
  uint64_t seed_;
};

// Drifting sine base series in [-0.8, 0.8]; the default workload.
std::shared_ptr<SyntheticNumericDataset> MakeNumericSineDataset(
    uint64_t num_users = 50000, std::size_t length = 200,
    double period_b = 0.05, double user_spread = 0.3, uint64_t seed = 17);

// The mean oracle as a collection round: each listed user (or everyone)
// sends one Duchi report of their value at t, and the round returns the
// reports' mean as a 1-bin release, with V(eps, n) = C^2 / n. The w-event
// mechanisms of src/core run on it unchanged, so the mean family is
// LBU/LPU/LPA over a MeanCollector (the histogram family's budget and
// population accounting, BudgetLedger and PopulationManager included).
class MeanCollector final : public CollectorContext {
 public:
  // `data` must outlive the collector.
  explicit MeanCollector(const NumericStreamDataset& data) : data_(data) {}

  std::size_t domain() const override { return 1; }
  uint64_t num_users() const override { return data_.num_users(); }

  void Collect(std::size_t t, double epsilon,
               const std::vector<uint32_t>* subset, Rng& rng,
               uint64_t* n_out, Histogram* out) override;

  double MeanVariance(double epsilon, uint64_t n) const override {
    return MeanOracle(epsilon).MeanVariance(n);
  }

 private:
  const NumericStreamDataset& data_;
};

}  // namespace ldpids

#endif  // LDPIDS_MEAN_MEAN_STREAM_H_
