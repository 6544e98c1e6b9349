#include "fo/sue.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "fo/fo_kernels.h"
#include "fo/report_arena.h"
#include "fo/wire.h"
#include "util/distributions.h"

namespace ldpids {

namespace {

class SueSketch final : public FoSketch {
 public:
  SueSketch(const FoParams& params, double p)
      : FoSketch(params, 1.0 - p, p - (1.0 - p)), d_(params.domain), p_(p) {}

  void AddUser(uint32_t true_value, Rng& rng) override {
    if (true_value >= d_) throw std::out_of_range("SUE value out of domain");
    for (std::size_t k = 0; k < d_; ++k) {
      // True bit (1 for the held value, 0 otherwise) sent faithfully w.p. p.
      const bool bit_is_one = (k == true_value);
      const double pr_one = bit_is_one ? p_ : 1.0 - p_;
      if (rng.Bernoulli(pr_one)) ++counts_[k];
    }
    ++num_users_;
  }

  void AddCohort(const Counts& true_counts, Rng& rng) override {
    if (true_counts.size() != d_) {
      throw std::invalid_argument("SUE cohort domain mismatch");
    }
    uint64_t n = 0;
    for (uint64_t m : true_counts) n += m;
    for (std::size_t k = 0; k < d_; ++k) {
      counts_[k] += SampleBinomial(rng, true_counts[k], p_) +
                    SampleBinomial(rng, n - true_counts[k], 1.0 - p_);
    }
    num_users_ += n;
  }

  bool AddReport(const DecodedReport& report) override {
    if (report.oracle != OracleId::kSue) return false;
    if (report.bits.bits.size() != d_) return false;
    for (std::size_t k = 0; k < d_; ++k) {
      if (report.bits.bits[k]) ++counts_[k];
    }
    ++num_users_;
    return true;
  }

  void AddReports(const ArenaSlice& slice) override {
    fokernels::FoldBitColumns(slice.arena->bit_words(),
                              slice.arena->words_per_report(), slice.indices,
                              slice.count, d_, counts_.data());
    num_users_ += slice.count;
  }

 private:
  std::size_t d_;
  double p_;
};

}  // namespace

double SueOracle::KeepProbability(double epsilon) {
  const double e_half = std::exp(epsilon / 2.0);
  return e_half / (e_half + 1.0);
}

std::unique_ptr<FoSketch> SueOracle::CreateSketch(
    const FoParams& params) const {
  ValidateFoParams(params);
  return std::make_unique<SueSketch>(params, KeepProbability(params.epsilon));
}

double SueOracle::Variance(double epsilon, uint64_t n, std::size_t domain,
                           double f) const {
  (void)domain;
  const double p = KeepProbability(epsilon);
  const double q = 1.0 - p;
  const double numer = f * p * (1.0 - p) + (1.0 - f) * q * (1.0 - q);
  return numer / (static_cast<double>(n) * (p - q) * (p - q));
}

double SueOracle::MeanVariance(double epsilon, uint64_t n,
                               std::size_t domain) const {
  return Variance(epsilon, n, domain, 1.0 / static_cast<double>(domain));
}

std::size_t SueOracle::BytesPerReport(std::size_t domain) const {
  return (domain + 7) / 8;
}

}  // namespace ldpids
