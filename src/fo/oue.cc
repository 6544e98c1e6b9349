#include "fo/oue.h"

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

class OueSketch final : public FoSketch {
 public:
  OueSketch(const FoParams& params, double q)
      : FoSketch(params, q, 0.5 - q), d_(params.domain), q_(q) {}

  void AddUser(uint32_t true_value, Rng& rng) override {
    if (true_value >= d_) throw std::out_of_range("OUE value out of domain");
    for (std::size_t k = 0; k < d_; ++k) {
      const double pr = (k == true_value) ? 0.5 : q_;
      if (rng.Bernoulli(pr)) ++counts_[k];
    }
    ++num_users_;
  }

  void AddCohort(const Counts& true_counts, Rng& rng) override {
    if (true_counts.size() != d_) {
      throw std::invalid_argument("OUE cohort domain mismatch");
    }
    uint64_t n = 0;
    for (uint64_t m : true_counts) n += m;
    // OUE bits are independent across positions, so the per-bin aggregate is
    // exactly Binomial(m_k, 1/2) + Binomial(n - m_k, q).
    for (std::size_t k = 0; k < d_; ++k) {
      counts_[k] += SampleBinomial(rng, true_counts[k], 0.5) +
                    SampleBinomial(rng, n - true_counts[k], q_);
    }
    num_users_ += n;
  }

  bool AddReport(const DecodedReport& report) override {
    if (report.oracle != OracleId::kOue) return false;
    if (report.bits.bits.size() != d_) return false;
    for (std::size_t k = 0; k < d_; ++k) {
      if (report.bits.bits[k]) ++counts_[k];
    }
    ++num_users_;
    return true;
  }

  void AddReports(const ArenaSlice& slice) override {
    // Slice rows stream straight from the arena's packed bit columns; the
    // kernel folds whole words (AVX-512) or four bins per step instead of
    // testing one bool at a time through a rebuilt std::vector<bool>.
    fokernels::FoldBitColumns(slice.arena->bit_words(),
                              slice.arena->words_per_report(), slice.indices,
                              slice.count, d_, counts_.data());
    num_users_ += slice.count;
  }

 private:
  std::size_t d_;
  double q_;
};

}  // namespace

double OueOracle::ZeroFlipProbability(double epsilon) {
  return 1.0 / (std::exp(epsilon) + 1.0);
}

std::unique_ptr<FoSketch> OueOracle::CreateSketch(
    const FoParams& params) const {
  ValidateFoParams(params);
  return std::make_unique<OueSketch>(params,
                                     ZeroFlipProbability(params.epsilon));
}

double OueOracle::Variance(double epsilon, uint64_t n, std::size_t domain,
                           double f) const {
  (void)domain;  // OUE variance does not depend on d
  const double p = 0.5;
  const double q = ZeroFlipProbability(epsilon);
  const double numer = f * p * (1.0 - p) + (1.0 - f) * q * (1.0 - q);
  return numer / (static_cast<double>(n) * (p - q) * (p - q));
}

double OueOracle::MeanVariance(double epsilon, uint64_t n,
                               std::size_t domain) const {
  // Mean over bins with sum f_k = 1: mean f = 1/d.
  return Variance(epsilon, n, domain, 1.0 / static_cast<double>(domain));
}

std::size_t OueOracle::BytesPerReport(std::size_t domain) const {
  return (domain + 7) / 8;  // d-bit vector
}

}  // namespace ldpids
