#include "fo/grr.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fo/report_arena.h"
#include "fo/wire.h"
#include "util/distributions.h"

namespace ldpids {

namespace {

class GrrSketch final : public FoSketch {
 public:
  GrrSketch(const FoParams& params, double p, double q)
      : FoSketch(params, q, p - q),
        d_(params.domain),
        p_(p),
        uniform_other_(params.domain - 1, 1.0) {}

  void AddUser(uint32_t true_value, Rng& rng) override {
    if (true_value >= d_) throw std::out_of_range("GRR value out of domain");
    uint32_t report = true_value;
    if (!rng.Bernoulli(p_)) {
      // Uniform over the d-1 other values: draw in [0, d-1) and skip self.
      const uint32_t r = static_cast<uint32_t>(rng.UniformInt(d_ - 1));
      report = (r >= true_value) ? r + 1 : r;
    }
    ++counts_[report];
    ++num_users_;
  }

  void AddCohort(const Counts& true_counts, Rng& rng) override {
    if (true_counts.size() != d_) {
      throw std::invalid_argument("GRR cohort domain mismatch");
    }
    // For the m_k users holding value k: kept ~ Binomial(m_k, p); the lies
    // spread uniformly (multinomially) over the other d-1 values. This is
    // exactly the distribution of the per-user protocol. The uniform weight
    // vector is hoisted into the sketch and the spread lands in a reused
    // scratch buffer, so the per-value loop does no allocation.
    for (std::size_t k = 0; k < d_; ++k) {
      const uint64_t m = true_counts[k];
      if (m == 0) continue;
      const uint64_t kept = SampleBinomial(rng, m, p_);
      counts_[k] += kept;
      const uint64_t lies = m - kept;
      if (lies > 0) {
        SampleMultinomial(rng, lies, uniform_other_, &spread_scratch_);
        for (std::size_t j = 0; j < d_ - 1; ++j) {
          const std::size_t target = (j >= k) ? j + 1 : j;
          counts_[target] += spread_scratch_[j];
        }
      }
      num_users_ += m;
    }
  }

  bool AddReport(const DecodedReport& report) override {
    if (report.oracle != OracleId::kGrr) return false;
    if (report.grr.value >= d_) return false;
    ++counts_[report.grr.value];
    ++num_users_;
    return true;
  }

  void AddReports(const ArenaSlice& slice) override {
    // Decode already bounds GRR values to the domain, so the slice rows
    // scatter straight into the histogram. Data-dependent indices keep this
    // scalar; the win over AddReport is skipping the DecodedReport rebuild.
    const uint32_t* values = slice.arena->values();
    if (slice.indices == nullptr) {
      for (std::size_t i = 0; i < slice.count; ++i) {
        ++counts_[values[i]];
      }
    } else {
      for (std::size_t i = 0; i < slice.count; ++i) {
        ++counts_[values[slice.indices[i]]];
      }
    }
    num_users_ += slice.count;
  }

 protected:
  // GRR's per-user client is O(1) while AddCohort pays one binomial plus an
  // O(d) multinomial spread for every nonzero bin, so the cohort path only
  // wins when the batch dwarfs (nonzero bins) x d — i.e. for concentrated
  // or very large batches, not for counts spread across the domain.
  bool CohortPaysOff(std::size_t batch_size,
                     const Counts& true_counts) const override {
    std::size_t nonzero = 0;
    for (uint64_t c : true_counts) nonzero += c > 0 ? 1 : 0;
    return nonzero * (d_ + 1) < batch_size;
  }

 private:
  std::size_t d_;
  double p_;
  const std::vector<double> uniform_other_;
  std::vector<uint64_t> spread_scratch_;
};

}  // namespace

double GrrOracle::KeepProbability(double epsilon, std::size_t domain) {
  const double e = std::exp(epsilon);
  return e / (e + static_cast<double>(domain) - 1.0);
}

double GrrOracle::LieProbability(double epsilon, std::size_t domain) {
  const double e = std::exp(epsilon);
  return 1.0 / (e + static_cast<double>(domain) - 1.0);
}

std::unique_ptr<FoSketch> GrrOracle::CreateSketch(
    const FoParams& params) const {
  ValidateFoParams(params);
  return std::make_unique<GrrSketch>(
      params, KeepProbability(params.epsilon, params.domain),
      LieProbability(params.epsilon, params.domain));
}

double GrrOracle::Variance(double epsilon, uint64_t n, std::size_t domain,
                           double f) const {
  // Fixed-composition cohort: the f*n users holding value k each report k
  // with probability p, the rest with probability q, so
  //   Var(c'[k]) = n [f p(1-p) + (1-f) q(1-q)],
  // and the estimator divides by (p - q). This expands exactly to the
  // paper's Eq. (2): (d-2+e^eps)/(n(e^eps-1)^2) + f(d-2)/(n(e^eps-1)).
  const double p = KeepProbability(epsilon, domain);
  const double q = LieProbability(epsilon, domain);
  const double numer = f * p * (1.0 - p) + (1.0 - f) * q * (1.0 - q);
  return numer / (static_cast<double>(n) * (p - q) * (p - q));
}

double GrrOracle::MeanVariance(double epsilon, uint64_t n,
                               std::size_t domain) const {
  // (1/d) sum_k Var is exactly Variance at the mean frequency f = 1/d,
  // because Var is affine in f.
  return Variance(epsilon, n, domain, 1.0 / static_cast<double>(domain));
}

std::size_t GrrOracle::BytesPerReport(std::size_t domain) const {
  // One value index; 1, 2 or 4 bytes depending on domain size.
  if (domain <= 256) return 1;
  if (domain <= 65536) return 2;
  return 4;
}

}  // namespace ldpids
