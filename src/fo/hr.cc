#include "fo/hr.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fo/fo_kernels.h"
#include "fo/report_arena.h"
#include "fo/wire.h"
#include "util/distributions.h"

namespace ldpids {

namespace {

// H[row][col] = +1 iff popcount(row & col) is even.
inline bool HadamardPositive(uint64_t row, uint64_t col) {
  return HrOracle::HadamardPositive(row, col);
}

class HrSketch final : public FoSketch {
 public:
  HrSketch(const FoParams& params, double p)
      : FoSketch(params, 0.5, p - 0.5),
        d_(params.domain),
        k_(HrOracle::HadamardSize(params.domain)),
        p_(p),
        pending_columns_(k_, 0) {}

  void AddUser(uint32_t true_value, Rng& rng) override {
    if (true_value >= d_) throw std::out_of_range("HR value out of domain");
    const uint64_t row = static_cast<uint64_t>(true_value) + 1;
    const bool want_positive = rng.Bernoulli(p_);
    // Rejection-sample a uniform column of the wanted sign; each Hadamard
    // row (other than row 0) has exactly K/2 columns of each sign, so the
    // expected number of draws is 2.
    uint64_t y;
    do {
      y = rng.UniformInt(k_);
    } while (HadamardPositive(row, y) != want_positive);
    // Server side: O(1) — just count the column. The per-value support
    // ("all v whose row is positive at y", formerly an O(d) popcount sweep
    // per report) falls out of one Walsh–Hadamard transform of the column
    // histogram at resolve time; see Resolve.
    TallyColumn(y);
    ++num_users_;
  }

  void AddCohort(const Counts& true_counts, Rng& rng) override {
    if (true_counts.size() != d_) {
      throw std::invalid_argument("HR cohort domain mismatch");
    }
    uint64_t n = 0;
    for (uint64_t m : true_counts) n += m;
    // Per-bin marginals: own users support with probability p, all other
    // users with probability exactly 1/2.
    for (std::size_t v = 0; v < d_; ++v) {
      counts_[v] += SampleBinomial(rng, true_counts[v], p_) +
                    SampleBinomial(rng, n - true_counts[v], 0.5);
    }
    num_users_ += n;
  }

  bool AddReport(const DecodedReport& report) override {
    if (report.oracle != OracleId::kHr) return false;
    if (report.hr.column >= k_) return false;
    TallyColumn(report.hr.column);
    ++num_users_;
    return true;
  }

  void AddReports(const ArenaSlice& slice) override {
    // Columns arrive pre-checked (< K) via the arena's in_range flag.
    const uint32_t* columns = slice.arena->hr_columns();
    if (slice.indices == nullptr) {
      for (std::size_t i = 0; i < slice.count; ++i) {
        ++pending_columns_[columns[i]];
      }
    } else {
      for (std::size_t i = 0; i < slice.count; ++i) {
        ++pending_columns_[columns[slice.indices[i]]];
      }
    }
    pending_count_ += slice.count;
    num_users_ += slice.count;
  }

  // Folds the pending column histogram into the support counts via one
  // unnormalized Walsh–Hadamard transform. For a batch of m reported
  // columns with histogram a[], W = FWHT(a) gives
  //   W[r] = sum_c a[c] * (-1)^popcount(r & c) = (#positive) - (#negative)
  // at row r, so the support gained by value v (#columns where row v+1 is
  // positive) is exactly (m + W[v+1]) / 2 — an integer, since m and W[r]
  // always share parity. This replaces m O(d) per-report sweeps with one
  // O(K log K) transform, exactly, in int64 (|W[r]| <= m).
  uint64_t Resolve() const override {
    const uint64_t resolved = pending_count_;
    if (resolved == 0) return 0;
    fwht_scratch_ = pending_columns_;
    fokernels::Fwht(fwht_scratch_.data(), k_);
    const int64_t m = static_cast<int64_t>(resolved);
    for (std::size_t v = 0; v < d_; ++v) {
      counts_[v] += static_cast<uint64_t>((m + fwht_scratch_[v + 1]) / 2);
    }
    std::fill(pending_columns_.begin(), pending_columns_.end(), int64_t{0});
    pending_count_ = 0;
    return resolved;
  }

 private:
  void TallyColumn(uint64_t column) {
    ++pending_columns_[column];
    ++pending_count_;
  }

  std::size_t d_;
  uint64_t k_;
  double p_;
  // Mutable: resolution from a const read is caching, not observable
  // behaviour (see FoSketch::counts_).
  mutable std::vector<int64_t> pending_columns_;
  mutable uint64_t pending_count_ = 0;
  mutable std::vector<int64_t> fwht_scratch_;
};

}  // namespace

bool HrOracle::HadamardPositive(uint64_t row, uint64_t column) {
  return (std::popcount(row & column) & 1) == 0;
}

uint64_t HrOracle::HadamardSize(std::size_t domain) {
  uint64_t k = 2;
  while (k <= domain) k <<= 1;
  return k;
}

double HrOracle::KeepProbability(double epsilon) {
  const double e = std::exp(epsilon);
  return e / (e + 1.0);
}

std::unique_ptr<FoSketch> HrOracle::CreateSketch(
    const FoParams& params) const {
  ValidateFoParams(params);
  return std::make_unique<HrSketch>(params, KeepProbability(params.epsilon));
}

double HrOracle::Variance(double epsilon, uint64_t n, std::size_t domain,
                          double f) const {
  (void)domain;
  const double p = KeepProbability(epsilon);
  const double numer = f * p * (1.0 - p) + (1.0 - f) * 0.25;
  return numer / (static_cast<double>(n) * (p - 0.5) * (p - 0.5));
}

double HrOracle::MeanVariance(double epsilon, uint64_t n,
                              std::size_t domain) const {
  return Variance(epsilon, n, domain, 1.0 / static_cast<double>(domain));
}

std::size_t HrOracle::BytesPerReport(std::size_t domain) const {
  // One column index of the K x K Hadamard matrix: log2(K) bits.
  const uint64_t k = HadamardSize(domain);
  return (static_cast<std::size_t>(std::bit_width(k - 1)) + 7) / 8;
}

}  // namespace ldpids
