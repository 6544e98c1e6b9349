#include "fo/olh.h"

#include <algorithm>
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

// Pairwise-uniform hash of value `v` under seed `s` into [0, g).
inline uint64_t HashToBucket(uint64_t seed, uint32_t v, uint64_t g) {
  return OlhOracle::HashToBucket(seed, v, g);
}

class OlhSketch final : public FoSketch {
 public:
  OlhSketch(const FoParams& params, uint64_t g, double p)
      : FoSketch(params, 1.0 / static_cast<double>(g),
                 p - 1.0 / static_cast<double>(g)),
        d_(params.domain),
        g_(g),
        p_(p) {}

  void AddUser(uint32_t true_value, Rng& rng) override {
    if (true_value >= d_) throw std::out_of_range("OLH value out of domain");
    const uint64_t seed = rng.NextU64();
    const uint64_t own_bucket = HashToBucket(seed, true_value, g_);
    uint64_t report = own_bucket;
    if (!rng.Bernoulli(p_)) {
      const uint64_t r = rng.UniformInt(g_ - 1);
      report = (r >= own_bucket) ? r + 1 : r;
    }
    // The server-side support scan is deferred: reports accumulate per seed
    // and are resolved in value-major batches (Resolve), instead of
    // one O(d) hash sweep per user interleaved with the client sampling.
    pending_seeds_.push_back(seed);
    pending_reports_.push_back(report);
    if (pending_seeds_.size() >= kResolveBatch) Resolve();
    ++num_users_;
  }

  void AddCohort(const Counts& true_counts, Rng& rng) override {
    if (true_counts.size() != d_) {
      throw std::invalid_argument("OLH cohort domain mismatch");
    }
    uint64_t n = 0;
    for (uint64_t m : true_counts) n += m;
    const double q = 1.0 / static_cast<double>(g_);
    for (std::size_t k = 0; k < d_; ++k) {
      counts_[k] += SampleBinomial(rng, true_counts[k], p_) +
                    SampleBinomial(rng, n - true_counts[k], q);
    }
    num_users_ += n;
  }

  bool AddReport(const DecodedReport& report) override {
    if (report.oracle != OracleId::kOlh) return false;
    if (report.olh.bucket >= g_) return false;
    // Same deferred value-major resolution as AddUser — resolution is pure
    // bookkeeping, so batching does not change any count.
    pending_seeds_.push_back(report.olh.seed);
    pending_reports_.push_back(report.olh.bucket);
    if (pending_seeds_.size() >= kResolveBatch) Resolve();
    ++num_users_;
    return true;
  }

  void AddReports(const ArenaSlice& slice) override {
    // Rows arrive with bucket < g already checked (the arena's in_range
    // column), so they go straight into the pending columns. One resolve
    // sweep then covers the whole slice plus whatever was already pending.
    const uint64_t* seeds = slice.arena->olh_seeds();
    const uint32_t* buckets = slice.arena->olh_buckets();
    if (slice.indices == nullptr) {
      // Contiguous slice: the arena columns ARE the pending layout, so the
      // append is two bulk copies instead of a per-row gather.
      pending_seeds_.insert(pending_seeds_.end(), seeds, seeds + slice.count);
      pending_reports_.insert(pending_reports_.end(), buckets,
                              buckets + slice.count);
    } else {
      for (std::size_t i = 0; i < slice.count; ++i) {
        const uint32_t row = slice.indices[i];
        pending_seeds_.push_back(seeds[row]);
        pending_reports_.push_back(buckets[row]);
      }
    }
    num_users_ += slice.count;
    if (pending_seeds_.size() >= kResolveBatch) Resolve();
  }

  // Tallies the pending reports into the support counts value-major: the
  // per-value count accumulates in a register while the compact seed/bucket
  // columns are streamed, instead of walking the d-sized count array once
  // per user. The scan itself (SIMD hash + exact `% g` + match count)
  // lives in fokernels::OlhSupportScan and computes precisely
  // HashToBucket(seed, k, g) == bucket per pair.
  uint64_t Resolve() const override {
    const std::size_t resolved = pending_seeds_.size();
    for (std::size_t off = 0; off < resolved; off += kResolveBatch) {
      const std::size_t n = std::min(kResolveBatch, resolved - off);
      fokernels::OlhSupportScan(pending_seeds_.data() + off,
                                pending_reports_.data() + off, n, d_, g_,
                                counts_.data());
    }
    pending_seeds_.clear();
    pending_reports_.clear();
    return resolved;
  }

 private:
  // Batch size for deferred resolution: large enough to amortize the sweep
  // setup, small enough that the pending columns (16 B per report) stay in
  // L1 while every one of the d value sweeps re-reads them. AddReports may
  // grow the batch past this before resolving; Resolve re-chunks the scan
  // to this window so the streamed columns never fall out of L1. Counts
  // are plain integer adds, so the chunking never changes a count.
  static constexpr std::size_t kResolveBatch = 512;

  std::size_t d_;
  uint64_t g_;
  double p_;
  // Not-yet-resolved client reports, struct-of-arrays so the resolve scan
  // streams plain u64 columns. Mutable: resolution from a const read is
  // caching, not observable behaviour (see FoSketch::counts_).
  mutable std::vector<uint64_t> pending_seeds_;
  mutable std::vector<uint64_t> pending_reports_;
};

}  // namespace

uint64_t OlhOracle::HashToBucket(uint64_t seed, uint32_t value, uint64_t g) {
  return HashCounter(seed, value, 0x01F) % g;
}

uint64_t OlhOracle::BucketCount(double epsilon) {
  const uint64_t g =
      static_cast<uint64_t>(std::llround(std::exp(epsilon))) + 1;
  return g < 2 ? 2 : g;
}

double OlhOracle::KeepProbability(double epsilon) {
  const double e = std::exp(epsilon);
  const double g = static_cast<double>(BucketCount(epsilon));
  return e / (e + g - 1.0);
}

std::unique_ptr<FoSketch> OlhOracle::CreateSketch(
    const FoParams& params) const {
  ValidateFoParams(params);
  return std::make_unique<OlhSketch>(params, BucketCount(params.epsilon),
                                     KeepProbability(params.epsilon));
}

double OlhOracle::Variance(double epsilon, uint64_t n, std::size_t domain,
                           double f) const {
  (void)domain;
  const double p = KeepProbability(epsilon);
  const double q = 1.0 / static_cast<double>(BucketCount(epsilon));
  const double numer = f * p * (1.0 - p) + (1.0 - f) * q * (1.0 - q);
  return numer / (static_cast<double>(n) * (p - q) * (p - q));
}

double OlhOracle::MeanVariance(double epsilon, uint64_t n,
                               std::size_t domain) const {
  return Variance(epsilon, n, domain, 1.0 / static_cast<double>(domain));
}

std::size_t OlhOracle::BytesPerReport(std::size_t domain) const {
  (void)domain;
  return 8 + 4;  // 64-bit hash seed + bucket index
}

}  // namespace ldpids
