// Collection-round abstraction — the seam between stream mechanisms and
// whatever supplies their aggregates.
//
// A mechanism's per-timestamp logic (budget allocation, publish-vs-
// approximate decisions) needs only the *result* of each collection
// round: an unbiased estimate, the number of reporters, and the variance
// V(eps, n) of such an estimate. Where those come from is the collector's
// business, so one set of w-event mechanisms serves every estimator:
//
//   * offline simulation — `DatasetCollector` simulates the cohort's FO
//     reports from a `StreamDataset`'s ground truth (same RNG stream, same
//     sketch paths as the pre-session code), so `Run` over a dataset
//     stays bit-identical to the historical results;
//   * online serving — `service::MechanismSession` implements the same
//     interface over sharded wire-report ingestion (src/service/), where
//     the server only ever sees perturbed packets;
//   * a trusted aggregator — `LaplaceCollector` (cdp/laplace.h) releases
//     the true histogram plus Laplace noise, so LBU/LSP/LBD/LBA are the
//     CDP baselines Uniform/Sampling/BD/BA (Kellaris et al.);
//   * numeric streams — `MeanCollector` (mean/mean_stream.h) returns
//     Duchi one-bit mean estimates as a 1-bin release, the paper's
//     footnote 2 ("the query type is orthogonal").
#ifndef LDPIDS_CORE_COLLECTOR_H_
#define LDPIDS_CORE_COLLECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fo/frequency_oracle.h"
#include "stream/dataset.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids {

// Supplies the server-side FO aggregate for each collection round a
// mechanism performs. One context drives one mechanism for the lifetime of
// a stream: `domain()` and `num_users()` must stay constant.
class CollectorContext {
 public:
  virtual ~CollectorContext() = default;

  virtual std::size_t domain() const = 0;
  virtual uint64_t num_users() const = 0;

  // Runs one collection round at timestamp `t` with per-user budget
  // `epsilon`. `subset == nullptr` means the whole population reports
  // (budget division); otherwise only the listed users do (population
  // division). A simulating collector draws its randomness from `rng`,
  // the calling mechanism's generator, so a run's draw order is the
  // mechanism's alone. Writes the unbiased estimate into `*out` (resized
  // to domain()) and the number of reporters into `*n_out` when non-null.
  virtual void Collect(std::size_t t, double epsilon,
                       const std::vector<uint32_t>* subset, Rng& rng,
                       uint64_t* n_out, Histogram* out) = 0;

  // The paper's V(eps, n): the mean per-bin variance of an estimate that
  // Collect returns from `n` reporters at budget `epsilon`.
  virtual double MeanVariance(double epsilon, uint64_t n) const = 0;

  // Pipelining hint: the mechanism declares that its next Collect call —
  // possibly at a later timestamp — will be exactly (t, epsilon, whole
  // population). A pipelined collector (service::MechanismSession with
  // SessionOptions::pipeline_depth > 1) announces that round immediately,
  // so its client production, network transit and ingest folding overlap
  // the current round's EstimateInto and the mechanism's post-processing;
  // serial collectors ignore the hint, so offline simulation results are
  // untouched.
  //
  // A plan is a commitment, not a guess: announcing a round makes real
  // users spend real privacy budget, so a mechanism may only plan a round
  // it will unconditionally perform, and the next Collect must match the
  // plan exactly (a pipelined collector fails the session otherwise).
  // Only whole-population rounds are plannable — a cohort sampled from the
  // mechanism's RNG mid-step cannot be known ahead of the step. The
  // budget-division mechanisms plan their fixed-budget dissimilarity (or
  // only) round; the population-division mechanisms never plan.
  virtual void PlanNextCollect(std::size_t t, double epsilon) {
    (void)t;
    (void)epsilon;
  }
};

// Offline adapter: simulates each FO collection round from a
// StreamDataset's ground truth, drawing from the mechanism's RNG so the
// draw order — and therefore every released histogram — matches the
// pre-session code path bit for bit.
class DatasetCollector final : public CollectorContext {
 public:
  // `per_user_simulation` selects FoSketch::AddUser per user versus the
  // O(d) AddCohort aggregate draw (MechanismConfig::per_user_simulation).
  DatasetCollector(const StreamDataset& data, const FrequencyOracle& fo,
                   bool per_user_simulation);

  std::size_t domain() const override { return data_.domain(); }
  uint64_t num_users() const override { return data_.num_users(); }

  void Collect(std::size_t t, double epsilon,
               const std::vector<uint32_t>* subset, Rng& rng,
               uint64_t* n_out, Histogram* out) override;

  double MeanVariance(double epsilon, uint64_t n) const override {
    return fo_.MeanVariance(epsilon, n, data_.domain());
  }

 private:
  const StreamDataset& data_;
  const FrequencyOracle& fo_;
  const bool per_user_simulation_;
  Counts subset_counts_scratch_;  // reused by the cohort path
};

}  // namespace ldpids

#endif  // LDPIDS_CORE_COLLECTOR_H_
