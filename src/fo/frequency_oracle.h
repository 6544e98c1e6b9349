// LDP frequency oracles (FO) — the building block of every LDP-IDS
// mechanism (paper Section 3.4).
//
// An FO protocol lets an untrusted server estimate the frequency of every
// value in a categorical domain Omega (|Omega| = d) from users' locally
// perturbed reports, under epsilon-LDP. The library ships five oracles:
//
//   * GRR — Generalized Randomized Response (the paper's running example),
//   * OUE — Optimized Unary Encoding (Wang et al., USENIX Security 2017),
//   * OLH — Optimized Local Hashing (ibid.),
//   * SUE — Symmetric Unary Encoding (basic RAPPOR),
//   * HR  — Hadamard Response,
//
// all behind one interface so the stream mechanisms are FO-agnostic, exactly
// like the paper's abstract V(eps, n) variance notation.
//
// Every oracle's server state is one additive count vector of domain()
// entries plus the user count, and every estimator is affine in
// counts / n. FoSketch therefore owns that state and implements merging,
// export/absorb and estimation once; an oracle supplies its client and
// ingest paths and, when it defers per-report work, a Resolve() hook.
//
// Two simulation paths:
//   * `FoSketch::AddUser(v, rng)` performs the exact client-side protocol for
//     one user — what a real deployment would run on-device.
//   * `FoSketch::AddCohort(counts, rng)` draws the server-side aggregate
//     directly from its sampling distribution given the cohort's true-value
//     counts (binomial/multinomial composition). This is distribution-
//     equivalent per bin and O(d)-O(d^2) instead of O(n).
#ifndef LDPIDS_FO_FREQUENCY_ORACLE_H_
#define LDPIDS_FO_FREQUENCY_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fo/wire.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids {

struct ArenaSlice;  // fo/report_arena.h

// Perturbation/aggregation parameters of one FO collection round.
struct FoParams {
  double epsilon = 1.0;    // LDP budget of each participating user
  std::size_t domain = 2;  // |Omega|
};

// Server-side aggregation state for one collection round. Create one sketch
// per round, feed it users (or cohorts), then call Estimate().
class FoSketch {
 public:
  virtual ~FoSketch() = default;

  // Simulates one user running the client-side protocol with true value
  // `v` (in [0, domain)) and folds the report into the sketch.
  virtual void AddUser(uint32_t true_value, Rng& rng) = 0;

  // Folds an entire cohort described by its per-value true counts. Drawn
  // from the same per-bin distribution AddUser would induce, in O(d)-O(d^2).
  virtual void AddCohort(const Counts& true_counts, Rng& rng) = 0;

  // Batched ingestion of a timestamp's worth of users: equivalent in
  // distribution to calling AddUser for every element of `values`. Tiny
  // batches run the exact per-user protocol; larger ones are tallied and,
  // when the oracle's cost model says the cohort sampling path wins
  // (CohortPaysOff), folded via AddCohort — turning per-timestamp ingestion
  // cost from O(n * per-user-cost) into O(n + cohort-cost).
  void AddUsers(const std::vector<uint32_t>& values, Rng& rng);

  // Online ingestion: folds one decoded wire report (fo/wire.h) into the
  // sketch. This is the pure server side of the protocol — no RNG, just
  // bookkeeping over what a real client sent. Returns false without
  // mutating the sketch when the report does not belong here (different
  // oracle, wrong bit-vector width, bucket/column out of range); the
  // serving layer counts such rejects instead of crashing or throwing.
  virtual bool AddReport(const DecodedReport& report) = 0;

  // Batched online ingestion over columnar-staged rows (fo/report_arena.h):
  // folds the slice's rows in order, with results bit-identical to calling
  // AddReport on each row's reconstructed report. The caller must pass only
  // rows this sketch accepts — matching oracle and in_range payloads; the
  // ingest edge guarantees that by filtering on the arena's in_range column
  // after duplicate rejection — so every row is folded unconditionally
  // (std::logic_error if a row violates the contract). The base
  // implementation is the scalar reference loop; the oracles override it
  // with vectorized column kernels pinned against it in fo_kernel_test.
  virtual void AddReports(const ArenaSlice& slice);

  // Finishes the per-report work an oracle defers (OLH's O(d) support
  // scan, HR's FWHT batch) by folding it into the resolved count vector,
  // and returns how many reports it folded (0 when nothing was pending;
  // oracles that fold eagerly always return 0). Every read of the counts
  // below resolves first, so calling this is never needed for
  // correctness — it only chooses *where* the work runs. The serving
  // layer calls it at the end of each shard's fold, on that shard's pool
  // lane (service/ingest.h), so the session's estimate never scans.
  // Resolution is pure integer bookkeeping (no RNG): when it runs never
  // changes a count.
  virtual uint64_t Resolve() const { return 0; }

  // Shard-reduce: folds another sketch of the same oracle and parameters
  // into this one, as if its users had reported here directly — exactly
  // AbsorbCounts of the peer's resolved counts. Because all sketch state
  // is additive integer counts, merging K shards yields bit-identical
  // estimates to single-sketch ingestion of the same reports no matter
  // how they were partitioned. Throws std::invalid_argument when `other`
  // is this sketch, a different oracle, or was created with different
  // FoParams (epsilon compared exactly).
  void MergeFrom(const FoSketch& other);

  // Assigns this sketch's *resolved* additive count vector (domain()
  // elements) to `*out`, resolving any deferred per-report state first.
  // Together with num_users() this is the sketch's complete merge state:
  // it is the serialization boundary of the distributed merge tree
  // (fo/sketch_wire.h).
  void ExportResolvedCounts(Counts* out) const;

  // Exact inverse of ExportResolvedCounts for merging: adds `counts`
  // (`count` elements) and `num_users` into this sketch. Absorbing a
  // peer sketch's exported counts is bit-identical to MergeFrom(peer) —
  // all state is additive integers, so resolution order cannot matter.
  // Returns false without mutating the sketch when `count` != domain()
  // (the serving edge counts such rejects instead of throwing, like
  // AddReport).
  bool AbsorbCounts(const uint64_t* counts, std::size_t count,
                    uint64_t num_users);

  // Writes the unbiased frequency estimates for all d values into `*out`
  // (resized to domain()), reusing the caller's buffer across rounds:
  //   est[k] = (counts[k] / n - q) / denom
  // with the oracle's (q, denom) (fo/fo_kernels.h EstimateAffine).
  // Requires at least one user; throws std::logic_error otherwise.
  void EstimateInto(Histogram* out) const;

  // Allocating convenience wrapper around EstimateInto.
  Histogram Estimate() const {
    Histogram out;
    EstimateInto(&out);
    return out;
  }

  // |Omega| this sketch aggregates over.
  std::size_t domain() const { return params_.domain; }

  uint64_t num_users() const { return num_users_; }

 protected:
  // `q` and `denom` are the oracle's affine estimator constants (see
  // EstimateInto). `params` must already be validated.
  FoSketch(const FoParams& params, double q, double denom);

  // Cost-model hook for AddUsers: given a tallied batch of `batch_size`
  // users, should the sketch fold it via AddCohort instead of replaying the
  // per-user protocol? The default says yes, which is right for oracles
  // whose per-user simulation is Theta(d) (OUE, SUE, OLH, HR) — their whole
  // cohort costs about two binomials per bin. GRR overrides it: its client
  // is O(1) per user while its cohort pays an O(d) multinomial spread per
  // nonzero bin, so cohort sampling only wins for concentrated batches.
  virtual bool CohortPaysOff(std::size_t batch_size,
                             const Counts& true_counts) const {
    (void)batch_size;
    (void)true_counts;
    return true;
  }

  // The resolved additive count vector, domain() entries: report counts
  // (GRR), one-bit counts (OUE, SUE) or support counts (OLH, HR). Mutable
  // so a const read can resolve deferred work into it first — caching,
  // not observable behaviour.
  mutable Counts counts_;
  uint64_t num_users_ = 0;

 private:
  FoParams params_;
  double q_;
  double denom_;
};

// Stateless factory + analytic formulas for one FO protocol. Instances are
// process-lifetime singletons obtained via GetFrequencyOracle().
class FrequencyOracle {
 public:
  virtual ~FrequencyOracle() = default;

  virtual std::string name() const = 0;

  // New aggregation sketch for one round. `params.domain` >= 2 and
  // `params.epsilon` > 0 are required.
  virtual std::unique_ptr<FoSketch> CreateSketch(
      const FoParams& params) const = 0;

  // Exact estimation variance of one bin whose true frequency is `f`, from
  // `n` users with budget `epsilon` over a domain of size `domain`.
  // For GRR this expands to the paper's Eq. (2).
  virtual double Variance(double epsilon, uint64_t n, std::size_t domain,
                          double f) const = 0;

  // The paper's V(eps, n): mean per-bin variance (1/d) sum_k Var(c[k]) under
  // sum_k f_k = 1. Since Variance() is affine in f for all shipped oracles,
  // this equals Variance at f = 1/d exactly. It is the quantity the adaptive
  // mechanisms use as the potential publication error `err` (Eq. 6), which
  // is deliberately independent of the unknown data.
  virtual double MeanVariance(double epsilon, uint64_t n,
                              std::size_t domain) const = 0;

  // Size of one perturbed report on the wire, for communication accounting.
  virtual std::size_t BytesPerReport(std::size_t domain) const = 0;
};

// Returns the singleton oracle with the given name ("GRR", "OUE", "OLH";
// case-insensitive). Throws std::invalid_argument for unknown names.
const FrequencyOracle& GetFrequencyOracle(const std::string& name);

// Names of all registered oracles, for parameterized tests and sweeps.
std::vector<std::string> AllFrequencyOracleNames();

// Validates FoParams; throws std::invalid_argument on bad input. Shared by
// the concrete oracles.
void ValidateFoParams(const FoParams& params);

}  // namespace ldpids

#endif  // LDPIDS_FO_FREQUENCY_ORACLE_H_
