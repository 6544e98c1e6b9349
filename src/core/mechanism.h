// Stream-mechanism interface for w-event LDP release (paper Sections 4-6).
//
// A `StreamMechanism` processes one timestamp at a time: it pulls the
// aggregate of every collection round it performs from a
// `CollectorContext` (core/collector.h) and produces the server-side
// release r_t. In offline simulation the context is a `DatasetCollector`
// (ground truth through a `StreamDataset`, which stands in for the
// distributed users); in online serving (src/service/) it is backed by
// sharded wire-report ingestion, so the server only ever sees perturbed
// reports. The same mechanisms run over a trusted aggregator's Laplace
// release (cdp/laplace.h) and over numeric mean reports
// (mean/mean_stream.h). Over an FO, every mechanism guarantees w-event
// epsilon-LDP:
//
//   * budget-division mechanisms (LBU, LSP, LBD, LBA) make each user report
//     at every timestamp but with per-timestamp budgets summing to <= eps in
//     any window of w timestamps (Theorem 5.1);
//   * population-division mechanisms (LPU, LPD, LPA) let each user report at
//     most once per window, with the full budget eps (Theorem 6.2).
//
// Both invariants are enforced at runtime by `BudgetLedger` and
// `PopulationManager` respectively — a buggy mechanism throws instead of
// silently over-spending privacy.
#ifndef LDPIDS_CORE_MECHANISM_H_
#define LDPIDS_CORE_MECHANISM_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/collector.h"
#include "core/postprocess.h"
#include "fo/frequency_oracle.h"
#include "stream/dataset.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids {

// Configuration shared by all mechanisms.
struct MechanismConfig {
  double epsilon = 1.0;    // total w-event LDP budget
  std::size_t window = 20;  // w
  std::string fo = "GRR";  // frequency oracle (GRR | OUE | SUE | OLH | HR)
  uint64_t seed = 7;       // mechanism RNG seed

  // LPD's minimal publication-cohort size u_min (Alg. 3 line 10). With the
  // exponential population decay, N_pp can shrink below any useful size;
  // publications are suppressed once it does. LPA ignores it: absorption
  // never proposes fewer than N/(2w) users.
  uint64_t min_publication_users = 1;

  // When true, users are simulated individually through the full client
  // protocol (FoSketch::AddUser). When false (default), the server-side
  // aggregate is drawn from its exact per-bin distribution in O(d) per round
  // (FoSketch::AddCohort) — see the two simulation paths in
  // fo/frequency_oracle.h.
  bool per_user_simulation = false;

  // Consistency post-processing applied to every release (privacy-free by
  // the post-processing theorem); see core/postprocess.h. The processed
  // release is also what the adaptive mechanisms compare against in the
  // next dissimilarity estimate.
  PostProcess post_process = PostProcess::kNone;
};

// Output of one timestamp.
struct StepResult {
  Histogram release;        // r_t
  bool published = false;   // fresh publication (vs approximation)
  uint64_t messages = 0;    // user->server reports sent at this timestamp
};

// Output of a whole run.
struct RunResult {
  std::vector<Histogram> releases;
  std::vector<bool> published;
  uint64_t total_messages = 0;
  uint64_t num_publications = 0;
  uint64_t num_users = 0;
  std::size_t timestamps = 0;

  // Communication frequency per user per timestamp (paper Section 5.4.3):
  // average number of reports each user sends per timestamp.
  double Cfpu() const;
};

class StreamMechanism {
 public:
  virtual ~StreamMechanism() = default;

  virtual std::string name() const = 0;

  // Session API: processes the next timestamp, pulling every FO aggregate
  // it needs from `ctx`. Must be called with t = 0, 1, 2, ... in order
  // (throws std::logic_error otherwise). `ctx.num_users()` must match the
  // population the mechanism was created for, and `ctx.domain()` must stay
  // constant across the stream. This is what the online serving layer
  // (src/service/) drives one timestamp at a time.
  StepResult Step(CollectorContext& ctx, std::size_t t);

  // Offline convenience: simulates the collection rounds from `data`'s
  // ground truth via a DatasetCollector over this mechanism's FO.
  StepResult Step(const StreamDataset& data, std::size_t t);

  // Runs over `data` from t = 0 to min(length, max_timestamps) - 1. A thin
  // adapter over the session API: one DatasetCollector drives every Step,
  // producing bit-identical results to the historical fused loop.
  RunResult Run(const StreamDataset& data,
                std::size_t max_timestamps =
                    std::numeric_limits<std::size_t>::max());

  // Session-driven run: `steps` timestamps pulled from `ctx`.
  RunResult Run(CollectorContext& ctx, std::size_t steps);

  const MechanismConfig& config() const { return config_; }
  uint64_t num_users() const { return num_users_; }
  const Histogram& last_release() const { return last_release_; }

 protected:
  StreamMechanism(MechanismConfig config, uint64_t num_users);

  // Mechanism-specific logic for one timestamp; every FO aggregate is
  // pulled through `ctx`, never from ground truth directly.
  virtual StepResult DoStep(CollectorContext& ctx, std::size_t t) = 0;

  // Runs one collection round with budget `epsilon` at timestamp `t`,
  // handing `ctx` this mechanism's RNG. If `subset` is null the whole
  // population reports (budget division); otherwise only the listed users
  // do (population division). Writes the unbiased estimate into `*out`
  // (resized to the domain, so mechanisms reuse one release/estimate
  // buffer across timestamps) and the number of reporters into `*n_out`.
  void CollectViaFo(CollectorContext& ctx, std::size_t t, double epsilon,
                    const std::vector<uint32_t>* subset, uint64_t* n_out,
                    Histogram* out);

  const MechanismConfig config_;
  const FrequencyOracle& fo_;
  const uint64_t num_users_;
  Rng rng_;
  Histogram last_release_;   // r_{t-1}; zeros before the first release
  std::size_t next_t_ = 0;
  std::size_t domain_ = 0;   // latched from the collector on first Step
};

}  // namespace ldpids

#endif  // LDPIDS_CORE_MECHANISM_H_
