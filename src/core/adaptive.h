// LBD, LBA, LPD and LPA — the paper's adaptive mechanisms (Algs. 1-4) as
// one step over a divided resource and a publication schedule.
//
// Each window's w-event guarantee divides a resource between its
// timestamps: the budget eps (every user reports at every timestamp with a
// share of it, Theorem 5.1) or the population N (each user reports at most
// once per window with the full eps, Theorem 6.2). Half of the resource
// pays for dissimilarity estimation, one fixed unit per timestamp: eps/(2w)
// of budget, or floor(N/(2w)) users. The other half pays for publications,
// handed out by a schedule:
//
//   * distribution (Algs. 1, 3): a publication takes half of what the
//     active window has left, so successive publications decay
//     exponentially (eps/4, eps/8, ... or N/4, N/8, ... users);
//   * absorption (Algs. 2, 4): a publication absorbs the unit of every
//     timestamp skipped since the last one (at most w), then the following
//     t_N = spent/unit - 1 timestamps are nullified to repay the loan.
//
// Every timestamp runs the same step. M_{t,1} collects one unit and forms
// the unbiased dissimilarity estimate dis against r_{t-1} (Theorem 5.2).
// M_{t,2} asks the schedule for a publication amount and compares dis with
// the potential publication error err = V(eps', n') of a round spending
// it; if dis > err a fresh estimate is released, otherwise r_{t-1} is
// republished and nothing is spent. Under population division err shrinks
// only as O(1/n') where budget division's grows as O((e^{eps'} - 1)^{-2}),
// the paper's core insight (Section 6.1); absorption keeps the m-th
// publication's share at Theta((w+m)/(wm)) instead of 2^{-(m+1)} (Section
// 5.4.2), so LPA is the best of the four.
//
// One `BudgetLedger` records the resource spent per timestamp for both
// divisions (eps, or users against a total of N) and throws if a window
// ever exceeds it; population division also draws every cohort from a
// `PopulationManager`, which recycles users once their timestamp leaves
// the window and throws if one reports twice within it.
#ifndef LDPIDS_CORE_ADAPTIVE_H_
#define LDPIDS_CORE_ADAPTIVE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/budget_ledger.h"
#include "core/mechanism.h"
#include "core/population_manager.h"

namespace ldpids {

// The resource a window's w-event guarantee divides between timestamps.
enum class Division { kBudget, kPopulation };

// How the publication half of that resource reaches publications.
enum class Schedule { kDistribution, kAbsorption };

class AdaptiveMechanism final : public StreamMechanism {
 public:
  // LBD = (kBudget, kDistribution), LBA = (kBudget, kAbsorption),
  // LPD = (kPopulation, kDistribution), LPA = (kPopulation, kAbsorption).
  // Population division requires num_users >= 2 * window, so every
  // timestamp has at least one dissimilarity user.
  AdaptiveMechanism(Division division, Schedule schedule,
                    MechanismConfig config, uint64_t num_users);

  std::string name() const override;

 protected:
  StepResult DoStep(CollectorContext& ctx, std::size_t t) override;

 private:
  // The amount of the resource the schedule proposes to publish with at
  // t; 0 when t must approximate.
  double ProposedAmount(std::size_t t) const;

  // The division's two mappings from an amount to a collection round: its
  // per-user budget (the amount itself, or eps), and its cohort — everyone
  // (null), or `amount` users drawn from the pool into `cohort_`.
  double RoundEpsilon(double amount) const;
  uint64_t RoundUsers(double amount) const;
  const std::vector<uint32_t>* DrawCohort(double amount);

  const Division division_;
  const Schedule schedule_;
  const double unit_;  // dissimilarity round: eps/(2w), or floor(N/(2w))
  BudgetLedger ledger_;  // resource spent per timestamp
  std::optional<PopulationManager> population_;  // population division
  std::vector<uint32_t> cohort_;  // the latest population cohort
  // Absorption: the last publication's timestamp (-1 before the first one)
  // and the resource it spent.
  std::int64_t last_publication_ = -1;
  double last_publication_amount_ = 0.0;
  Histogram dis_estimate_;  // M_{t,1} scratch, reused across timestamps
};

}  // namespace ldpids

#endif  // LDPIDS_CORE_ADAPTIVE_H_
