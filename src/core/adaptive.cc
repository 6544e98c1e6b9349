#include "core/adaptive.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dissimilarity.h"

namespace ldpids {

AdaptiveMechanism::AdaptiveMechanism(Division division, Schedule schedule,
                                     MechanismConfig config,
                                     uint64_t num_users)
    : StreamMechanism(std::move(config), num_users),
      division_(division),
      schedule_(schedule),
      unit_(division == Division::kBudget
                ? config_.epsilon /
                      (2.0 * static_cast<double>(config_.window))
                : static_cast<double>(
                      num_users_ /
                      (2 * static_cast<uint64_t>(config_.window)))),
      ledger_(division == Division::kBudget
                  ? config_.epsilon
                  : static_cast<double>(num_users_),
              config_.window) {
  if (division_ == Division::kPopulation) {
    if (num_users_ < 2 * static_cast<uint64_t>(config_.window)) {
      throw std::invalid_argument(name() + " needs at least 2*w users");
    }
    population_.emplace(num_users_, config_.window);
  }
}

std::string AdaptiveMechanism::name() const {
  std::string name = "L";
  name += division_ == Division::kBudget ? 'B' : 'P';
  name += schedule_ == Schedule::kDistribution ? 'D' : 'A';
  return name;
}

double AdaptiveMechanism::RoundEpsilon(double amount) const {
  return division_ == Division::kBudget ? amount : config_.epsilon;
}

uint64_t AdaptiveMechanism::RoundUsers(double amount) const {
  return division_ == Division::kBudget ? num_users_
                                        : static_cast<uint64_t>(amount);
}

const std::vector<uint32_t>* AdaptiveMechanism::DrawCohort(double amount) {
  if (division_ == Division::kBudget) return nullptr;
  cohort_ = population_->Sample(static_cast<std::size_t>(amount), rng_);
  return &cohort_;
}

double AdaptiveMechanism::ProposedAmount(std::size_t t) const {
  if (schedule_ == Schedule::kDistribution) {
    // What the publication half has left in the active window (line 7),
    // half of it provisionally assigned (line 8).
    const double remaining =
        ledger_.total() / 2.0 - ledger_.PublicationSpentInActiveWindow();
    if (division_ == Division::kBudget) return std::max(0.0, remaining / 2.0);
    // LPD assigns whole users and suppresses cohorts below u_min (Alg. 3
    // line 10).
    const uint64_t users =
        remaining > 0.0 ? static_cast<uint64_t>(remaining / 2.0) : 0;
    return users >= config_.min_publication_users
               ? static_cast<double>(users)
               : 0.0;
  }
  // Absorption. The last publication spent `units` allocations, so the
  // t_N = units - 1 timestamps after it are nullified (line 4): LBA rounds
  // its eps to whole units, LPA floors its reporter count.
  const std::int64_t units =
      division_ == Division::kBudget
          ? static_cast<std::int64_t>(
                std::llround(last_publication_amount_ / unit_))
          : static_cast<std::int64_t>(
                static_cast<uint64_t>(last_publication_amount_) /
                static_cast<uint64_t>(unit_));
  const std::int64_t t_nullified = units - 1;
  const std::int64_t now = static_cast<std::int64_t>(t);
  if (now - last_publication_ <= t_nullified) return 0.0;  // lines 5-6
  // Allocations absorbable since the nullification ended (line 8), capped
  // at w (line 9).
  const std::int64_t t_absorb = now - (last_publication_ + t_nullified);
  return unit_ * static_cast<double>(std::min<std::int64_t>(
                     t_absorb, static_cast<std::int64_t>(config_.window)));
}

StepResult AdaptiveMechanism::DoStep(CollectorContext& ctx, std::size_t t) {
  StepResult result;

  // --- M_{t,1}: private dissimilarity estimation (line 3) ---
  uint64_t n_dis = 0;
  CollectViaFo(ctx, t, RoundEpsilon(unit_), DrawCohort(unit_), &n_dis,
               &dis_estimate_);
  const double dis =
      EstimateDissimilarity(dis_estimate_, last_release_,
                            ctx.MeanVariance(RoundEpsilon(unit_), n_dis));
  result.messages += n_dis;
  if (division_ == Division::kBudget) {
    // t+1 opens with the same fixed-budget whole-population round, so it
    // is announced now: a pipelined collector ingests it while this
    // timestamp's publication, if any, estimates. Population cohorts are
    // drawn mid-step and cannot be announced ahead.
    ctx.PlanNextCollect(t + 1, unit_);
  }

  // --- M_{t,2}: strategy determination and publication ---
  const double amount = ProposedAmount(t);
  double spent = 0.0;
  if (amount > 0.0 &&
      dis > ctx.MeanVariance(RoundEpsilon(amount), RoundUsers(amount))) {
    // Publication strategy, unless the population pool has run dry.
    const std::vector<uint32_t>* cohort = DrawCohort(amount);
    if (cohort == nullptr || !cohort->empty()) {
      uint64_t n_pub = 0;
      CollectViaFo(ctx, t, RoundEpsilon(amount), cohort, &n_pub,
                   &result.release);
      result.published = true;
      result.messages += n_pub;
      // Budget division spends the proposed eps; population division the
      // users who reported.
      spent = division_ == Division::kBudget ? amount
                                             : static_cast<double>(n_pub);
      last_publication_ = static_cast<std::int64_t>(t);
      last_publication_amount_ = spent;
    }
  }
  if (!result.published) {
    // Approximation strategy: r_t = r_{t-1}, nothing spent.
    result.release = last_release_;
  }
  ledger_.Record(division_ == Division::kBudget ? unit_
                                                : static_cast<double>(n_dis),
                 spent);
  // Users taken w - 1 timestamps ago return to the pool (lines 18-20).
  if (population_) population_->EndTimestamp();
  return result;
}

}  // namespace ldpids
