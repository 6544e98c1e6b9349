// Runtime accounting of the resource a window's w-event guarantee divides.
//
// Theorem 5.1 reduces w-event LDP to: for every user and every timestamp i,
// sum_{tau = i-w+1}^{i} eps_tau <= eps. Budget-division mechanisms make all
// users report identically, so one ledger covers everyone. The ledger
// records the (dissimilarity, publication) budget spent at each timestamp
// and *throws* if any window ever exceeds the total — turning the privacy
// proof (Theorem 5.3) into an executable assertion. Population-division
// mechanisms (core/adaptive.h) record users instead, against a total of N:
// the same window sums drive their publication schedule, while
// `PopulationManager` enforces that no user reports twice in a window.
#ifndef LDPIDS_CORE_BUDGET_LEDGER_H_
#define LDPIDS_CORE_BUDGET_LEDGER_H_

#include <cstddef>

#include "stream/window.h"

namespace ldpids {

class BudgetLedger {
 public:
  // `total` is the w-event budget (or the population N, when counting
  // users); `w` the window size.
  BudgetLedger(double total, std::size_t w);

  // Publication budget spent in the last w-1 recorded timestamps — the
  // quantity Algs. 1 and 3 line 7 subtract when computing what remains at
  // the *next* timestamp.
  double PublicationSpentInActiveWindow() const;

  // Records what the current timestamp spent and checks the w-event
  // invariant; throws std::logic_error on violation.
  void Record(double dissimilarity, double publication);

  double total() const { return total_; }
  std::size_t timestamps() const { return pub_.pushes(); }

  // Window sums over the last min(w, t) recorded timestamps.
  double WindowSpent() const { return dis_.Sum() + pub_.Sum(); }
  double WindowPublicationSpent() const { return pub_.Sum(); }

 private:
  double total_;
  SlidingWindowSum dis_;
  SlidingWindowSum pub_;
};

}  // namespace ldpids

#endif  // LDPIDS_CORE_BUDGET_LEDGER_H_
