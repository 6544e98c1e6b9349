#include "core/budget_ledger.h"

#include <cstddef>
#include <stdexcept>

namespace ldpids {

namespace {
// Floating-point slack for the invariant check: budget arithmetic chains w
// additions, so allow a relative 1e-9 margin.
constexpr double kTolerance = 1e-9;
}  // namespace

BudgetLedger::BudgetLedger(double total, std::size_t w)
    : total_(total), dis_(w), pub_(w) {
  if (!(total > 0.0)) {
    throw std::invalid_argument("ledger total must be positive");
  }
}

double BudgetLedger::PublicationSpentInActiveWindow() const {
  return pub_.SumLastWMinus1();
}

void BudgetLedger::Record(double dissimilarity, double publication) {
  if (dissimilarity < 0.0 || publication < 0.0) {
    throw std::logic_error("negative privacy budget recorded");
  }
  dis_.Push(dissimilarity);
  pub_.Push(publication);
  if (WindowSpent() > total_ * (1.0 + kTolerance)) {
    throw std::logic_error(
        "w-event budget invariant violated: window spend exceeds the total");
  }
}

}  // namespace ldpids
