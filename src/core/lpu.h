// LPU — LDP Population Uniform method (paper Section 6.1).
//
// The population-division counterpart of LBU: the N users are divided into
// w disjoint groups of ~N/w; at each timestamp one fresh group reports with
// the *entire* budget eps, and groups rotate so nobody reports twice within
// a window. MSE_LPU = V(eps, N/w), which Theorem 6.1 proves strictly smaller
// than LBU's V(eps/w, N) for GRR/OUE — population division costs O(1/n)
// where budget division costs O((e^eps - 1)^{-2}).
//
// Communication drops w-fold as well: only N/w users upload per timestamp.
#ifndef LDPIDS_CORE_LPU_H_
#define LDPIDS_CORE_LPU_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/mechanism.h"
#include "core/population_manager.h"

namespace ldpids {

class LpuMechanism final : public StreamMechanism {
 public:
  // Requires num_users >= window (each timestamp needs a non-empty group).
  LpuMechanism(MechanismConfig config, uint64_t num_users);

  std::string name() const override { return "LPU"; }

 protected:
  StepResult DoStep(CollectorContext& ctx, std::size_t t) override;

 private:
  // Delegation target: `window` was validated against `num_users` before
  // the base class or the PopulationManager is built.
  LpuMechanism(std::size_t window, MechanismConfig&& config,
               uint64_t num_users);

  PopulationManager population_;
};

}  // namespace ldpids

#endif  // LDPIDS_CORE_LPU_H_
