#include "core/factory.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "core/lbu.h"
#include "core/lpu.h"
#include "core/lsp.h"

namespace ldpids {

std::unique_ptr<StreamMechanism> CreateMechanism(const std::string& name,
                                                 const MechanismConfig& config,
                                                 uint64_t num_users) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (upper == "LBU") return std::make_unique<LbuMechanism>(config, num_users);
  if (upper == "LSP") return std::make_unique<LspMechanism>(config, num_users);
  if (upper == "LPU") return std::make_unique<LpuMechanism>(config, num_users);
  const auto adaptive = [&](Division division, Schedule schedule) {
    return std::make_unique<AdaptiveMechanism>(division, schedule, config,
                                               num_users);
  };
  using enum Division;
  using enum Schedule;
  if (upper == "LBD") return adaptive(kBudget, kDistribution);
  if (upper == "LBA") return adaptive(kBudget, kAbsorption);
  if (upper == "LPD") return adaptive(kPopulation, kDistribution);
  if (upper == "LPA") return adaptive(kPopulation, kAbsorption);
  throw std::invalid_argument("unknown mechanism: " + name);
}

std::vector<std::string> AllMechanismNames() {
  return {"LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA"};
}

}  // namespace ldpids
