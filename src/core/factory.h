// Name-based construction of stream mechanisms, for sweeps, tests, and the
// benchmark harness.
#ifndef LDPIDS_CORE_FACTORY_H_
#define LDPIDS_CORE_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mechanism.h"

namespace ldpids {

// Creates the mechanism with the given name (LBU, LSP, LBD, LBA, LPU, LPD,
// LPA — case-insensitive) for a population of `num_users`. Throws
// std::invalid_argument for unknown names or invalid configurations.
std::unique_ptr<StreamMechanism> CreateMechanism(const std::string& name,
                                                 const MechanismConfig& config,
                                                 uint64_t num_users);

// All mechanism names, in the paper's presentation order.
std::vector<std::string> AllMechanismNames();

}  // namespace ldpids

#endif  // LDPIDS_CORE_FACTORY_H_
