#include "core/lpu.h"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ldpids {

namespace {
// Validates the LPU population precondition before any member construction
// and returns the window for the delegating constructor to pass on.
std::size_t CheckedLpuWindow(std::size_t window, uint64_t num_users) {
  if (num_users < static_cast<uint64_t>(window)) {
    throw std::invalid_argument("LPU needs at least w users");
  }
  return window;
}
}  // namespace

LpuMechanism::LpuMechanism(MechanismConfig config, uint64_t num_users)
    : LpuMechanism(CheckedLpuWindow(config.window, num_users),
                   std::move(config), num_users) {}

LpuMechanism::LpuMechanism(std::size_t window, MechanismConfig&& config,
                           uint64_t num_users)
    : StreamMechanism(std::move(config), num_users),
      population_(num_users, window) {}

StepResult LpuMechanism::DoStep(CollectorContext& ctx, std::size_t t) {
  const std::size_t group_size =
      static_cast<std::size_t>(num_users_ / config_.window);
  const std::vector<uint32_t> group = population_.Sample(group_size, rng_);

  StepResult result;
  uint64_t n = 0;
  CollectViaFo(ctx, t, config_.epsilon, &group, &n, &result.release);
  result.published = true;
  result.messages = n;
  population_.EndTimestamp();
  return result;
}

}  // namespace ldpids
