#include "core/mechanism.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ldpids {

double RunResult::Cfpu() const {
  if (num_users == 0 || timestamps == 0) return 0.0;
  return static_cast<double>(total_messages) /
         (static_cast<double>(num_users) * static_cast<double>(timestamps));
}

StreamMechanism::StreamMechanism(MechanismConfig config, uint64_t num_users)
    : config_(std::move(config)),
      fo_(GetFrequencyOracle(config_.fo)),
      num_users_(num_users),
      rng_(config_.seed) {
  if (!(config_.epsilon > 0.0)) {
    throw std::invalid_argument("epsilon must be positive");
  }
  if (config_.window == 0) {
    throw std::invalid_argument("window size w must be >= 1");
  }
  if (num_users_ == 0) {
    throw std::invalid_argument("population must be non-empty");
  }
}

StepResult StreamMechanism::Step(CollectorContext& ctx, std::size_t t) {
  if (t != next_t_) {
    throw std::logic_error("mechanism timestamps must be sequential");
  }
  if (ctx.num_users() != num_users_) {
    throw std::invalid_argument("collector population mismatch");
  }
  if (domain_ == 0) {
    domain_ = ctx.domain();
    if (domain_ == 0) {
      throw std::invalid_argument("collector domain must be positive");
    }
    last_release_.assign(domain_, 0.0);  // r_0 = <0, ..., 0> (Alg. 1 line 1)
  } else if (domain_ != ctx.domain()) {
    throw std::invalid_argument("collector domain changed mid-stream");
  }
  StepResult result = DoStep(ctx, t);
  if (config_.post_process != PostProcess::kNone && result.published) {
    result.release = ApplyPostProcess(result.release, config_.post_process);
  }
  last_release_ = result.release;
  ++next_t_;
  return result;
}

StepResult StreamMechanism::Step(const StreamDataset& data, std::size_t t) {
  DatasetCollector collector(data, fo_, config_.per_user_simulation);
  return Step(collector, t);
}

RunResult StreamMechanism::Run(const StreamDataset& data,
                               std::size_t max_timestamps) {
  DatasetCollector collector(data, fo_, config_.per_user_simulation);
  return Run(collector, std::min(data.length(), max_timestamps));
}

RunResult StreamMechanism::Run(CollectorContext& ctx, std::size_t steps) {
  RunResult run;
  run.num_users = ctx.num_users();
  run.timestamps = steps;
  run.releases.reserve(steps);
  run.published.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    StepResult step = Step(ctx, t);
    run.total_messages += step.messages;
    run.num_publications += step.published ? 1 : 0;
    run.published.push_back(step.published);
    run.releases.push_back(std::move(step.release));
  }
  return run;
}

void StreamMechanism::CollectViaFo(CollectorContext& ctx, std::size_t t,
                                   double epsilon,
                                   const std::vector<uint32_t>* subset,
                                   uint64_t* n_out, Histogram* out) {
  ctx.Collect(t, epsilon, subset, rng_, n_out, out);
}

}  // namespace ldpids
