#include "core/collector.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ldpids {

DatasetCollector::DatasetCollector(const StreamDataset& data,
                                   const FrequencyOracle& fo,
                                   bool per_user_simulation)
    : data_(data), fo_(fo), per_user_simulation_(per_user_simulation) {}

void DatasetCollector::Collect(std::size_t t, double epsilon,
                               const std::vector<uint32_t>* subset, Rng& rng,
                               uint64_t* n_out, Histogram* out) {
  FoParams params{epsilon, data_.domain()};
  std::unique_ptr<FoSketch> sketch = fo_.CreateSketch(params);
  if (per_user_simulation_) {
    if (subset == nullptr) {
      const uint64_t n = data_.num_users();
      for (uint64_t u = 0; u < n; ++u) {
        sketch->AddUser(data_.value(u, t), rng);
      }
    } else {
      for (uint32_t u : *subset) sketch->AddUser(data_.value(u, t), rng);
    }
  } else if (subset == nullptr) {
    sketch->AddCohort(data_.TrueCounts(t), rng);
  } else {
    data_.SubsetCountsInto(*subset, t, &subset_counts_scratch_);
    sketch->AddCohort(subset_counts_scratch_, rng);
  }
  if (n_out != nullptr) *n_out = sketch->num_users();
  sketch->EstimateInto(out);
}

}  // namespace ldpids
