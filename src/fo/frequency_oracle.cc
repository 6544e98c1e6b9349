#include "fo/frequency_oracle.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "fo/fo_kernels.h"
#include "fo/grr.h"
#include "fo/hr.h"
#include "fo/olh.h"
#include "fo/oue.h"
#include "fo/report_arena.h"
#include "fo/sue.h"

namespace ldpids {

FoSketch::FoSketch(const FoParams& params, double q, double denom)
    : counts_(params.domain, 0), params_(params), q_(q), denom_(denom) {}

void FoSketch::MergeFrom(const FoSketch& other) {
  if (&other == this || typeid(other) != typeid(*this) ||
      other.params_.domain != params_.domain ||
      other.params_.epsilon != params_.epsilon) {
    throw std::invalid_argument("sketch merge: incompatible sketch");
  }
  other.Resolve();
  AbsorbCounts(other.counts_.data(), other.counts_.size(), other.num_users_);
}

void FoSketch::ExportResolvedCounts(Counts* out) const {
  Resolve();
  *out = counts_;
}

bool FoSketch::AbsorbCounts(const uint64_t* counts, std::size_t count,
                            uint64_t num_users) {
  if (count != counts_.size()) return false;
  // Deferred reports resolve into counts_ by pure integer adds, so
  // absorbing before or after this sketch's own resolution is
  // bit-identical.
  for (std::size_t k = 0; k < count; ++k) counts_[k] += counts[k];
  num_users_ += num_users;
  return true;
}

void FoSketch::EstimateInto(Histogram* out) const {
  if (num_users_ == 0) throw std::logic_error("sketch has no users");
  Resolve();
  out->resize(counts_.size());
  fokernels::EstimateAffine(counts_.data(), counts_.size(),
                            1.0 / static_cast<double>(num_users_), q_, denom_,
                            out->data());
}

void FoSketch::AddReports(const ArenaSlice& slice) {
  // Scalar reference: reconstruct each staged row and fold it through the
  // single-report path. Oracles override this with vectorized column
  // kernels; fo_kernel_test pins those overrides against this loop.
  DecodedReport scratch;
  for (std::size_t i = 0; i < slice.count; ++i) {
    slice.arena->ReportAt(slice.indices != nullptr ? slice.indices[i] : i,
                          &scratch);
    if (!AddReport(scratch)) {
      throw std::logic_error("AddReports: slice row rejected by the sketch");
    }
  }
}

void FoSketch::AddUsers(const std::vector<uint32_t>& values, Rng& rng) {
  // Batches too small to be worth a d-sized tally always take the exact
  // per-user protocol.
  constexpr std::size_t kMinTallyBatch = 8;
  if (values.size() < kMinTallyBatch) {
    for (uint32_t v : values) AddUser(v, rng);
    return;
  }
  const std::size_t d = domain();
  Counts counts(d, 0);
  for (uint32_t v : values) {
    if (v >= d) throw std::out_of_range("FO value out of domain");
    ++counts[v];
  }
  if (CohortPaysOff(values.size(), counts)) {
    AddCohort(counts, rng);
  } else {
    for (uint32_t v : values) AddUser(v, rng);
  }
}

void ValidateFoParams(const FoParams& params) {
  if (params.domain < 2) {
    throw std::invalid_argument("FO domain must have at least 2 values");
  }
  if (!(params.epsilon > 0.0)) {
    throw std::invalid_argument("FO epsilon must be positive");
  }
}

const FrequencyOracle& GetFrequencyOracle(const std::string& name) {
  static const GrrOracle grr;
  static const OueOracle oue;
  static const OlhOracle olh;
  static const SueOracle sue;
  static const HrOracle hr;
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (upper == "GRR") return grr;
  if (upper == "OUE") return oue;
  if (upper == "OLH") return olh;
  if (upper == "SUE") return sue;
  if (upper == "HR") return hr;
  throw std::invalid_argument("unknown frequency oracle: " + name);
}

std::vector<std::string> AllFrequencyOracleNames() {
  return {"GRR", "OUE", "OLH", "SUE", "HR"};
}

}  // namespace ldpids
