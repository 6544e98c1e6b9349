// Release post-processing (consistency enforcement).
//
// Unbiased LDP estimates routinely leave the probability simplex (negative
// bins, sums != 1). Any data-independent transformation of the release is
// privacy-free by the post-processing theorem, and enforcing consistency is
// known to reduce error (Wang et al., "Consistent frequency estimation...";
// CALM). Three standard options are provided and can be attached to any
// mechanism via MechanismConfig::post_process:
//
//   kClamp   — clip each bin to [0, 1] (cheap, biased low on totals);
//   kSimplex — Euclidean projection onto the probability simplex
//              (Duchi et al. 2008, O(d log d));
//   kNormSub — the norm-sub estimator: shift all bins by a common delta and
//              clip negatives so the result is non-negative and sums to 1
//              (the recommended choice in the consistency literature).
#ifndef LDPIDS_CORE_POSTPROCESS_H_
#define LDPIDS_CORE_POSTPROCESS_H_

#include <string>

#include "util/histogram.h"

namespace ldpids {

enum class PostProcess {
  kNone,
  kClamp,
  kSimplex,
  kNormSub,
};

// Euclidean projection of `h` onto {x : x >= 0, sum x = 1}.
Histogram ProjectToSimplex(const Histogram& h);

// Norm-sub: find delta such that sum_k max(h[k] + delta, 0) = 1 and return
// the clipped-shifted histogram.
Histogram NormSub(const Histogram& h);

// Applies the selected transformation (kNone returns the input unchanged).
Histogram ApplyPostProcess(const Histogram& h, PostProcess mode);

// Parses "none" | "clamp" | "simplex" | "normsub" (case-insensitive);
// throws std::invalid_argument otherwise.
PostProcess ParsePostProcess(const std::string& name);

// Display name of a mode.
std::string PostProcessName(PostProcess mode);

}  // namespace ldpids

#endif  // LDPIDS_CORE_POSTPROCESS_H_
