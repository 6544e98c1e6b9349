#include "core/postprocess.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace ldpids {

Histogram ProjectToSimplex(const Histogram& h) {
  // Duchi, Shalev-Shwartz, Singer, Chandra (ICML 2008): sort descending,
  // find the largest k with u_k - (cumsum_k - 1)/k > 0, shift by that theta
  // and clip.
  if (h.empty()) return h;
  Histogram sorted = h;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double cumsum = 0.0;
  double theta = 0.0;
  std::size_t rho = 0;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    cumsum += sorted[k];
    const double candidate =
        (cumsum - 1.0) / static_cast<double>(k + 1);
    if (sorted[k] - candidate > 0.0) {
      rho = k + 1;
      theta = candidate;
    }
  }
  if (rho == 0) {
    // All mass below the threshold (degenerate); fall back to uniform.
    return Histogram(h.size(), 1.0 / static_cast<double>(h.size()));
  }
  Histogram out(h.size());
  for (std::size_t k = 0; k < h.size(); ++k) {
    out[k] = std::max(h[k] - theta, 0.0);
  }
  return out;
}

Histogram NormSub(const Histogram& h) {
  // Iterate: shift the currently-positive support by delta so the total
  // hits 1, clip new negatives, repeat. Converges in <= d rounds because
  // the support only shrinks.
  if (h.empty()) return h;
  Histogram out = h;
  std::vector<bool> zeroed(h.size(), false);
  for (std::size_t round = 0; round < h.size() + 1; ++round) {
    double total = 0.0;
    std::size_t support = 0;
    for (std::size_t k = 0; k < out.size(); ++k) {
      if (!zeroed[k]) {
        total += out[k];
        ++support;
      }
    }
    if (support == 0) {
      return Histogram(h.size(), 1.0 / static_cast<double>(h.size()));
    }
    const double delta = (1.0 - total) / static_cast<double>(support);
    bool changed = false;
    for (std::size_t k = 0; k < out.size(); ++k) {
      if (zeroed[k]) continue;
      out[k] += delta;
      if (out[k] < 0.0) {
        out[k] = 0.0;
        zeroed[k] = true;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return out;
}

Histogram ApplyPostProcess(const Histogram& h, PostProcess mode) {
  switch (mode) {
    case PostProcess::kNone:
      return h;
    case PostProcess::kClamp:
      return ClampToUnit(h);
    case PostProcess::kSimplex:
      return ProjectToSimplex(h);
    case PostProcess::kNormSub:
      return NormSub(h);
  }
  throw std::logic_error("unreachable post-process mode");
}

PostProcess ParsePostProcess(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "none" || lower.empty()) return PostProcess::kNone;
  if (lower == "clamp") return PostProcess::kClamp;
  if (lower == "simplex") return PostProcess::kSimplex;
  if (lower == "normsub" || lower == "norm-sub") return PostProcess::kNormSub;
  throw std::invalid_argument("unknown post-process mode: " + name);
}

std::string PostProcessName(PostProcess mode) {
  switch (mode) {
    case PostProcess::kNone: return "none";
    case PostProcess::kClamp: return "clamp";
    case PostProcess::kSimplex: return "simplex";
    case PostProcess::kNormSub: return "normsub";
  }
  return "?";
}

}  // namespace ldpids
