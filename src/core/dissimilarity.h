// Private dissimilarity estimation (paper Section 5.3.1, Theorem 5.2).
//
// The adaptive mechanisms must decide, at every timestamp, whether the
// stream has drifted enough from the last release r_l to justify spending
// budget/users on a fresh publication. The true dissimilarity
//
//   dis* = (1/d) sum_k (c_t[k] - r_l[k])^2                         (Eq. 3)
//
// (util's MeanSquaredDistance) is not observable under LDP; Theorem 5.2
// shows that, for any unbiased estimate c_hat of c_t,
//
//   dis = (1/d) sum_k (c_hat[k] - r_l[k])^2 - (1/d) sum_k Var(c_hat[k])
//
// is an unbiased estimator of dis* (and LDP by post-processing). The
// variance-correction term is the collector's analytic mean variance
// V(eps, n) (CollectorContext::MeanVariance).
#ifndef LDPIDS_CORE_DISSIMILARITY_H_
#define LDPIDS_CORE_DISSIMILARITY_H_

#include "util/histogram.h"

namespace ldpids {

// The paper's Eq. (4): mean squared distance between the private estimate
// and the last release, debiased by the estimate's mean variance. May be
// negative (the estimator is unbiased, not non-negative); callers compare it
// against `err` as-is.
double EstimateDissimilarity(const Histogram& private_estimate,
                             const Histogram& last_release,
                             double estimate_mean_variance);

}  // namespace ldpids

#endif  // LDPIDS_CORE_DISSIMILARITY_H_
