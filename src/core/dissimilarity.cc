#include "core/dissimilarity.h"

namespace ldpids {

double EstimateDissimilarity(const Histogram& private_estimate,
                             const Histogram& last_release,
                             double estimate_mean_variance) {
  return MeanSquaredDistance(private_estimate, last_release) -
         estimate_mean_variance;
}

}  // namespace ldpids
