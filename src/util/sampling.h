// Subset-sampling utilities used by the population-division mechanisms.
//
// The population manager keeps the pool of available users as a plain index
// vector; `SampleFromPool` removes a uniform random subset in O(subset) time
// with a partial Fisher-Yates shuffle. This makes LPD/LPA (Algorithms 3 and
// 4) exact — the sampled users really are a uniform subset of the available
// pool — while staying cheap even for million-user populations.
#ifndef LDPIDS_UTIL_SAMPLING_H_
#define LDPIDS_UTIL_SAMPLING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace ldpids {

// Removes `count` uniformly random elements from `pool` (without
// replacement) and returns them. Order of the remaining pool elements is
// not preserved. If `count >= pool->size()`, the whole pool is taken.
std::vector<uint32_t> SampleFromPool(Rng& rng, std::vector<uint32_t>* pool,
                                     std::size_t count);

}  // namespace ldpids

#endif  // LDPIDS_UTIL_SAMPLING_H_
