#include "util/sampling.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ldpids {

std::vector<uint32_t> SampleFromPool(Rng& rng, std::vector<uint32_t>* pool,
                                     std::size_t count) {
  std::vector<uint32_t> picked;
  if (count >= pool->size()) {
    picked = std::move(*pool);
    pool->clear();
    return picked;
  }
  picked.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = static_cast<std::size_t>(
        rng.UniformInt(static_cast<uint64_t>(pool->size())));
    picked.push_back((*pool)[j]);
    (*pool)[j] = pool->back();
    pool->pop_back();
  }
  return picked;
}

}  // namespace ldpids
