#include "util/rng.h"

#include <cstdint>

namespace ldpids {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t x) {
  uint64_t state = x;
  return SplitMix64(state);
}

uint64_t HashCounter(uint64_t seed, uint64_t a, uint64_t b) {
  // Feed the three words through the SplitMix64 finalizer sequentially.
  // Multiplying by distinct odd constants before mixing breaks the symmetry
  // between (a, b) and (b, a).
  uint64_t x = seed;
  x = Mix64(x ^ (a * 0x9E3779B97F4A7C15ULL + 0x165667B19E3779F9ULL));
  x = Mix64(x ^ (b * 0xC2B2AE3D27D4EB4FULL + 0x27D4EB2F165667C5ULL));
  return x;
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // Top 53 bits scaled by 2^-53 gives a uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  // Lemire's nearly-divisionless rejection method.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    const uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

}  // namespace ldpids
