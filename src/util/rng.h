// Deterministic pseudo-random number generation for LDP-IDS.
//
// The whole library is seeded explicitly so that every experiment is
// reproducible bit-for-bit on the same platform. Two generators are provided:
//
//  * `Rng` — a stateful xoshiro256++ generator. This is the workhorse used by
//    frequency oracles and stream mechanisms. It satisfies the
//    UniformRandomBitGenerator concept, so it can also drive the <random>
//    distributions where that is convenient.
//
//  * `CounterRng` (see `HashCounter` below) — a stateless counter-based
//    construction used by lazy datasets: the value of user `u` at timestamp
//    `t` is a pure function of (seed, u, t). This lets population-division
//    mechanisms materialize only the users they sample instead of storing an
//    N x T matrix.
#ifndef LDPIDS_UTIL_RNG_H_
#define LDPIDS_UTIL_RNG_H_

#include <cstdint>
#include <limits>

namespace ldpids {

// SplitMix64 step; used for seeding and for the stateless counter hash.
// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
// generators" (the standard seeding recommendation of the xoshiro authors).
uint64_t SplitMix64(uint64_t& state);

// Stateless mixing of a 64-bit input to a 64-bit output (fixed-key hash).
// This is the finalizer of SplitMix64 applied once; it is a bijection with
// good avalanche behaviour, sufficient for synthetic data generation.
uint64_t Mix64(uint64_t x);

// Combines a seed and two counters (e.g. user id and timestamp) into a
// uniform 64-bit value. Deterministic and stateless.
uint64_t HashCounter(uint64_t seed, uint64_t a, uint64_t b);

// xoshiro256++ 1.0 by Blackman & Vigna (public domain reference
// implementation, reimplemented). Period 2^256 - 1, passes BigCrush.
class Rng {
 public:
  using result_type = uint64_t;

  // Seeds all 256 bits of state from `seed` via SplitMix64, per the
  // generator authors' recommendation. Distinct seeds give independent
  // looking streams.
  explicit Rng(uint64_t seed = 0xA5A5A5A5DEADBEEFULL);

  // UniformRandomBitGenerator interface.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }
  result_type operator()() { return NextU64(); }

  // Next uniform 64-bit value.
  uint64_t NextU64();

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  // Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  // nearly-divisionless unbiased method.
  uint64_t UniformInt(uint64_t bound);

  // Bernoulli draw with success probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

 private:
  uint64_t s_[4];
};

}  // namespace ldpids

#endif  // LDPIDS_UTIL_RNG_H_
