// Internals shared between fo_kernels.cc and the optional AVX-512 kernel
// translation unit (fo_kernels_avx512.cc). Not part of the public kernel
// API (fo/fo_kernels.h).
#ifndef LDPIDS_FO_FO_KERNELS_INTERNAL_H_
#define LDPIDS_FO_FO_KERNELS_INTERNAL_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ldpids::fokernels::internal {

// HashCounter's mixing constants (util/rng.cc), replicated per lane. Every
// vectorized hash must stay the exact SplitMix64 finalizer sequence — any
// drift breaks protocol compatibility with clients using the scalar
// HashToBucket, and fo_kernel_test's pinning would catch it.
inline constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
inline constexpr uint64_t kStreamA = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kMulB = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kStreamB = 0x27D4EB2F165667C5ULL;
// olh.cc's HashToBucket stream id.
inline constexpr uint64_t kOlhHashStream = 0x01F;

// The portable bit-column fold (4 bins per vector step over util/simd):
// the AVX2/generic path of fokernels::FoldBitColumns, same contract.
// Exposed so a test can pin it on a host that dispatches past it.
void FoldBitColumns4Lane(const uint64_t* bit_words,
                         std::size_t words_per_report,
                         const uint32_t* indices, std::size_t count,
                         std::size_t d, uint64_t* counts);

// AVX-512BW bit-column fold on byte counters, same contract as
// fokernels::FoldBitColumns (bins >= d are never written). Returns false —
// having touched nothing — when the AVX-512 kernels are not compiled in or
// the CPU lacks them; the caller then runs FoldBitColumns4Lane.
bool FoldBitColumnsAvx512(const uint64_t* bit_words,
                          std::size_t words_per_report,
                          const uint32_t* indices, std::size_t count,
                          std::size_t d, uint64_t* counts);

// Exact `h % g == b` without a divide, for a bucket count g = 2^s * q with
// q odd (Granlund & Montgomery, PLDI '94; Lemire, Kaser & Kurz, "Faster
// remainder by direct computation", 2019): h % g == b exactly when b < g,
// h >= b and g divides h - b, and g divides n exactly when
//   rotr(n * q_inv mod 2^64, s) <= floor((2^64 - 1) / g),
// q_inv being q's inverse mod 2^64. The AVX-512 OLH scan broadcasts these
// constants for a g that is not a power of two. g must be >= 1.
struct BucketDivisor {
  explicit constexpr BucketDivisor(uint64_t bucket_count)
      : g(bucket_count),
        s(static_cast<unsigned>(std::countr_zero(bucket_count))),
        q_inv(InverseOfOdd(bucket_count >> s)),
        limit(~uint64_t{0} / bucket_count) {}

  constexpr bool Matches(uint64_t h, uint64_t b) const {
    return b < g && h >= b &&
           std::rotr((h - b) * q_inv, static_cast<int>(s)) <= limit;
  }

  uint64_t g;
  unsigned s;
  uint64_t q_inv;
  uint64_t limit;

 private:
  // Newton's iteration x <- x * (2 - q * x) doubles the correct low bits;
  // x = q is right to 3 bits (q * q == 1 mod 8 for odd q), so 5 steps
  // reach 96 >= 64.
  static constexpr uint64_t InverseOfOdd(uint64_t q) {
    uint64_t x = q;
    for (int i = 0; i < 5; ++i) x *= 2 - q * x;
    return x;
  }
};

// The portable OLH support scan (4 lanes over util/simd, exact `% g` via
// util/fastdiv.h): the AVX2/generic path of fokernels::OlhSupportScan,
// same contract. Exposed so a test can pin it on a host that dispatches
// past it.
void OlhSupportScan4Lane(const uint64_t* seeds, const uint64_t* buckets,
                         std::size_t count, std::size_t d, uint64_t g,
                         uint64_t* support_counts);

// AVX-512 OLH support scan for every bucket count g >= 1, same contract as
// fokernels::OlhSupportScan: 64 reports per step as 8 independent 8-lane
// hash chains, a power-of-two g matched as (h & (g - 1)) == b and any other
// g through BucketDivisor. Returns false — having touched nothing — only
// when the AVX-512 kernels are not compiled in or the CPU lacks them; the
// caller then runs OlhSupportScan4Lane. Counts are added into
// support_counts[0..d), identical to the portable scan (order-free integer
// accumulation).
bool OlhSupportScanAvx512(const uint64_t* seeds, const uint64_t* buckets,
                          std::size_t count, std::size_t d, uint64_t g,
                          uint64_t* support_counts);

}  // namespace ldpids::fokernels::internal

#endif  // LDPIDS_FO_FO_KERNELS_INTERNAL_H_
