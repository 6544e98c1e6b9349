// Internals shared between fo_kernels.cc and the optional AVX-512 kernel
// translation unit (fo_kernels_avx512.cc). Not part of the public kernel
// API (fo/fo_kernels.h).
#ifndef LDPIDS_FO_FO_KERNELS_INTERNAL_H_
#define LDPIDS_FO_FO_KERNELS_INTERNAL_H_

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

// 8-lane OLH support scan for power-of-two bucket counts (the default
// epsilon grid always lands there). Returns false — having touched nothing
// — when the AVX-512 kernels are not compiled in, the CPU lacks them, or g
// is not a power of two; the caller then runs the 4-lane scan. Counts are
// added into support_counts[0..d), identical to the portable scan (order-
// free integer accumulation).
bool OlhSupportScanAvx512(const uint64_t* seeds, const uint64_t* buckets,
                          std::size_t count, std::size_t d, uint64_t g,
                          uint64_t* support_counts);

}  // namespace ldpids::fokernels::internal

#endif  // LDPIDS_FO_FO_KERNELS_INTERNAL_H_
