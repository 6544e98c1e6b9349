// AVX-512 kernels for the two hottest frequency-oracle loops. Both are
// bit-identical to the portable 4-lane kernels (pinned by fo_kernel_test):
//
// * OLH support scan: the d x count double loop of pairwise hashes is the
//   single hottest estimate-side kernel (every OLH release hashes every
//   report's seed against every domain value). The 4-lane AVX2 path
//   emulates 64-bit multiplies in 8+ instructions; AVX-512DQ has a native
//   _mm512_mullo_epi64, so 8 lanes cost less than 4 did. Power-of-two
//   bucket counts only (the epsilon grid's g is a power of two; anything
//   else falls back) — the per-report hash sequence is the exact scalar
//   HashCounter, and the accumulation is order-free integer counts.
//
// * OUE/SUE bit-column fold: the 4-lane fold adds 4 bins per vector step.
//   Here each 64-bit row word becomes 64 bytes of 0x00/0xFF
//   (_mm512_movm_epi8, AVX512BW) subtracted from a zmm of byte counters,
//   one counter per bin, so a whole word folds per step. A byte holds at
//   most 255, so the counters flush into the u64 counts every kFlushRows
//   rows; integer counts are order-free, so the result is exact.
#include "fo/fo_kernels_internal.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/simd/avx512.h"

namespace ldpids::fokernels::internal {

#if defined(LDPIDS_AVX512_COMPILED) && defined(__AVX512F__) && \
    defined(__AVX512DQ__) && defined(__AVX512BW__)

namespace {

// Rows folded between two flushes: a byte counter saturates at 255.
constexpr std::size_t kFlushRows = 255;
// Row words folded per pass over the rows: 8 zmm byte counters (512 bins)
// stay in registers across the row loop.
constexpr std::size_t kGroupWords = 8;

// counts[0..nbits) += the first nbits byte counters of acc, widened to u64
// eight bins at a time. Counts at or past nbits are neither read nor
// written (masked loads and stores).
inline void FlushByteCounters(__m512i acc, std::size_t nbits,
                              uint64_t* counts) {
  alignas(64) uint8_t bytes[64];
  _mm512_store_si512(bytes, acc);
  for (std::size_t b = 0; b < nbits; b += 8) {
    const __mmask8 m =
        nbits - b >= 8 ? static_cast<__mmask8>(0xFF)
                       : static_cast<__mmask8>((1u << (nbits - b)) - 1);
    const __m512i add = _mm512_cvtepu8_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes + b)));
    _mm512_mask_storeu_epi64(
        counts + b, m,
        _mm512_add_epi64(_mm512_maskz_loadu_epi64(m, counts + b), add));
  }
}

// Folds row words [w0, w0 + G) of every selected row into bins
// [64 * w0, min(d, 64 * (w0 + G))).
// The word loops are unrolled by pragma (G <= kGroupWords): -O2 would
// otherwise keep acc[] on the stack and reload it every row.
template <std::size_t G>
void FoldWordGroup(const uint64_t* bit_words, std::size_t words_per_report,
                   const uint32_t* indices, std::size_t count, std::size_t w0,
                   std::size_t d, uint64_t* counts) {
  for (std::size_t r0 = 0; r0 < count; r0 += kFlushRows) {
    const std::size_t r1 = std::min(count, r0 + kFlushRows);
    __m512i acc[G] = {};
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t row = indices != nullptr ? indices[r] : r;
      const uint64_t* words = bit_words + row * words_per_report + w0;
#pragma GCC unroll 8
      for (std::size_t j = 0; j < G; ++j) {
        // A set bit becomes byte 0xFF (-1); subtracting it counts one.
        acc[j] = _mm512_sub_epi8(acc[j],
                                 _mm512_movm_epi8(_cvtu64_mask64(words[j])));
      }
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < G; ++j) {
      const std::size_t base = (w0 + j) * 64;
      FlushByteCounters(acc[j], std::min<std::size_t>(64, d - base),
                        counts + base);
    }
  }
}

// FoldWordGroup for groups of 1..kGroupWords words, indexed by the group
// size: the last group of a row may be partial, and each size is fixed at
// compile time so its counters live in registers.
using FoldGroupFn = void (*)(const uint64_t*, std::size_t, const uint32_t*,
                             std::size_t, std::size_t, std::size_t,
                             uint64_t*);
constexpr FoldGroupFn kFoldGroup[kGroupWords + 1] = {
    nullptr,           &FoldWordGroup<1>, &FoldWordGroup<2>,
    &FoldWordGroup<3>, &FoldWordGroup<4>, &FoldWordGroup<5>,
    &FoldWordGroup<6>, &FoldWordGroup<7>, &FoldWordGroup<8>};

}  // namespace

bool FoldBitColumnsAvx512(const uint64_t* bit_words,
                          std::size_t words_per_report,
                          const uint32_t* indices, std::size_t count,
                          std::size_t d, uint64_t* counts) {
  if (!simd::Avx512Available()) return false;
  const std::size_t words = (d + 63) / 64;
  for (std::size_t w0 = 0; w0 < words; w0 += kGroupWords) {
    kFoldGroup[std::min(kGroupWords, words - w0)](
        bit_words, words_per_report, indices, count, w0, d, counts);
  }
  return true;
}

bool OlhSupportScanAvx512(const uint64_t* seeds, const uint64_t* buckets,
                          std::size_t count, std::size_t d, uint64_t g,
                          uint64_t* support_counts) {
  if (!simd::Avx512Available()) return false;
  if (g == 0 || (g & (g - 1)) != 0) return false;

  using simd::Broadcast8;
  using simd::Mix64V8;
  const __m512i g_mask = Broadcast8(g - 1);
  const __m512i b_term = Broadcast8(kOlhHashStream * kMulB + kStreamB);
  const std::size_t vec_count = count & ~std::size_t{7};
  // The last count % 8 reports run as one masked 8-lane step: masked-off
  // lanes load zeros and never compare, so they count nothing.
  const __mmask8 tail =
      static_cast<__mmask8>((1u << (count - vec_count)) - 1);
  const __m512i tail_seeds = _mm512_maskz_loadu_epi64(tail, seeds + vec_count);
  const __m512i tail_buckets =
      _mm512_maskz_loadu_epi64(tail, buckets + vec_count);
  for (std::size_t k = 0; k < d; ++k) {
    const uint64_t a_term = static_cast<uint64_t>(k) * kGolden + kStreamA;
    const __m512i a_v = Broadcast8(a_term);
    uint64_t supports = 0;
    for (std::size_t i = 0; i < vec_count; i += 8) {
      __m512i x = _mm512_loadu_si512(seeds + i);
      x = Mix64V8(_mm512_xor_si512(x, a_v));
      x = Mix64V8(_mm512_xor_si512(x, b_term));
      const __mmask8 hit = _mm512_cmpeq_epu64_mask(
          _mm512_and_si512(x, g_mask), _mm512_loadu_si512(buckets + i));
      supports += static_cast<unsigned>(__builtin_popcount(hit));
    }
    if (tail != 0) {
      __m512i x = Mix64V8(_mm512_xor_si512(tail_seeds, a_v));
      x = Mix64V8(_mm512_xor_si512(x, b_term));
      const __mmask8 hit = _mm512_mask_cmpeq_epu64_mask(
          tail, _mm512_and_si512(x, g_mask), tail_buckets);
      supports += static_cast<unsigned>(__builtin_popcount(hit));
    }
    support_counts[k] += supports;
  }
  return true;
}

#else  // !LDPIDS_AVX512_COMPILED

bool FoldBitColumnsAvx512(const uint64_t*, std::size_t, const uint32_t*,
                          std::size_t, std::size_t, uint64_t*) {
  return false;
}

bool OlhSupportScanAvx512(const uint64_t*, const uint64_t*, std::size_t,
                          std::size_t, uint64_t, uint64_t*) {
  return false;
}

#endif

}  // namespace ldpids::fokernels::internal
