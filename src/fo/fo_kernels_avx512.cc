// AVX-512 kernels for the two hottest frequency-oracle loops. Both are
// bit-identical to the portable 4-lane kernels (pinned by fo_kernel_test):
//
// * OLH support scan: the d x count double loop of pairwise hashes is the
//   single hottest estimate-side kernel (every OLH release hashes every
//   report's seed against every domain value). AVX-512DQ has a native
//   _mm512_mullo_epi64, but each hash is a chain of four dependent
//   multiplies (~15 cycles each), so one 8-lane chain per step leaves the
//   multiplier idle. Each step therefore runs 64 reports as 8 independent
//   chains, advanced stage by stage; the xor-shift-xor steps that meet the
//   stream constant or the bucket mask are one vpternlogq each, and hits
//   count into a vector accumulator reduced once per value. Every bucket
//   count g runs here: a power of two matches (h & (g - 1)) == b, any other
//   g takes BucketDivisor's exact divisibility test. The per-report hash
//   is the exact scalar HashCounter, and the counts are order-free
//   integer sums.
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
#include "util/simd/mix64.h"

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

// Independent 8-lane hash chains per scan step (64 reports).
constexpr std::size_t kChains = 8;

// Applies f(j) to chain j = 0..N-1: one stage of the interleaved hash,
// unrolled so each chain keeps its own register.
template <std::size_t N, typename F>
[[gnu::always_inline]] inline void EachChain(F&& f) {
#pragma GCC unroll 8
  for (std::size_t j = 0; j < N; ++j) f(j);
}

// HashCounter(seed, k, kOlhHashStream) on N chains of 8 seeds, up to the
// last xor-shift of its second Mix64, which the match rule fuses with
// what follows. a_v is the per-value term k * kGolden + kStreamA.
template <std::size_t N>
[[gnu::always_inline]] inline void HashChains(__m512i (&z)[N], __m512i a_v) {
  using simd::Broadcast8;
  const __m512i golden = Broadcast8(simd::kMix64Golden);
  const __m512i mul1 = Broadcast8(0xBF58476D1CE4E5B9ULL);
  const __m512i mul2 = Broadcast8(0x94D049BB133111EBULL);
  const __m512i b_term = Broadcast8(kOlhHashStream * kMulB + kStreamB);
  EachChain<N>([&](std::size_t j) {
    z[j] = _mm512_add_epi64(_mm512_xor_si512(z[j], a_v), golden);
  });
  EachChain<N>([&](std::size_t j) {
    z[j] = _mm512_mullo_epi64(
        _mm512_xor_si512(z[j], _mm512_srli_epi64(z[j], 30)), mul1);
  });
  EachChain<N>([&](std::size_t j) {
    z[j] = _mm512_mullo_epi64(
        _mm512_xor_si512(z[j], _mm512_srli_epi64(z[j], 27)), mul2);
  });
  // The first Mix64 ends z ^ (z >> 31); the second stream term is xored in
  // by the same instruction (0x96: a ^ b ^ c).
  EachChain<N>([&](std::size_t j) {
    z[j] = _mm512_add_epi64(
        _mm512_ternarylogic_epi64(z[j], _mm512_srli_epi64(z[j], 31), b_term,
                                  0x96),
        golden);
  });
  EachChain<N>([&](std::size_t j) {
    z[j] = _mm512_mullo_epi64(
        _mm512_xor_si512(z[j], _mm512_srli_epi64(z[j], 30)), mul1);
  });
  EachChain<N>([&](std::size_t j) {
    z[j] = _mm512_mullo_epi64(
        _mm512_xor_si512(z[j], _mm512_srli_epi64(z[j], 27)), mul2);
  });
}

// Match rules: the lanes of `lanes` whose hash h = z ^ (z >> 31) lands in
// bucket b (h % g == b).
struct MaskMatch {
  explicit MaskMatch(uint64_t g) : mask(simd::Broadcast8(g - 1)) {}
  __mmask8 Hits(__mmask8 lanes, __m512i z, __m512i b) const {
    // (z ^ (z >> 31)) & (g - 1) as one instruction (0x28: (a ^ b) & c).
    return _mm512_mask_cmpeq_epu64_mask(
        lanes,
        _mm512_ternarylogic_epi64(z, _mm512_srli_epi64(z, 31), mask, 0x28),
        b);
  }
  __m512i mask;
};

struct DivisorMatch {
  explicit DivisorMatch(const BucketDivisor& div)
      : g(simd::Broadcast8(div.g)),
        s(simd::Broadcast8(div.s)),
        q_inv(simd::Broadcast8(div.q_inv)),
        limit(simd::Broadcast8(div.limit)) {}
  // BucketDivisor::Matches per lane.
  __mmask8 Hits(__mmask8 lanes, __m512i z, __m512i b) const {
    const __m512i h = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
    lanes = _mm512_mask_cmplt_epu64_mask(lanes, b, g);
    lanes = _mm512_mask_cmpge_epu64_mask(lanes, h, b);
    const __m512i n = _mm512_rorv_epi64(
        _mm512_mullo_epi64(_mm512_sub_epi64(h, b), q_inv), s);
    return _mm512_mask_cmple_epu64_mask(lanes, n, limit);
  }
  __m512i g, s, q_inv, limit;
};

// The scan body for one match rule. Per value k, 64-report steps run as
// kChains chains and the rest of the reports as 8-lane steps, the last one
// masked; each hit adds 1 to a lane of acc.
template <typename Match>
void ScanValues(const uint64_t* seeds, const uint64_t* buckets,
                std::size_t count, std::size_t d, const Match& match,
                uint64_t* support_counts) {
  const __m512i all_ones = _mm512_set1_epi64(-1);
  const std::size_t block_end = count - count % (8 * kChains);
  for (std::size_t k = 0; k < d; ++k) {
    const __m512i a_v =
        simd::Broadcast8(static_cast<uint64_t>(k) * kGolden + kStreamA);
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i < block_end; i += 8 * kChains) {
      __m512i z[kChains];
      EachChain<kChains>([&](std::size_t j) {
        z[j] = _mm512_loadu_si512(seeds + i + 8 * j);
      });
      HashChains(z, a_v);
      EachChain<kChains>([&](std::size_t j) {
        const __mmask8 hit =
            match.Hits(0xFF, z[j], _mm512_loadu_si512(buckets + i + 8 * j));
        acc = _mm512_mask_sub_epi64(acc, hit, acc, all_ones);
      });
    }
    for (; i < count; i += 8) {
      // Masked-off lanes load zeros and never compare, so they count
      // nothing.
      const __mmask8 lanes =
          count - i >= 8 ? static_cast<__mmask8>(0xFF)
                         : static_cast<__mmask8>((1u << (count - i)) - 1);
      __m512i z[1] = {_mm512_maskz_loadu_epi64(lanes, seeds + i)};
      HashChains(z, a_v);
      const __mmask8 hit = match.Hits(
          lanes, z[0], _mm512_maskz_loadu_epi64(lanes, buckets + i));
      acc = _mm512_mask_sub_epi64(acc, hit, acc, all_ones);
    }
    support_counts[k] += static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
  }
}

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
  if ((g & (g - 1)) == 0) {
    ScanValues(seeds, buckets, count, d, MaskMatch(g), support_counts);
  } else {
    ScanValues(seeds, buckets, count, d, DivisorMatch(BucketDivisor(g)),
               support_counts);
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
