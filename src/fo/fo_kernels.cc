#include "fo/fo_kernels.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "fo/fo_kernels_internal.h"
#include "util/fastdiv.h"
#include "util/rng.h"
#include "util/simd/mix64.h"
#include "util/simd/simd.h"

namespace ldpids::fokernels {
namespace {

// HashCounter's mixing constants live in fo_kernels_internal.h, shared
// with the AVX-512 kernel TU so the two hash constructions cannot drift.
using internal::kGolden;
using internal::kMulB;
using internal::kOlhHashStream;
using internal::kStreamA;
using internal::kStreamB;

using simd::Mix64V;

}  // namespace

void EstimateAffine(const uint64_t* counts, std::size_t d, double inv_n,
                    double q, double denom, double* est) {
  const simd::F64x inv_v = simd::BroadcastF64(inv_n);
  const simd::F64x q_v = simd::BroadcastF64(q);
  const simd::F64x denom_v = simd::BroadcastF64(denom);
  std::size_t k = 0;
  for (; k + simd::kLanes <= d; k += simd::kLanes) {
    const simd::F64x c = simd::U64ToF64(simd::LoadU64(counts + k));
    simd::StoreF64(
        est + k,
        simd::DivF64(simd::SubF64(simd::MulF64(c, inv_v), q_v), denom_v));
  }
  for (; k < d; ++k) {
    est[k] = (static_cast<double>(counts[k]) * inv_n - q) / denom;
  }
}

void FoldBitColumns(const uint64_t* bit_words, std::size_t words_per_report,
                    const uint32_t* indices, std::size_t count, std::size_t d,
                    uint64_t* counts) {
  // Whole-word byte-counter fold when compiled in and the CPU has
  // AVX-512BW; exact integer counts either way, so the dispatch never shows
  // in results.
  if (internal::FoldBitColumnsAvx512(bit_words, words_per_report, indices,
                                     count, d, counts)) {
    return;
  }
  internal::FoldBitColumns4Lane(bit_words, words_per_report, indices, count, d,
                                counts);
}

void internal::FoldBitColumns4Lane(const uint64_t* bit_words,
                                   std::size_t words_per_report,
                                   const uint32_t* indices, std::size_t count,
                                   std::size_t d, uint64_t* counts) {
  static const uint64_t kIota[simd::kLanes] = {0, 1, 2, 3};
  const simd::U64x iota = simd::LoadU64(kIota);
  const simd::U64x one = simd::BroadcastU64(1);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t row = indices != nullptr ? indices[r] : r;
    const uint64_t* words = bit_words + row * words_per_report;
    for (std::size_t w = 0; w < words_per_report; ++w) {
      const std::size_t nbits = std::min<std::size_t>(64, d - w * 64);
      const simd::U64x word_v = simd::BroadcastU64(words[w]);
      uint64_t* base = counts + w * 64;
      std::size_t b = 0;
      for (; b + simd::kLanes <= nbits; b += simd::kLanes) {
        const simd::U64x shifts =
            simd::AddU64(iota, simd::BroadcastU64(static_cast<uint64_t>(b)));
        const simd::U64x bits =
            simd::AndU64(simd::ShrVarU64(word_v, shifts), one);
        simd::StoreU64(base + b,
                       simd::AddU64(simd::LoadU64(base + b), bits));
      }
      for (; b < nbits; ++b) base[b] += (words[w] >> b) & 1u;
    }
  }
}

void OlhSupportScan(const uint64_t* seeds, const uint64_t* buckets,
                    std::size_t count, std::size_t d, uint64_t g,
                    uint64_t* support_counts) {
  // The AVX-512 scan takes every g, so the 4-lane scan runs only where
  // AVX-512 is absent (AVX2-only CPUs, FORCE_SCALAR builds). Both count
  // exact HashToBucket matches, so the dispatch never shows in results.
  if (internal::OlhSupportScanAvx512(seeds, buckets, count, d, g,
                                     support_counts)) {
    return;
  }
  internal::OlhSupportScan4Lane(seeds, buckets, count, d, g, support_counts);
}

void internal::OlhSupportScan4Lane(const uint64_t* seeds,
                                   const uint64_t* buckets, std::size_t count,
                                   std::size_t d, uint64_t g,
                                   uint64_t* support_counts) {
  const U64Divisor div(g);
  const bool pow2 = div.magic() == 0;
  const bool add_fixup = div.add_fixup();
  const unsigned shift = div.shift();
  const simd::U64x magic_v = simd::BroadcastU64(div.magic());
  const simd::U64x g_v = simd::BroadcastU64(g);
  const simd::U64x g_mask = simd::BroadcastU64(g - 1);
  const simd::U64x b_term =
      simd::BroadcastU64(kOlhHashStream * kMulB + kStreamB);
  const std::size_t vec_count = count & ~(simd::kLanes - 1);
  for (std::size_t k = 0; k < d; ++k) {
    // Per-value hash constants are loop-invariant across reports, which is
    // why the scan is value-major.
    const uint64_t a_term = static_cast<uint64_t>(k) * kGolden + kStreamA;
    const simd::U64x a_v = simd::BroadcastU64(a_term);
    simd::U64x acc = simd::ZeroU64();
    for (std::size_t i = 0; i < vec_count; i += simd::kLanes) {
      simd::U64x x = simd::LoadU64(seeds + i);
      x = Mix64V(simd::XorU64(x, a_v));
      x = Mix64V(simd::XorU64(x, b_term));
      simd::U64x bucket;
      if (pow2) {
        bucket = simd::AndU64(x, g_mask);
      } else {
        const simd::U64x hi = simd::MulHiU64(x, magic_v);
        const simd::U64x quot =
            add_fixup
                ? simd::ShrU64(
                      simd::AddU64(simd::ShrU64(simd::SubU64(x, hi), 1), hi),
                      shift)
                : simd::ShrU64(hi, shift);
        bucket = simd::SubU64(x, simd::MulLoU64(quot, g_v));
      }
      // Matching lanes come back as all-ones (-1); subtracting the mask adds
      // one per match.
      acc = simd::SubU64(acc,
                         simd::CmpEqU64(bucket, simd::LoadU64(buckets + i)));
    }
    uint64_t supports = simd::ReduceAddU64(acc);
    for (std::size_t i = vec_count; i < count; ++i) {
      const uint64_t h =
          HashCounter(seeds[i], static_cast<uint64_t>(k), kOlhHashStream);
      supports += div.Mod(h) == buckets[i] ? 1 : 0;
    }
    support_counts[k] += supports;
  }
}

void Fwht(int64_t* data, std::size_t n) {
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t i = 0; i < n; i += h << 1) {
      for (std::size_t j = i; j < i + h; ++j) {
        const int64_t u = data[j];
        const int64_t v = data[j + h];
        data[j] = u + v;
        data[j + h] = u - v;
      }
    }
  }
}

}  // namespace ldpids::fokernels
