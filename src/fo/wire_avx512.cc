// AVX-512 batch wire-checksum verification: eight packets per pass, lane p
// of every vector carrying packet p. Compiled with the AVX-512 flags only
// when CMake's probe succeeds (LDPIDS_AVX512_COMPILED); otherwise this TU
// degrades to a return-false stub and VerifyChecksums stays on the
// per-packet 4-lane path.
//
// The win over the per-packet checksum is lane utilization: a report packet
// is one or two 32-byte blocks, so the 4-lane-within-a-packet scheme spends
// most of its time in the scalar finalizer and the per-call setup. Across
// packets the whole pipeline — lane seeding, block absorption, the rotate
// fold and the final Mix64 — runs 8 packets wide with native 64-bit
// multiplies (_mm512_mullo_epi64), and the per-packet recurrence is the
// exact scalar sequence, so the verdicts are byte-identical (pinned by
// wire_fuzz_test's parity fuzz, which runs the batched entry too).
//
// Loads never gather and never stage: each packet's block is one 256-bit
// load, the short tail one byte-masked load (AVX512BW) that reads none of
// the bytes past it and zero-fills the pad the scalar path pads with, and
// an in-register 8 x 4 transpose turns the eight blocks into the four lane
// vectors.
#include "fo/wire_internal.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/simd/avx512.h"

namespace ldpids::wire_internal {

#if defined(LDPIDS_AVX512_COMPILED) && defined(__AVX512F__) && \
    defined(__AVX512DQ__) && defined(__AVX512BW__)

namespace {

using simd::Broadcast8;
using simd::Mix64V8;

// Transposes eight packets' 32-byte blocks (block[p] = words 0..3 of
// packet p) into the four checksum lane inputs: word[j] holds word j of
// packets 0..7 in order.
inline void Transpose8x4(const __m256i (&block)[8], __m512i (&word)[4]) {
  // Packets p and p + 2 share a zmm; its 128-bit quarters hold (w0 w1)
  // (w2 w3) of packet p, then of packet p + 2.
  const auto pair = [&](int p) {
    return _mm512_inserti64x4(_mm512_castsi256_si512(block[p]), block[p + 2],
                              1);
  };
  const __m512i z02 = pair(0);
  const __m512i z13 = pair(1);
  const __m512i z46 = pair(4);
  const __m512i z57 = pair(5);
  // Quarters of even03: (p0w0 p1w0) (p0w2 p1w2) (p2w0 p3w0) (p2w2 p3w2);
  // odd03 holds words 1 and 3 the same way.
  const __m512i even03 = _mm512_unpacklo_epi64(z02, z13);
  const __m512i odd03 = _mm512_unpackhi_epi64(z02, z13);
  const __m512i even47 = _mm512_unpacklo_epi64(z46, z57);
  const __m512i odd47 = _mm512_unpackhi_epi64(z46, z57);
  word[0] = _mm512_shuffle_i64x2(even03, even47, _MM_SHUFFLE(2, 0, 2, 0));
  word[1] = _mm512_shuffle_i64x2(odd03, odd47, _MM_SHUFFLE(2, 0, 2, 0));
  word[2] = _mm512_shuffle_i64x2(even03, even47, _MM_SHUFFLE(3, 1, 3, 1));
  word[3] = _mm512_shuffle_i64x2(odd03, odd47, _MM_SHUFFLE(3, 1, 3, 1));
}

// lane[j] = Mix64(lane[j] ^ word j of the block), all 8 packets at once.
// The fixed-count loops here and below are unrolled by pragma: -O2 would
// otherwise keep block[] and lane[] on the stack and reload them.
inline void Absorb(const __m256i (&block)[8], __m512i (&lane)[4]) {
  __m512i word[4];
  Transpose8x4(block, word);
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    lane[j] = Mix64V8(_mm512_xor_si512(lane[j], word[j]));
  }
}

inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

bool VerifyChecksums8Avx512(const uint8_t* const* datas, std::size_t size,
                            uint8_t* ok) {
  if (!simd::Avx512Available()) return false;
  const std::size_t input = size - kWireChecksumSize;

  // x86-64 only (the guard above), so the loads are little-endian by
  // construction, matching ChecksumLoadLe64.
  __m512i lane[4] = {
      Broadcast8(kChecksumSeed0 ^ static_cast<uint64_t>(input)),
      Broadcast8(kChecksumSeed1), Broadcast8(kChecksumSeed2),
      Broadcast8(kChecksumSeed3)};
  __m256i block[8];
  const std::size_t blocks = input / 32;
  for (std::size_t b = 0; b < blocks; ++b) {
#pragma GCC unroll 8
    for (int p = 0; p < 8; ++p) {
      block[p] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(datas[p] + 32 * b));
    }
    Absorb(block, lane);
  }
  const std::size_t rem = input - 32 * blocks;
  if (rem != 0) {
    // Zero-padded tail block: the masked load reads only the packet's own
    // rem bytes and zeroes the rest (the scalar path pads identically).
    const __mmask32 tail = _cvtu32_mask32((1u << rem) - 1);
#pragma GCC unroll 8
    for (int p = 0; p < 8; ++p) {
      block[p] = _mm256_maskz_loadu_epi8(tail, datas[p] + 32 * blocks);
    }
    Absorb(block, lane);
  }

  const __m512i folded = _mm512_xor_si512(
      _mm512_xor_si512(Broadcast8(static_cast<uint64_t>(input)), lane[0]),
      _mm512_xor_si512(_mm512_rol_epi64(lane[1], 17),
                       _mm512_xor_si512(_mm512_rol_epi64(lane[2], 34),
                                        _mm512_rol_epi64(lane[3], 51))));
  // The checksum is the low 32 bits of each lane's Mix64 (vpmovqd
  // truncates); one compare against the eight stored trailers.
  const __m256i computed = _mm512_cvtepi64_epi32(Mix64V8(folded));
  const __m256i stored = _mm256_setr_epi32(
      static_cast<int>(LoadU32(datas[0] + input)),
      static_cast<int>(LoadU32(datas[1] + input)),
      static_cast<int>(LoadU32(datas[2] + input)),
      static_cast<int>(LoadU32(datas[3] + input)),
      static_cast<int>(LoadU32(datas[4] + input)),
      static_cast<int>(LoadU32(datas[5] + input)),
      static_cast<int>(LoadU32(datas[6] + input)),
      static_cast<int>(LoadU32(datas[7] + input)));
  const unsigned match = _mm256_cmpeq_epi32_mask(computed, stored);
  for (int p = 0; p < 8; ++p) ok[p] = static_cast<uint8_t>((match >> p) & 1u);
  return true;
}

#else  // !LDPIDS_AVX512_COMPILED

bool VerifyChecksums8Avx512(const uint8_t* const*, std::size_t, uint8_t*) {
  return false;
}

#endif

}  // namespace ldpids::wire_internal
