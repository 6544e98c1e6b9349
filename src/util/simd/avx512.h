// Optional AVX-512 widening of the SIMD layer: 8-lane u64 helpers used by
// the hottest batched kernels (wire-checksum verification, OLH support
// scan, OUE/SUE bit fold). Unlike util/simd/simd.h this is NOT a portable backend — the
// helpers exist only in translation units compiled with the AVX-512 flags
// (CMake marks those sources and defines LDPIDS_AVX512_COMPILED), and every
// caller dispatches through a kernel that falls back to the 4-lane path, so
// builds without the ISA and the forced-scalar backend are unaffected.
//
// Bit-identity: the 8-lane Mix64V8 below is the exact SplitMix64 finalizer
// (util/rng.cc Mix64, replicated 4-wide in util/simd/mix64.h) — the AVX-512
// kernels reorder independent per-packet/per-report work only, never the
// arithmetic inside one hash, so every result is byte-identical to the
// portable backends (pinned by wire_fuzz_test and fo_kernel_test).
#ifndef LDPIDS_UTIL_SIMD_AVX512_H_
#define LDPIDS_UTIL_SIMD_AVX512_H_

#include <cstdint>

namespace ldpids::simd {

// True when the build compiled the AVX-512 translation units AND the
// running CPU supports AVX-512 F/DQ/VL/BW. Cheap (cached) — kernels call it
// on every dispatch.
bool Avx512Available();

}  // namespace ldpids::simd

#if defined(LDPIDS_AVX512_COMPILED) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)

#include <immintrin.h>

namespace ldpids::simd {

inline __m512i Broadcast8(uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

// The SplitMix64 finalizer across 8 lanes; must stay in lockstep with
// Mix64 (util/rng.cc) and Mix64V (util/simd/mix64.h).
inline __m512i Mix64V8(__m512i x) {
  __m512i z = _mm512_add_epi64(x, Broadcast8(0x9E3779B97F4A7C15ULL));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         Broadcast8(0xBF58476D1CE4E5B9ULL));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         Broadcast8(0x94D049BB133111EBULL));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

}  // namespace ldpids::simd

#endif  // LDPIDS_AVX512_COMPILED && __AVX512F__ && __AVX512DQ__

#endif  // LDPIDS_UTIL_SIMD_AVX512_H_
