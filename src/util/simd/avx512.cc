#include "util/simd/avx512.h"

namespace ldpids::simd {

bool Avx512Available() {
#if defined(LDPIDS_AVX512_COMPILED) && defined(__x86_64__)
  // The kernels use 64-bit lane compares and _mm512_mullo_epi64 (DQ),
  // byte masks and byte-masked loads (BW), and VL keeps the compiler free
  // to narrow; require all four.
  static const bool available = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512dq") &&
                                __builtin_cpu_supports("avx512vl") &&
                                __builtin_cpu_supports("avx512bw");
  return available;
#else
  return false;
#endif
}

}  // namespace ldpids::simd
