// Shared vectorized kernels for the frequency-oracle hot loops.
//
// Every sketch's AddReports/EstimateInto override bottoms out in one of
// these four routines, so the bit-identity story lives in exactly one
// place. Each kernel is specified as a scalar loop (documented below) and
// implemented over the 4-lane SIMD layer (util/simd/simd.h) with a scalar
// tail; the bit-column fold and the OLH scan also dispatch at runtime to
// AVX-512 kernels (fo_kernels_avx512.cc). tests/fo_kernel_test.cc pins
// every path against the scalar reference on both backends.
//
// Floating-point contract: EstimateAffine performs, per bin, exactly
//   est[k] = (double(count[k]) * inv_n - q) / denom
// with one multiply, one subtract, one divide — no FMA contraction (the
// build compiles with -ffp-contract=off and the kernel never calls fused
// ops). This keeps estimates byte-identical across backends and to the
// pre-columnar scalar loops, which used the same operation sequence.
#ifndef LDPIDS_FO_FO_KERNELS_H_
#define LDPIDS_FO_FO_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace ldpids::fokernels {

// est[k] = (double(counts[k]) * inv_n - q) / denom  for k in [0, d).
// The exact affine estimator shared by all five oracles; only (q, denom)
// differ per oracle.
void EstimateAffine(const uint64_t* counts, std::size_t d, double inv_n,
                    double q, double denom, double* est);

// Unary-encoding fold (OUE/SUE): for each staged row r in indices[0..count),
// add bit k of its packed LSB-first bit vector to counts[k], for k < d.
// bit_words is the arena's row-major column block, words_per_report u64
// words per row; padding bits past d never reach a count, and no count at
// or past d is written. indices == nullptr folds rows 0..count
// contiguously (the identity ArenaSlice shape). Dispatches to the AVX-512
// byte-counter fold (fo_kernels_avx512.cc) when the CPU has it.
void FoldBitColumns(const uint64_t* bit_words, std::size_t words_per_report,
                    const uint32_t* indices, std::size_t count, std::size_t d,
                    uint64_t* counts);

// OLH support scan: for each value k in [0, d) and each pending report i in
// [0, count), add 1 to support_counts[k] when
//   HashCounter(seeds[i], k, kOlhHashStream) % g == buckets[i].
// Value-major so the per-k hash constants are loop-invariant. Every g >= 1
// dispatches to the AVX-512 scan when the CPU has it (exact divisibility
// test, fo_kernels_internal.h's BucketDivisor); the 4-lane scan uses the
// exact Granlund–Montgomery `% g` (util/fastdiv.h). Either way every pair
// compares precisely HashToBucket(seed, k, g).
void OlhSupportScan(const uint64_t* seeds, const uint64_t* buckets,
                    std::size_t count, std::size_t d, uint64_t g,
                    uint64_t* support_counts);

// In-place Walsh–Hadamard transform of data[0..n), n a power of two, using
// the unnormalized butterfly (u, v) -> (u + v, u - v). Exact in int64 for
// the column-count magnitudes HR feeds it.
void Fwht(int64_t* data, std::size_t n);

}  // namespace ldpids::fokernels

#endif  // LDPIDS_FO_FO_KERNELS_H_
