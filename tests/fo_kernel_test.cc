// Bit-identity pinning of the vectorized frequency-oracle kernels.
//
// Two layers of pinning:
//   1. The fokernels primitives against naive scalar references — the FWHT
//      against the O(K^2) Hadamard sum, the OLH support scan against a
//      plain HashToBucket loop, the bit-column fold against per-bit
//      tallying, and EstimateAffine against the literal affine formula.
//   2. Every sketch's AddReports override against the scalar reference
//      (ReportAt + AddReport per row): identical num_users and EXACTLY
//      equal estimates (EXPECT_EQ on doubles — no tolerance), including
//      under shard merges and mixed AddUser/AddReports interleavings.
// The suite runs under both SIMD backends (the CI force-scalar job builds
// with -DLDPIDS_FORCE_SCALAR=ON), which pins avx2 == generic == scalar; on
// an AVX-512 host the dispatched AVX-512 kernels are pinned too.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fo/client.h"
#include "fo/fo_kernels.h"
#include "fo/fo_kernels_internal.h"
#include "fo/frequency_oracle.h"
#include "fo/olh.h"
#include "fo/report_arena.h"
#include "fo/wire.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/simd/avx512.h"

namespace ldpids {
namespace {

constexpr std::size_t kDomain = 100;  // crosses a 64-bit word boundary
constexpr double kEpsilon = 1.0;
constexpr uint32_t kRound = 4;

TEST(FoKernelTest, BackendNameIsReported) {
  const std::string name = fokernels::BackendName();
  EXPECT_TRUE(name == "avx2" || name == "generic") << name;
}

TEST(FoKernelTest, FwhtMatchesNaiveHadamardSum) {
  Rng rng(11);
  for (std::size_t n : {1u, 2u, 8u, 64u, 256u}) {
    std::vector<int64_t> a(n);
    for (auto& x : a) {
      x = static_cast<int64_t>(rng.UniformInt(2000)) - 1000;
    }
    std::vector<int64_t> want(n, 0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        const bool positive = (std::popcount(r & c) & 1) == 0;
        want[r] += positive ? a[c] : -a[c];
      }
    }
    std::vector<int64_t> got = a;
    fokernels::Fwht(got.data(), n);
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(FoKernelTest, OlhSupportScanMatchesHashToBucketLoop) {
  Rng rng(12);
  // Epsilons covering power-of-two g (4, 8) and odd g (3, 21).
  for (double eps : {0.5, 1.0, 2.0, 3.0}) {
    const uint64_t g = OlhOracle::BucketCount(eps);
    const std::size_t d = 37;
    const std::size_t count = 203;  // not a multiple of the lane width
    std::vector<uint64_t> seeds(count), buckets(count);
    for (std::size_t i = 0; i < count; ++i) {
      seeds[i] = rng.NextU64();
      buckets[i] = rng.UniformInt(g);
    }
    Counts want(d, 5);  // nonzero start: the kernel must accumulate
    for (std::size_t k = 0; k < d; ++k) {
      for (std::size_t i = 0; i < count; ++i) {
        want[k] += OlhOracle::HashToBucket(seeds[i],
                                           static_cast<uint32_t>(k), g) ==
                           buckets[i]
                       ? 1
                       : 0;
      }
    }
    Counts got(d, 5);
    fokernels::OlhSupportScan(seeds.data(), buckets.data(), count, d, g,
                              got.data());
    EXPECT_EQ(got, want) << "g=" << g;
  }
}

// Packed LSB-first rows for domain d, the padding bits past d zeroed as
// the arena repack guarantees.
std::vector<uint64_t> RandomBitRows(std::size_t d, std::size_t rows,
                                    Rng& rng) {
  const std::size_t words = (d + 63) / 64;
  std::vector<uint64_t> bit_words(rows * words);
  for (auto& w : bit_words) w = rng.NextU64();
  if (d % 64 != 0) {
    const uint64_t tail_mask = (uint64_t{1} << (d % 64)) - 1;
    for (std::size_t r = 0; r < rows; ++r) {
      bit_words[r * words + words - 1] &= tail_mask;
    }
  }
  return bit_words;
}

// Per-bit reference: counts start at 2 (the kernel must accumulate), then
// each listed row adds its bit k to bin k.
Counts TallyBits(const std::vector<uint64_t>& bit_words, std::size_t d,
                 const std::vector<uint32_t>& rows) {
  const std::size_t words = (d + 63) / 64;
  Counts want(d, 2);
  for (uint32_t r : rows) {
    for (std::size_t k = 0; k < d; ++k) {
      want[k] += (bit_words[r * words + k / 64] >> (k % 64)) & 1;
    }
  }
  return want;
}

// Pins one bit-column fold (same signature as fokernels::FoldBitColumns)
// against TallyBits: single-word, tail-word and multi-group domains, an
// indexed slice with a repeat, the identity slice, and long runs of rows
// setting the same bins (255, 256, 511 and 1000 hits per bin cross the
// AVX-512 kernel's byte-counter flush).
template <typename Fold>
void ExpectFoldMatchesTally(Fold fold) {
  Rng rng(13);
  for (std::size_t d :
       {1u, 3u, 63u, 64u, 65u, 100u, 130u, 256u, 1024u, 1025u, 4097u}) {
    const std::size_t words = (d + 63) / 64;
    const std::size_t rows = 29;
    const std::vector<uint64_t> bit_words = RandomBitRows(d, rows, rng);
    // A shuffled subset of rows, with a repeat.
    const std::vector<uint32_t> indices = {5, 0, 17, 28, 3, 5, 11};
    Counts got(d, 2);
    fold(bit_words.data(), words, indices.data(), indices.size(), d,
         got.data());
    EXPECT_EQ(got, TallyBits(bit_words, d, indices)) << "indexed d=" << d;

    std::vector<uint32_t> all(rows);
    for (std::size_t r = 0; r < rows; ++r) all[r] = static_cast<uint32_t>(r);
    Counts got_all(d, 2);
    fold(bit_words.data(), words, nullptr, rows, d, got_all.data());
    EXPECT_EQ(got_all, TallyBits(bit_words, d, all)) << "identity d=" << d;
  }
  for (std::size_t d : {65u, 256u, 1025u}) {
    const std::size_t words = (d + 63) / 64;
    std::vector<uint64_t> row = RandomBitRows(d, 1, rng);
    row[0] = ~uint64_t{0};  // bins 0..63 all hit on every row
    for (std::size_t n : {255u, 256u, 511u, 1000u}) {
      std::vector<uint64_t> bit_words;
      for (std::size_t r = 0; r < n; ++r) {
        bit_words.insert(bit_words.end(), row.begin(), row.end());
      }
      std::vector<uint32_t> all(n);
      for (std::size_t r = 0; r < n; ++r) all[r] = static_cast<uint32_t>(r);
      const Counts want = TallyBits(bit_words, d, all);
      ASSERT_EQ(want[0], 2 + n);
      Counts got(d, 2);
      fold(bit_words.data(), words, nullptr, n, d, got.data());
      EXPECT_EQ(got, want) << "identity d=" << d << " rows=" << n;
      // The same row n times through the index list.
      const std::vector<uint32_t> same(n, 0);
      Counts got_same(d, 2);
      fold(bit_words.data(), words, same.data(), n, d, got_same.data());
      EXPECT_EQ(got_same, want) << "repeated d=" << d << " rows=" << n;
    }
  }
}

TEST(FoKernelTest, FoldBitColumnsMatchesPerBitTally) {
  ExpectFoldMatchesTally(fokernels::FoldBitColumns);
}

// The dispatcher above runs only one path per host, so the two kernels
// behind it are pinned directly as well: an AVX-512 host still checks the
// 4-lane loop that AVX2-only and FORCE_SCALAR hosts run.
TEST(FoKernelTest, FoldBitColumns4LaneMatchesPerBitTally) {
  ExpectFoldMatchesTally(fokernels::internal::FoldBitColumns4Lane);
}

TEST(FoKernelTest, FoldBitColumnsAvx512MatchesPerBitTally) {
  if (!simd::Avx512Available()) {
    GTEST_SKIP() << "AVX-512 kernels not compiled in or not supported by "
                    "this CPU";
  }
  ExpectFoldMatchesTally([](const uint64_t* bit_words, std::size_t words,
                            const uint32_t* indices, std::size_t count,
                            std::size_t d, uint64_t* counts) {
    ASSERT_TRUE(fokernels::internal::FoldBitColumnsAvx512(
        bit_words, words, indices, count, d, counts));
  });
}

TEST(FoKernelTest, EstimateAffineMatchesScalarFormulaExactly) {
  Rng rng(14);
  for (std::size_t d : {1u, 4u, 7u, 100u}) {
    Counts counts(d);
    for (auto& c : counts) c = rng.UniformInt(1u << 20);
    const double inv_n = 1.0 / 48611.0;
    const double q = 0.217;
    const double denom = 0.3341;
    Histogram want(d), got(d);
    for (std::size_t k = 0; k < d; ++k) {
      want[k] = (static_cast<double>(counts[k]) * inv_n - q) / denom;
    }
    fokernels::EstimateAffine(counts.data(), d, inv_n, q, denom, got.data());
    for (std::size_t k = 0; k < d; ++k) {
      EXPECT_EQ(got[k], want[k]) << "d=" << d << " k=" << k;
    }
  }
}

// --- sketch-level pinning --------------------------------------------------

class FoSketchBatchTest : public ::testing::TestWithParam<std::string> {};

// One round's worth of valid packets for the oracle, staged in an arena.
void StageRound(OracleId oracle, std::size_t n, ReportArena* arena,
                std::vector<uint32_t>* indices) {
  Rng rng(HashCounter(99, static_cast<uint64_t>(oracle), n));
  std::vector<std::vector<uint8_t>> packets;
  packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t v = static_cast<uint32_t>(rng.UniformInt(kDomain));
    packets.push_back(PerturbToWire(oracle, v, kEpsilon, kDomain, kRound,
                                    1000 + i, rng));
  }
  arena->BeginRound(oracle, kRound, {kEpsilon, kDomain});
  arena->AppendBatch(packets);
  ASSERT_EQ(arena->size(), n);
  indices->resize(n);
  for (std::size_t i = 0; i < n; ++i) (*indices)[i] = static_cast<uint32_t>(i);
}

void ExpectIdenticalEstimates(const FoSketch& a, const FoSketch& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  Histogram ha, hb;
  a.EstimateInto(&ha);
  b.EstimateInto(&hb);
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t k = 0; k < ha.size(); ++k) {
    EXPECT_EQ(ha[k], hb[k]) << "bin " << k;  // exact, no tolerance
  }
}

TEST_P(FoSketchBatchTest, AddReportsMatchesScalarAddReportLoop) {
  const FrequencyOracle& fo = GetFrequencyOracle(GetParam());
  const OracleId oracle = OracleIdFromName(GetParam());
  ReportArena arena;
  std::vector<uint32_t> indices;
  StageRound(oracle, 257, &arena, &indices);

  auto vec = fo.CreateSketch({kEpsilon, kDomain});
  vec->AddReports(ArenaSlice{&arena, indices.data(), indices.size()});

  auto scalar = fo.CreateSketch({kEpsilon, kDomain});
  DecodedReport r;
  for (uint32_t i : indices) {
    arena.ReportAt(i, &r);
    ASSERT_TRUE(scalar->AddReport(r));
  }

  ExpectIdenticalEstimates(*vec, *scalar);
}

TEST_P(FoSketchBatchTest, MergedSliceHalvesMatchWholeSlice) {
  const FrequencyOracle& fo = GetFrequencyOracle(GetParam());
  const OracleId oracle = OracleIdFromName(GetParam());
  ReportArena arena;
  std::vector<uint32_t> indices;
  StageRound(oracle, 250, &arena, &indices);
  const std::size_t half = indices.size() / 2;

  auto whole = fo.CreateSketch({kEpsilon, kDomain});
  whole->AddReports(ArenaSlice{&arena, indices.data(), indices.size()});

  auto left = fo.CreateSketch({kEpsilon, kDomain});
  left->AddReports(ArenaSlice{&arena, indices.data(), half});
  auto right = fo.CreateSketch({kEpsilon, kDomain});
  right->AddReports(
      ArenaSlice{&arena, indices.data() + half, indices.size() - half});
  left->MergeFrom(*right);

  ExpectIdenticalEstimates(*whole, *left);
}

TEST_P(FoSketchBatchTest, InterleavedAddUserAndAddReportsMatchesScalar) {
  // Simulated local users (AddUser) and wire reports (AddReports) feed the
  // same sketch; the batched path must leave the estimate exactly where
  // the per-report path does. Separate RNGs with one seed keep the
  // AddUser draws identical on both sides.
  const FrequencyOracle& fo = GetFrequencyOracle(GetParam());
  const OracleId oracle = OracleIdFromName(GetParam());
  ReportArena arena;
  std::vector<uint32_t> indices;
  StageRound(oracle, 120, &arena, &indices);
  const std::size_t half = indices.size() / 2;

  Rng rng_vec(321), rng_scalar(321);
  auto vec = fo.CreateSketch({kEpsilon, kDomain});
  auto scalar = fo.CreateSketch({kEpsilon, kDomain});
  DecodedReport r;

  for (uint32_t v = 0; v < 31; ++v) vec->AddUser(v % kDomain, rng_vec);
  vec->AddReports(ArenaSlice{&arena, indices.data(), half});
  for (uint32_t v = 0; v < 17; ++v) vec->AddUser(v % kDomain, rng_vec);
  vec->AddReports(
      ArenaSlice{&arena, indices.data() + half, indices.size() - half});

  for (uint32_t v = 0; v < 31; ++v) scalar->AddUser(v % kDomain, rng_scalar);
  for (std::size_t i = 0; i < half; ++i) {
    arena.ReportAt(indices[i], &r);
    ASSERT_TRUE(scalar->AddReport(r));
  }
  for (uint32_t v = 0; v < 17; ++v) scalar->AddUser(v % kDomain, rng_scalar);
  for (std::size_t i = half; i < indices.size(); ++i) {
    arena.ReportAt(indices[i], &r);
    ASSERT_TRUE(scalar->AddReport(r));
  }

  ExpectIdenticalEstimates(*vec, *scalar);
}

INSTANTIATE_TEST_SUITE_P(AllOracles, FoSketchBatchTest,
                         ::testing::Values("GRR", "OUE", "OLH", "SUE", "HR"));

}  // namespace
}  // namespace ldpids
