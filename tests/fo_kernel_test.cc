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

// Mix64 (util/rng.cc) run backwards: every step of the finalizer is a
// bijection on u64. BucketDivisor(m).q_inv is m's inverse for odd m.
uint64_t UnMix64(uint64_t z) {
  const auto unxorshift = [](uint64_t y, int s) {
    uint64_t x = y;
    for (int i = s; i < 64; i += s) x ^= y >> i;
    return x;
  };
  z = unxorshift(z, 31);
  z *= fokernels::internal::BucketDivisor(0x94D049BB133111EBULL).q_inv;
  z = unxorshift(z, 27);
  z *= fokernels::internal::BucketDivisor(0xBF58476D1CE4E5B9ULL).q_inv;
  z = unxorshift(z, 30);
  return z - 0x9E3779B97F4A7C15ULL;
}

// A seed whose OLH hash at value k is exactly h. Clients choose their
// seeds, so a forged report can put any h in front of the scan.
uint64_t SeedHashingTo(uint64_t h, uint32_t k) {
  using namespace fokernels::internal;
  const uint64_t x1 = UnMix64(h) ^ (kOlhHashStream * kMulB + kStreamB);
  const uint64_t seed = UnMix64(x1) ^ (uint64_t{k} * kGolden + kStreamA);
  EXPECT_EQ(HashCounter(seed, k, kOlhHashStream), h);
  return seed;
}

// Adds scan(seeds, buckets) over d = 1 and 37 to counts starting at 5 and
// compares with a plain HashToBucket loop.
template <typename Scan>
void ExpectScanCounts(Scan scan, const std::vector<uint64_t>& seeds,
                      const std::vector<uint64_t>& buckets, uint64_t g,
                      const char* what) {
  for (std::size_t d : {1u, 37u}) {
    Counts want(d, 5);
    for (std::size_t k = 0; k < d; ++k) {
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        want[k] += OlhOracle::HashToBucket(seeds[i], static_cast<uint32_t>(k),
                                           g) == buckets[i]
                       ? 1
                       : 0;
      }
    }
    Counts got(d, 5);
    scan(seeds.data(), buckets.data(), seeds.size(), d, g, got.data());
    EXPECT_EQ(got, want) << what << " g=" << g << " count=" << seeds.size()
                         << " d=" << d;
  }
}

// Pins one OLH support scan (same signature as fokernels::OlhSupportScan)
// against a plain HashToBucket loop: bucket counts on both sides of the
// power-of-two rule, report counts on both sides of the 8-lane and
// 64-report steps, and d = 1 and 37, all from nonzero start counts. Every
// 13th random report carries a bucket at or past g, which no hash may
// match. Forged seeds put the hash at value 0 where only an exact rule
// holds: h < b with h - b wrapping to the largest multiple of g, h == b,
// and b plus the largest multiple of g.
template <typename Scan>
void ExpectScanMatchesHashToBucket(Scan scan) {
  Rng rng(12);
  for (uint64_t g : {2u, 3u, 4u, 5u, 6u, 8u, 12u, 21u}) {
    for (std::size_t count :
         {0u, 1u, 7u, 8u, 63u, 64u, 65u, 203u, 512u, 513u}) {
      std::vector<uint64_t> seeds(count), buckets(count);
      for (std::size_t i = 0; i < count; ++i) {
        seeds[i] = rng.NextU64();
        buckets[i] = i % 13 == 5 ? g + rng.UniformInt(3) : rng.UniformInt(g);
      }
      ExpectScanCounts(scan, seeds, buckets, g, "random");
    }
    const fokernels::internal::BucketDivisor div(g);
    const uint64_t r = 0 - g * div.limit;  // 2^64 - g * limit
    std::vector<uint64_t> seeds, buckets;
    while (seeds.size() < 130) {  // two 64-report steps and a tail
      for (uint64_t b = 0; b < g + 2; ++b) {
        for (uint64_t h : {b - r, b, b + g * div.limit}) {
          seeds.push_back(SeedHashingTo(h, 0));
          buckets.push_back(b);
        }
      }
    }
    ExpectScanCounts(scan, seeds, buckets, g, "forged");
  }
}

TEST(FoKernelTest, OlhSupportScanMatchesHashToBucketLoop) {
  ExpectScanMatchesHashToBucket(fokernels::OlhSupportScan);
}

// As with the fold below, both kernels behind the dispatcher are pinned
// directly, so an AVX-512 host still checks the 4-lane scan.
TEST(FoKernelTest, OlhSupportScanAvx512MatchesHashToBucketLoop) {
  if (!simd::Avx512Available()) {
    GTEST_SKIP() << "AVX-512 kernels not compiled in or not supported by "
                    "this CPU";
  }
  ExpectScanMatchesHashToBucket(
      [](const uint64_t* seeds, const uint64_t* buckets, std::size_t count,
         std::size_t d, uint64_t g, uint64_t* counts) {
        ASSERT_TRUE(fokernels::internal::OlhSupportScanAvx512(
            seeds, buckets, count, d, g, counts));
      });
}

TEST(FoKernelTest, OlhSupportScan4LaneMatchesHashToBucketLoop) {
  ExpectScanMatchesHashToBucket(fokernels::internal::OlhSupportScan4Lane);
}

// BucketDivisor::Matches against `h % g == b` on the inputs a hash almost
// never produces: h < b, h - b wrapping to a multiple of g near 2^64, and
// b >= g, which must never match.
TEST(FoKernelTest, BucketDivisorMatchesModuloOnEdgeValues) {
  constexpr uint64_t kMax = ~uint64_t{0};
  Rng rng(14);
  for (uint64_t g : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4},
                     uint64_t{5}, uint64_t{6}, uint64_t{7}, uint64_t{12},
                     uint64_t{21}, uint64_t{1000003}, uint64_t{3} << 40,
                     uint64_t{1} << 63, (uint64_t{1} << 63) + 1,
                     uint64_t{3} << 62, kMax}) {
    const fokernels::internal::BucketDivisor div(g);
    std::size_t matches = 0;
    const auto check = [&](uint64_t h, uint64_t b) {
      const bool want = h % g == b;
      matches += want ? 1 : 0;
      EXPECT_EQ(div.Matches(h, b), want) << "g=" << g << " h=" << h
                                         << " b=" << b;
    };
    // Small h and b, so h < b and b >= g both occur for every small g.
    for (uint64_t h = 0; h < 64; ++h) {
      for (uint64_t b = 0; b < 32; ++b) check(h, b);
    }
    // r = 2^64 - g * floor((2^64 - 1) / g): h = b - r wraps h - b to the
    // largest multiple of g, so only h >= b rejects it.
    const uint64_t r = 0 - g * div.limit;
    for (const uint64_t b : {uint64_t{0}, uint64_t{1}, r, r + 1, g - 1, g,
                             g + 1, 2 * g, kMax - 1, kMax}) {
      check(b - r, b);
      check(b - 1, b);
      // h = b + g * m for m up to limit, so h nears 2^64: a match exactly
      // when b < g and the sum does not wrap.
      for (const uint64_t m : {uint64_t{0}, uint64_t{1}, uint64_t{2},
                               div.limit - 1, div.limit}) {
        check(b + g * m, b);
        check(b + g * m + 1, b);
      }
    }
    // Hash-like h with buckets on both sides of g.
    for (int n = 0; n < 2000; ++n) {
      const uint64_t h = rng.NextU64();
      check(h, h % g);
      check(h, (h % g + 1) % g);
      check(h, g + rng.UniformInt(3));
    }
    EXPECT_GT(matches, 0u) << "g=" << g;
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
