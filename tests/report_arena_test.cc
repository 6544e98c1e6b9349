// ReportArena must classify packets exactly like the per-packet decode
// (same reasons, same order: malformed, then wrong oracle, then wrong
// timestamp) and must reconstruct every staged row losslessly. These
// tests replicate that classification with TryDecodeReport and diff the
// arena against it packet for packet.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fo/client.h"
#include "fo/hr.h"
#include "fo/olh.h"
#include "fo/report_arena.h"
#include "fo/wire.h"
#include "util/rng.h"

namespace ldpids {
namespace {

constexpr std::size_t kDomain = 61;
constexpr double kEpsilon = 1.0;
constexpr uint32_t kRound = 9;

// A batch exercising every classification: valid rows for the round,
// other-oracle and other-round packets, corruption, truncation, garbage,
// and wire-valid but out-of-range OLH/HR payloads.
std::vector<std::vector<uint8_t>> MixedBatch(OracleId round_oracle) {
  std::vector<std::vector<uint8_t>> packets;
  Rng rng(2026);
  uint64_t nonce = 1;
  for (OracleId oracle : AllOracleIds()) {
    for (int i = 0; i < 17; ++i) {
      const uint32_t v = static_cast<uint32_t>(rng.UniformInt(kDomain));
      packets.push_back(PerturbToWire(oracle, v, kEpsilon, kDomain, kRound,
                                      nonce++, rng));
    }
    // Same oracle, different round.
    packets.push_back(PerturbToWire(oracle, 0, kEpsilon, kDomain, kRound + 3,
                                    nonce++, rng));
  }
  // Out-of-range payloads that decode fine at wire level: the arena must
  // keep the row and clear in_range instead of rejecting.
  if (round_oracle == OracleId::kOlh) {
    packets.push_back(EncodeOlhReport(7, 4000, kRound, nonce++));
  }
  if (round_oracle == OracleId::kHr) {
    packets.push_back(EncodeHrReport(99999, kRound, nonce++));
  }
  // Corrupted copies of a few valid packets.
  for (std::size_t i = 0; i < 6; ++i) {
    auto bad = packets[i * 7 % packets.size()];
    bad[rng.UniformInt(bad.size())] ^=
        static_cast<uint8_t>(1 + rng.UniformInt(255));
    packets.push_back(std::move(bad));
  }
  // Truncations and garbage.
  packets.push_back({});
  packets.push_back({0xAD});
  std::vector<uint8_t> garbage(23);
  for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextU64());
  packets.push_back(std::move(garbage));
  return packets;
}

bool ReportsEqual(const DecodedReport& a, const DecodedReport& b) {
  if (a.oracle != b.oracle || a.timestamp != b.timestamp ||
      a.nonce != b.nonce) {
    return false;
  }
  switch (a.oracle) {
    case OracleId::kGrr:
      return a.grr.value == b.grr.value;
    case OracleId::kOue:
    case OracleId::kSue:
      return a.bits.bits == b.bits.bits;
    case OracleId::kOlh:
      return a.olh.seed == b.olh.seed && a.olh.bucket == b.olh.bucket;
    case OracleId::kHr:
      return a.hr.column == b.hr.column;
  }
  return false;
}

TEST(ReportArenaTest, ClassificationMatchesPerPacketDecodeForEveryOracle) {
  for (OracleId oracle : AllOracleIds()) {
    const auto packets = MixedBatch(oracle);

    // Reference classification, one TryDecodeReport per packet.
    ArenaDecodeStats want;
    std::vector<DecodedReport> want_rows;
    for (const auto& p : packets) {
      DecodedReport r;
      const WireError err = TryDecodeReport(p, kDomain, &r);
      if (err != WireError::kOk) {
        ++want.malformed;
        ++want.wire_error(err);
      } else if (r.oracle != oracle) {
        ++want.wrong_oracle;
      } else if (r.timestamp != kRound) {
        ++want.wrong_timestamp;
      } else {
        ++want.decoded;
        want_rows.push_back(r);
      }
    }

    ReportArena arena;
    arena.BeginRound(oracle, kRound, {kEpsilon, kDomain});
    arena.AppendBatch(packets);

    EXPECT_EQ(arena.stats().decoded, want.decoded);
    EXPECT_EQ(arena.stats().malformed, want.malformed);
    EXPECT_EQ(arena.stats().wrong_oracle, want.wrong_oracle);
    EXPECT_EQ(arena.stats().wrong_timestamp, want.wrong_timestamp);
    EXPECT_EQ(arena.stats().total(), packets.size());
    for (std::size_t e = 1; e < kWireErrorCount; ++e) {
      const WireError err = static_cast<WireError>(e);
      EXPECT_EQ(arena.stats().wire_error(err), want.wire_error(err))
          << WireErrorName(err);
    }

    // Rows are the surviving packets, in packet order, reconstructible
    // bit-for-bit.
    ASSERT_EQ(arena.size(), want_rows.size());
    DecodedReport got;
    for (std::size_t i = 0; i < arena.size(); ++i) {
      arena.ReportAt(i, &got);
      EXPECT_TRUE(ReportsEqual(got, want_rows[i])) << "row " << i;
      EXPECT_EQ(arena.nonces()[i], want_rows[i].nonce);
    }
  }
}

TEST(ReportArenaTest, InRangeFlagsMirrorTheSketchRangeCheck) {
  {
    ReportArena arena;
    arena.BeginRound(OracleId::kOlh, kRound, {kEpsilon, kDomain});
    const uint64_t g = OlhOracle::BucketCount(kEpsilon);
    arena.Append(EncodeOlhReport(1, static_cast<uint32_t>(g - 1), kRound, 1));
    arena.Append(EncodeOlhReport(2, static_cast<uint32_t>(g), kRound, 2));
    ASSERT_EQ(arena.size(), 2u);
    EXPECT_EQ(arena.in_range()[0], 1);
    EXPECT_EQ(arena.in_range()[1], 0);
  }
  {
    ReportArena arena;
    arena.BeginRound(OracleId::kHr, kRound, {kEpsilon, kDomain});
    const uint64_t k = HrOracle::HadamardSize(kDomain);
    arena.Append(EncodeHrReport(static_cast<uint32_t>(k - 1), kRound, 1));
    arena.Append(EncodeHrReport(static_cast<uint32_t>(k), kRound, 2));
    ASSERT_EQ(arena.size(), 2u);
    EXPECT_EQ(arena.in_range()[0], 1);
    EXPECT_EQ(arena.in_range()[1], 0);
  }
}

TEST(ReportArenaTest, ConcatOfChunkDecodesMatchesSingleDecode) {
  for (OracleId oracle : AllOracleIds()) {
    const auto packets = MixedBatch(oracle);
    const FoParams params{kEpsilon, kDomain};

    ReportArena whole;
    whole.BeginRound(oracle, kRound, params);
    whole.AppendBatch(packets);

    ReportArena merged;
    merged.BeginRound(oracle, kRound, params);
    const std::size_t cut1 = packets.size() / 3;
    const std::size_t cut2 = 2 * packets.size() / 3;
    ReportArena chunk;
    for (auto [begin, end] : {std::pair<std::size_t, std::size_t>{0, cut1},
                              {cut1, cut2},
                              {cut2, packets.size()}}) {
      chunk.BeginRound(oracle, kRound, params);
      chunk.AppendRange(packets, begin, end);
      merged.Concat(chunk);
    }

    ASSERT_EQ(merged.size(), whole.size());
    EXPECT_EQ(merged.stats().decoded, whole.stats().decoded);
    EXPECT_EQ(merged.stats().malformed, whole.stats().malformed);
    EXPECT_EQ(merged.stats().wrong_oracle, whole.stats().wrong_oracle);
    EXPECT_EQ(merged.stats().wrong_timestamp, whole.stats().wrong_timestamp);
    DecodedReport a, b;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      whole.ReportAt(i, &a);
      merged.ReportAt(i, &b);
      EXPECT_TRUE(ReportsEqual(a, b)) << "row " << i;
      EXPECT_EQ(merged.in_range()[i], whole.in_range()[i]) << "row " << i;
    }
  }
}

TEST(ReportArenaTest, ConcatRejectsMismatchedConfiguration) {
  ReportArena a, b;
  a.BeginRound(OracleId::kGrr, kRound, {kEpsilon, kDomain});
  b.BeginRound(OracleId::kGrr, kRound + 1, {kEpsilon, kDomain});
  EXPECT_THROW(a.Concat(b), std::invalid_argument);
  b.BeginRound(OracleId::kOue, kRound, {kEpsilon, kDomain});
  EXPECT_THROW(a.Concat(b), std::invalid_argument);
}

}  // namespace
}  // namespace ldpids
