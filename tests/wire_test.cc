#include "fo/wire.h"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace ldpids {
namespace {

TEST(WireTest, GrrRoundTripAcrossDomainSizes) {
  for (std::size_t domain : {2u, 200u, 300u, 70000u, 100000u}) {
    const uint32_t value = static_cast<uint32_t>(domain - 1);
    const auto packet = EncodeGrrReport(value, domain, 42);
    DecodedReport report;
    ASSERT_EQ(TryDecodeReport(packet, domain, &report), WireError::kOk)
        << domain;
    EXPECT_EQ(report.oracle, OracleId::kGrr);
    EXPECT_EQ(report.timestamp, 42u);
    EXPECT_EQ(report.grr.value, value) << domain;
    EXPECT_EQ(packet.size(), EncodedReportSize(OracleId::kGrr, domain));
  }
}

TEST(WireTest, NonceRoundTripsAndIsPeekable) {
  const uint64_t nonce = 0x0123456789ABCDEFULL;
  const auto packet = EncodeOlhReport(7, 1, 3, nonce);
  DecodedReport report;
  ASSERT_EQ(TryDecodeReport(packet, 16, &report), WireError::kOk);
  EXPECT_EQ(report.nonce, nonce);
  // The peek needs only the header prefix and never validates the payload.
  uint64_t peeked = 0;
  ASSERT_TRUE(PeekWireNonce(packet.data(), packet.size(), &peeked));
  EXPECT_EQ(peeked, nonce);
  EXPECT_FALSE(PeekWireNonce(packet.data(), 8, &peeked));
  auto bad_magic = packet;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(PeekWireNonce(bad_magic.data(), bad_magic.size(), &peeked));
}

TEST(WireTest, GrrRejectsValueOutsideDomain) {
  EXPECT_THROW(EncodeGrrReport(5, 5, 0), std::invalid_argument);
}

TEST(WireTest, BitVectorRoundTrip) {
  std::vector<bool> bits(117);
  for (std::size_t k = 0; k < bits.size(); ++k) bits[k] = (k % 3 == 0);
  const auto packet = EncodeBitVectorReport(bits, OracleId::kOue, 7);
  DecodedReport report;
  ASSERT_EQ(TryDecodeReport(packet, 117, &report), WireError::kOk);
  EXPECT_EQ(report.oracle, OracleId::kOue);
  EXPECT_EQ(report.bits.bits, bits);
  EXPECT_EQ(packet.size(), EncodedReportSize(OracleId::kOue, 117));
}

TEST(WireTest, BitVectorOnlyForUnaryOracles) {
  EXPECT_THROW(EncodeBitVectorReport({true}, OracleId::kGrr, 0),
               std::invalid_argument);
}

TEST(WireTest, OlhRoundTrip) {
  const auto packet = EncodeOlhReport(0xDEADBEEFCAFEF00DULL, 3, 99);
  DecodedReport report;
  ASSERT_EQ(TryDecodeReport(packet, 16, &report), WireError::kOk);
  EXPECT_EQ(report.oracle, OracleId::kOlh);
  EXPECT_EQ(report.olh.seed, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(report.olh.bucket, 3u);
  EXPECT_EQ(report.timestamp, 99u);
}

TEST(WireTest, HrRoundTrip) {
  const auto packet = EncodeHrReport(127, 5);
  DecodedReport report;
  ASSERT_EQ(TryDecodeReport(packet, 128, &report), WireError::kOk);
  EXPECT_EQ(report.oracle, OracleId::kHr);
  EXPECT_EQ(report.hr.column, 127u);
}

TEST(WireTest, DetectsTruncation) {
  auto packet = EncodeGrrReport(1, 4, 0);
  packet.pop_back();
  DecodedReport report;
  EXPECT_EQ(TryDecodeReport(packet, 4, &report), WireError::kLengthMismatch);
  EXPECT_EQ(TryDecodeReport({}, 4, &report), WireError::kTooShort);
}

TEST(WireTest, DetectsBitFlips) {
  // Flip every byte position in turn; the decoder must reject each
  // corruption with the reason its field implies. Layout: magic, version,
  // oracle id, timestamp (3-6), nonce (7-14), payload length (15-18),
  // OLH payload (19-30), checksum (31-34).
  const auto original = EncodeOlhReport(123, 1, 17);
  ASSERT_EQ(original.size(), 35u);
  for (std::size_t i = 0; i < original.size(); ++i) {
    WireError want = WireError::kChecksumMismatch;
    if (i == 0) want = WireError::kBadMagic;
    if (i == 1) want = WireError::kBadVersion;
    if (i == 2) want = WireError::kUnknownOracle;
    if (i >= 15 && i <= 18) want = WireError::kLengthMismatch;
    auto corrupted = original;
    corrupted[i] ^= 0x40;
    DecodedReport report;
    EXPECT_EQ(TryDecodeReport(corrupted, 16, &report), want)
        << "byte " << i;
  }
  EXPECT_STREQ(WireErrorName(WireError::kBadMagic), "bad_magic");
}

TEST(WireTest, DetectsLengthMismatch) {
  auto packet = EncodeHrReport(1, 0);
  packet.insert(packet.end() - 4, 0xFF);  // extra payload byte, stale length
  DecodedReport report;
  EXPECT_EQ(TryDecodeReport(packet, 16, &report), WireError::kLengthMismatch);
}

TEST(WireTest, GrrDecodedValueMustFitDomain) {
  // Encode in a 256-value domain, decode claiming a 4-value domain: same
  // payload width, but the value 200 overflows.
  const auto packet = EncodeGrrReport(200, 256, 0);
  DecodedReport report;
  EXPECT_EQ(TryDecodeReport(packet, 4, &report),
            WireError::kValueOutOfDomain);
}

TEST(WireTest, ChecksumIsStable) {
  const uint8_t data[] = {1, 2, 3, 4};
  EXPECT_EQ(WireChecksum(data, 4), WireChecksum(data, 4));
  EXPECT_NE(WireChecksum(data, 4), WireChecksum(data, 3));
}

TEST(WireTest, HrReportIsSmallerThanOueForLargeDomains) {
  EXPECT_LT(EncodedReportSize(OracleId::kHr, 4096),
            EncodedReportSize(OracleId::kOue, 4096));
}

}  // namespace
}  // namespace ldpids
