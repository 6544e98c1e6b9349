// Fuzz-ish wire-protocol regression: the non-throwing decoders must
// survive arbitrary corruption without crashing, must never accept a
// packet whose checksum does not validate, and must round-trip every
// oracle's payload exactly.
//
// Deterministically seeded, so a pass is reproducible — this is a
// regression net over the decoder's bounds handling, not a statistical
// test.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fo/client.h"
#include "fo/frequency_oracle.h"
#include "fo/report_arena.h"
#include "fo/sketch_wire.h"
#include "fo/wire.h"
#include "transport/frame.h"
#include "util/rng.h"

namespace ldpids {
namespace {

constexpr std::size_t kDomain = 117;
constexpr double kEpsilon = 1.0;

std::vector<std::vector<uint8_t>> SamplePackets() {
  std::vector<std::vector<uint8_t>> packets;
  Rng rng(2024);
  for (OracleId oracle : AllOracleIds()) {
    for (uint32_t v : {0u, 1u, 57u, static_cast<uint32_t>(kDomain - 1)}) {
      packets.push_back(
          PerturbToWire(oracle, v, kEpsilon, kDomain, 9, v, rng));
    }
  }
  return packets;
}

TEST(WireFuzzTest, RoundTripIsExactForEveryOracle) {
  Rng rng(7);
  for (OracleId oracle : AllOracleIds()) {
    for (int trial = 0; trial < 50; ++trial) {
      const uint32_t value =
          static_cast<uint32_t>(rng.UniformInt(kDomain));
      const uint32_t timestamp = static_cast<uint32_t>(rng.NextU64());
      // Re-perturb with a recorded RNG so the expected report is known.
      Rng record(HashCounter(1, trial, static_cast<uint64_t>(oracle)));
      Rng replay(HashCounter(1, trial, static_cast<uint64_t>(oracle)));
      const uint64_t nonce = rng.NextU64();
      const auto packet = PerturbToWire(oracle, value, kEpsilon, kDomain,
                                        timestamp, nonce, record);
      DecodedReport report;
      ASSERT_EQ(TryDecodeReport(packet, kDomain, &report), WireError::kOk);
      EXPECT_EQ(report.oracle, oracle);
      EXPECT_EQ(report.timestamp, timestamp);
      EXPECT_EQ(report.nonce, nonce);
      // Decoding the same client draw again must produce an identical
      // packet: encode -> decode -> re-encode is the identity.
      const auto re_encoded = PerturbToWire(oracle, value, kEpsilon,
                                            kDomain, timestamp, nonce,
                                            replay);
      EXPECT_EQ(packet, re_encoded);
      EXPECT_EQ(packet.size(), EncodedReportSize(oracle, kDomain));
    }
  }
}

TEST(WireFuzzTest, SingleByteCorruptionIsAlwaysRejected) {
  // Flip random bit patterns at every byte position of every oracle's
  // packet; TryDecodeReport must reject each one (and must not throw).
  for (const auto& original : SamplePackets()) {
    Rng rng(33);
    for (std::size_t pos = 0; pos < original.size(); ++pos) {
      for (int trial = 0; trial < 8; ++trial) {
        auto corrupted = original;
        const uint8_t mask =
            static_cast<uint8_t>(1 + rng.UniformInt(255));  // never 0
        corrupted[pos] ^= mask;
        DecodedReport report;
        WireError err = WireError::kOk;
        ASSERT_NO_THROW(
            err = TryDecodeReport(corrupted, kDomain, &report));
        EXPECT_NE(err, WireError::kOk)
            << "byte " << pos << " mask " << static_cast<int>(mask);
      }
    }
  }
}

TEST(WireFuzzTest, EveryTruncationIsRejected) {
  for (const auto& original : SamplePackets()) {
    for (std::size_t len = 0; len < original.size(); ++len) {
      std::vector<uint8_t> truncated(original.begin(),
                                     original.begin() + len);
      DecodedReport report;
      WireError err = WireError::kOk;
      ASSERT_NO_THROW(err = TryDecodeReport(truncated, kDomain, &report));
      EXPECT_NE(err, WireError::kOk) << "length " << len;
    }
    // Extension without fixing the declared length must be rejected too.
    auto extended = original;
    extended.push_back(0x00);
    DecodedReport report;
    EXPECT_EQ(TryDecodeReport(extended, kDomain, &report),
              WireError::kLengthMismatch);
  }
}

TEST(WireFuzzTest, RandomGarbageNeverDecodes) {
  Rng rng(4096);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> garbage(rng.UniformInt(64));
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    DecodedReport report;
    WireError err = WireError::kOk;
    ASSERT_NO_THROW(err = TryDecodeReport(garbage, kDomain, &report));
    EXPECT_NE(err, WireError::kOk);
  }
}

// --- checksum parity (fo/wire.cc WireChecksum) ----------------------------
// The checksum runs over the SIMD layer, so its value must be identical on
// every backend. This reference reimplements the algorithm with plain
// scalar arithmetic and no shared code: four SplitMix64 lanes absorbing
// little-endian words of 32-byte blocks, a zero-padded tail block, and a
// size+rotation lane fold. Both backends are fuzzed against it (the CI
// force-scalar job runs this file on generic), and golden values pin the
// on-the-wire function across platforms and future refactors.

uint64_t ReferenceMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint32_t ReferenceChecksum(const uint8_t* data, std::size_t size) {
  uint64_t lane[4] = {0x243F6A8885A308D3ULL ^ static_cast<uint64_t>(size),
                      0x13198A2E03707344ULL, 0xA4093822299F31D0ULL,
                      0x082EFA98EC4E6C89ULL};
  const auto absorb = [&lane](const uint8_t* block) {
    for (int j = 0; j < 4; ++j) {
      uint64_t w = 0;
      for (int b = 7; b >= 0; --b) {
        w = (w << 8) | block[8 * j + b];  // little-endian word assembly
      }
      lane[j] = ReferenceMix64(lane[j] ^ w);
    }
  };
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) absorb(data + i);
  if (i < size) {
    uint8_t tail[32] = {0};
    std::copy(data + i, data + size, tail);
    absorb(tail);
  }
  const auto rotl = [](uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  };
  return static_cast<uint32_t>(ReferenceMix64(
      static_cast<uint64_t>(size) ^ lane[0] ^ rotl(lane[1], 17) ^
      rotl(lane[2], 34) ^ rotl(lane[3], 51)));
}

TEST(ChecksumParityTest, BackendMatchesScalarReferenceOnFuzzedInputs) {
  // Random lengths 0..4KiB at every misalignment 0..7: the packet decoder
  // checksums byte ranges at arbitrary offsets inside socket buffers, so
  // alignment must never change the value (or crash a vector load).
  Rng rng(0xC45);
  std::vector<uint8_t> buffer(4096 + 8);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = rng.UniformInt(4097);
    const std::size_t offset = rng.UniformInt(8);
    for (std::size_t i = 0; i < len + offset; ++i) {
      buffer[i] = static_cast<uint8_t>(rng.NextU64());
    }
    const uint8_t* p = buffer.data() + offset;
    EXPECT_EQ(WireChecksum(p, len), ReferenceChecksum(p, len))
        << "len " << len << " offset " << offset;
  }
  // Every length through a few blocks, so block/tail boundaries (0, 31,
  // 32, 33, 64, ...) are all hit exactly.
  for (std::size_t len = 0; len <= 100; ++len) {
    EXPECT_EQ(WireChecksum(buffer.data() + 1, len),
              ReferenceChecksum(buffer.data() + 1, len))
        << "len " << len;
  }
}

TEST(ChecksumParityTest, GoldenValuesArePinned) {
  // Frozen values of the wire checksum function. These must never change:
  // recorded frame logs and cross-version client/server pairs depend on
  // the function being stable across platforms, backends and refactors.
  const struct {
    std::size_t len;
    uint32_t checksum;
  } kGolden[] = {
      {0u, 0x03516A10u},   {1u, 0x80E28689u},   {7u, 0x1978346Fu},
      {8u, 0xB4F1CA74u},   {31u, 0x19A6BDF8u},  {32u, 0xB1B63B56u},
      {33u, 0x5AD9F3F8u},  {64u, 0xA823BFC7u},  {255u, 0x74F17A7Au},
      {4096u, 0x4E7D3DF6u},
  };
  for (const auto& g : kGolden) {
    std::vector<uint8_t> buf(g.len);
    Rng rng(0xC0FFEE ^ static_cast<uint64_t>(g.len));
    for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
    EXPECT_EQ(WireChecksum(buf.data(), buf.size()), g.checksum)
        << "len " << g.len;
  }
}

TEST(ChecksumParityTest, VerifyChecksumsMatchesPerPacketVerdicts) {
  // The batched entry point must agree with recomputing each packet's
  // trailing checksum individually — including undersized spans.
  Rng rng(0xBA7C4);
  std::vector<std::vector<uint8_t>> spans;
  for (const auto& packet : SamplePackets()) {
    spans.push_back(packet);
    auto corrupted = packet;
    corrupted[rng.UniformInt(corrupted.size())] ^=
        static_cast<uint8_t>(1 + rng.UniformInt(255));
    spans.push_back(std::move(corrupted));
  }
  for (std::size_t n : {0u, 1u, 2u, 3u}) {
    std::vector<uint8_t> tiny(n);
    for (auto& b : tiny) b = static_cast<uint8_t>(rng.NextU64());
    spans.push_back(std::move(tiny));
  }
  std::vector<const uint8_t*> datas;
  std::vector<std::size_t> sizes;
  for (const auto& s : spans) {
    datas.push_back(s.data());
    sizes.push_back(s.size());
  }
  std::vector<uint8_t> ok(spans.size(), 0xCC);
  VerifyChecksums(datas.data(), sizes.data(), spans.size(), ok.data());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const bool want =
        s.size() >= 4 &&
        GetU32Le(s.data() + s.size() - 4) ==
            WireChecksum(s.data(), s.size() - 4);
    EXPECT_EQ(ok[i], want ? 1 : 0) << "span " << i;
  }
}

TEST(ChecksumParityTest, UniformSizeRunsMatchPerPacketVerdicts) {
  // A run of >= 8 equal-size spans takes the 8-wide batched kernel when
  // the build and CPU have AVX-512; its verdicts must match the per-span
  // recompute bit for bit. Input lengths 1..96 cover every tail length
  // 0..31 with 0, 1 and 2 full blocks; 151 and 513 add longer runs. Valid
  // and corrupted spans mix. Each span is its own exact-size allocation,
  // so a read past a packet's end is a heap overflow under ASan.
  Rng rng(0x8A7E5);
  std::vector<std::size_t> lens;
  for (std::size_t input = 1; input <= 96; ++input) lens.push_back(input + 4);
  lens.push_back(151);
  lens.push_back(513);
  for (const std::size_t len : lens) {
    std::vector<std::unique_ptr<uint8_t[]>> spans;
    std::vector<const uint8_t*> datas;
    std::vector<std::size_t> sizes;
    for (int i = 0; i < 21; ++i) {
      auto s = std::make_unique<uint8_t[]>(len);
      for (std::size_t j = 0; j < len; ++j) {
        s[j] = static_cast<uint8_t>(rng.NextU64());
      }
      const uint32_t sum = WireChecksum(s.get(), len - 4);
      for (std::size_t k = 0; k < 4; ++k) {
        s[len - 4 + k] = static_cast<uint8_t>(sum >> (8 * k));
      }
      if (i % 5 == 2) {
        s[rng.UniformInt(len)] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
      }
      datas.push_back(s.get());
      sizes.push_back(len);
      spans.push_back(std::move(s));
    }
    std::vector<uint8_t> ok(spans.size(), 0xCC);
    VerifyChecksums(datas.data(), sizes.data(), spans.size(), ok.data());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const uint8_t* s = spans[i].get();
      const bool want =
          GetU32Le(s + len - 4) == WireChecksum(s, len - 4);
      EXPECT_EQ(ok[i], want ? 1 : 0) << "len " << len << " span " << i;
    }
  }
}

TEST(WireFuzzTest, ValidEnvelopeWrongDomainIsRejectedNotCrashed) {
  // A packet that is pristine on the wire but sized for a different domain
  // must be a typed rejection (payload size or value range), never a crash
  // or a silent mis-read.
  Rng rng(5);
  for (OracleId oracle : AllOracleIds()) {
    const auto packet =
        PerturbToWire(oracle, 3, kEpsilon, kDomain, 0, 3, rng);
    for (std::size_t other_domain : {2u, 16u, 1000u}) {
      DecodedReport report;
      WireError err = WireError::kOk;
      ASSERT_NO_THROW(
          err = TryDecodeReport(packet, other_domain, &report));
      if (oracle == OracleId::kOue || oracle == OracleId::kSue) {
        EXPECT_EQ(err, WireError::kPayloadSize);
      }
      // GRR may alias when the byte width matches; OLH/HR payloads are
      // domain-independent on the wire, so kOk is acceptable there — the
      // sketch-level range check (AddReport) is the second line of
      // defense, covered in service_test.
    }
  }
}

// --- frame codec (src/transport/frame.h) ----------------------------------
// The same contract one layer up: arbitrary corruption of a framed stream
// must never crash the streaming decoder and must never pass the checksum,
// and split/merged TCP reads must reassemble the identical frames.

std::vector<uint8_t> SampleFrameStream(
    std::vector<transport::Frame>* frames_out = nullptr) {
  std::vector<uint8_t> stream;
  Rng rng(77);
  uint64_t round = 0;
  for (const auto& packet : SamplePackets()) {
    transport::Frame frame =
        transport::MakeDataFrame(rng.NextU64() % 4, round++, packet);
    transport::AppendEncodedFrame(frame, &stream);
    if (frames_out != nullptr) frames_out->push_back(std::move(frame));
  }
  transport::Frame marker = transport::MakeEndRoundFrame(1, round, 20);
  transport::AppendEncodedFrame(marker, &stream);
  if (frames_out != nullptr) frames_out->push_back(std::move(marker));
  return stream;
}

TEST(FrameFuzzTest, SingleByteCorruptionNeverPassesTheChecksum) {
  // Flip random bit patterns at every byte of a single encoded frame; the
  // one-shot decoder must reject (or ask for more bytes), never accept.
  Rng rng(501);
  const auto packet = PerturbToWire(OracleId::kGrr, 1, kEpsilon, kDomain,
                                    0, 42, rng);
  const auto original =
      transport::EncodeFrame(transport::MakeDataFrame(9, 3, packet));
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    for (int trial = 0; trial < 8; ++trial) {
      auto corrupted = original;
      corrupted[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
      transport::Frame frame;
      std::size_t consumed = 0;
      transport::FrameError err = transport::FrameError::kOk;
      ASSERT_NO_THROW(err = transport::TryDecodeFrame(
                          corrupted.data(), corrupted.size(), &frame,
                          &consumed));
      EXPECT_NE(err, transport::FrameError::kOk) << "byte " << pos;
    }
  }
}

TEST(FrameFuzzTest, CorruptedStreamsResyncAndNeverCrash) {
  // Flip a byte at every position of a multi-frame stream and run the full
  // streaming decoder over it: no crash, no bogus frame — every frame the
  // decoder does deliver is bit-identical to one that was sent, and at
  // most the frames overlapping the corruption are lost.
  std::vector<transport::Frame> sent;
  const auto stream = SampleFrameStream(&sent);
  Rng rng(93);
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    auto corrupted = stream;
    corrupted[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
    transport::FrameDecoder decoder;
    decoder.Append(corrupted);
    transport::Frame frame;
    std::size_t delivered = 0;
    std::size_t cursor = 0;
    while (decoder.Next(&frame)) {
      ++delivered;
      // Frames come out in order; find this one among the remaining sent
      // frames (corruption may have eaten some in between).
      bool found = false;
      for (; cursor < sent.size(); ++cursor) {
        if (sent[cursor].session_id == frame.session_id &&
            sent[cursor].timestamp == frame.timestamp &&
            sent[cursor].kind == frame.kind &&
            sent[cursor].payload == frame.payload) {
          ++cursor;
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "decoder fabricated a frame at byte " << pos;
    }
    // A flip in a length field makes the decoder wait for a frame longer
    // than the remaining stream — everything after it stays pending until
    // more traffic (or a connection timeout) resolves it. Otherwise at
    // most the two frames overlapping the corruption are lost.
    if (decoder.pending_bytes() == 0) {
      EXPECT_GE(delivered + 2, sent.size()) << "byte " << pos;
    }
    EXPECT_GT(decoder.stats().errors() + decoder.pending_bytes(), 0u)
        << "byte " << pos;
  }
}

TEST(FrameFuzzTest, TruncatedStreamsNeverYieldAPartialFrame) {
  std::vector<transport::Frame> sent;
  const auto stream = SampleFrameStream(&sent);
  // Cut the stream at every length; whole frames before the cut decode,
  // the partial tail never does.
  for (std::size_t len = 0; len < stream.size(); len += 3) {
    transport::FrameDecoder decoder;
    decoder.Append(stream.data(), len);
    transport::Frame frame;
    std::size_t count = 0;
    while (decoder.Next(&frame)) {
      ASSERT_LT(count, sent.size());
      EXPECT_EQ(frame.payload, sent[count].payload);
      ++count;
    }
    EXPECT_EQ(decoder.stats().errors(), 0u) << "length " << len;
    // Whatever did not fit stays pending; nothing partial was delivered.
    EXPECT_EQ(decoder.stats().bytes + decoder.pending_bytes(), len);
  }
}

TEST(FrameFuzzTest, RandomGarbageNeverDecodesAsAFrame) {
  Rng rng(8192);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> garbage(rng.UniformInt(200));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextU64());
    transport::FrameDecoder decoder;
    ASSERT_NO_THROW(decoder.Append(garbage));
    transport::Frame frame;
    ASSERT_FALSE(decoder.Next(&frame)) << "trial " << trial;
  }
}

TEST(FrameFuzzTest, SplitAndMergedReadsAgreeWithOneShotDecoding) {
  // TCP may hand the server any byte slicing of the stream; every slicing
  // must produce the identical frame sequence.
  std::vector<transport::Frame> sent;
  const auto stream = SampleFrameStream(&sent);
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    transport::FrameDecoder decoder;
    std::size_t fed = 0;
    std::size_t count = 0;
    transport::Frame frame;
    while (fed < stream.size()) {
      const std::size_t n =
          std::min(stream.size() - fed,
                   static_cast<std::size_t>(1 + rng.UniformInt(61)));
      decoder.Append(stream.data() + fed, n);
      fed += n;
      while (decoder.Next(&frame)) {
        ASSERT_LT(count, sent.size());
        EXPECT_EQ(frame.session_id, sent[count].session_id);
        EXPECT_EQ(frame.timestamp, sent[count].timestamp);
        EXPECT_EQ(frame.payload, sent[count].payload);
        ++count;
      }
    }
    EXPECT_EQ(count, sent.size()) << "trial " << trial;
    EXPECT_EQ(decoder.stats().errors(), 0u);
  }
}

// --- columnar batch decoder (fo/report_arena.h) ---------------------------
// The arena ingests the same byte soup the per-report decoders face, so it
// gets the same net: arbitrary corruption must never crash it (the suite
// runs under ASan+UBSan in CI), every packet must land in exactly one
// stats bucket, and its accept/reject classification must equal the
// per-report TryDecodeReport path packet for packet.

TEST(ArenaFuzzTest, CorruptedBatchesClassifyExactlyLikePerReportDecode) {
  Rng rng(617);
  for (OracleId oracle : AllOracleIds()) {
    // Valid packets for the round, plus heavy mutation: bit flips at
    // random positions, truncations, extensions, pure garbage.
    std::vector<std::vector<uint8_t>> packets;
    uint64_t nonce = 1;
    for (int i = 0; i < 40; ++i) {
      const uint32_t v = static_cast<uint32_t>(rng.UniformInt(kDomain));
      const uint32_t ts = rng.Bernoulli(0.8) ? 5u : 6u;
      packets.push_back(
          PerturbToWire(oracle, v, kEpsilon, kDomain, ts, nonce++, rng));
    }
    const std::size_t valid_count = packets.size();
    for (std::size_t i = 0; i < valid_count; ++i) {
      auto mutated = packets[i];
      switch (rng.UniformInt(4)) {
        case 0:
          mutated[rng.UniformInt(mutated.size())] ^=
              static_cast<uint8_t>(1 + rng.UniformInt(255));
          break;
        case 1:
          mutated.resize(rng.UniformInt(mutated.size()));
          break;
        case 2:
          mutated.push_back(static_cast<uint8_t>(rng.NextU64()));
          break;
        default:
          mutated.assign(rng.UniformInt(48),
                         static_cast<uint8_t>(rng.NextU64()));
          break;
      }
      packets.push_back(std::move(mutated));
    }

    ReportArena arena;
    arena.BeginRound(oracle, 5, {kEpsilon, kDomain});
    ASSERT_NO_THROW(arena.AppendBatch(packets));

    // Every packet lands in exactly one bucket.
    EXPECT_EQ(arena.stats().total(), packets.size());

    // Reference classification via the per-report decoder, in the ingest
    // shard's order.
    std::size_t want_rows = 0;
    ArenaDecodeStats want;
    for (const auto& p : packets) {
      DecodedReport report;
      WireError err = WireError::kOk;
      ASSERT_NO_THROW(err = TryDecodeReport(p, kDomain, &report));
      if (err != WireError::kOk) {
        ++want.malformed;
        ++want.wire_errors[static_cast<std::size_t>(err)];
      } else if (report.oracle != oracle) {
        ++want.wrong_oracle;
      } else if (report.timestamp != 5) {
        ++want.wrong_timestamp;
      } else {
        ++want_rows;
      }
    }
    EXPECT_EQ(arena.size(), want_rows);
    EXPECT_EQ(arena.stats().decoded, want_rows);
    EXPECT_EQ(arena.stats().malformed, want.malformed);
    EXPECT_EQ(arena.stats().wrong_oracle, want.wrong_oracle);
    EXPECT_EQ(arena.stats().wrong_timestamp, want.wrong_timestamp);
    for (std::size_t e = 0; e < kWireErrorCount; ++e) {
      EXPECT_EQ(arena.stats().wire_errors[e], want.wire_errors[e])
          << WireErrorName(static_cast<WireError>(e));
    }
  }
}

TEST(ArenaFuzzTest, RandomGarbageBatchesNeverProduceRows) {
  Rng rng(3131);
  ReportArena arena;
  arena.BeginRound(OracleId::kOue, 0, {kEpsilon, kDomain});
  std::vector<std::vector<uint8_t>> garbage(500);
  for (auto& p : garbage) {
    p.resize(rng.UniformInt(96));
    for (auto& b : p) b = static_cast<uint8_t>(rng.NextU64());
  }
  ASSERT_NO_THROW(arena.AppendBatch(garbage));
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.stats().total(), garbage.size());
  EXPECT_EQ(arena.stats().malformed, garbage.size());
}

// --- partial-sketch codec (fo/sketch_wire.h) ------------------------------
// The merge tree's serialization boundary gets the same net as the report
// wire one layer down: arbitrary corruption of a partial-sketch payload
// must never crash TryViewPartialSketch, must never half-decode (the view
// is written only on kOk), and a corrupt or mismatched partial handed to
// MergePartialSketch must land in exactly one typed rejection bucket
// without touching the destination sketch.

std::vector<std::vector<uint8_t>> SamplePartials() {
  std::vector<std::vector<uint8_t>> partials;
  Rng rng(0x5EED);
  for (OracleId oracle : AllOracleIds()) {
    const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
    for (const uint64_t users : {0u, 1u, 33u}) {
      auto sketch = fo.CreateSketch({kEpsilon, kDomain});
      for (uint64_t u = 0; u < users; ++u) {
        sketch->AddUser(static_cast<uint32_t>(u % kDomain), rng);
      }
      partials.push_back(EncodePartialSketch(
          *sketch, oracle, /*node_id=*/users + 1, /*round_index=*/4,
          /*timestamp=*/9, kEpsilon));
    }
  }
  return partials;
}

TEST(SketchWireFuzzTest, SingleByteCorruptionNeverDecodes) {
  for (const auto& original : SamplePartials()) {
    Rng rng(911);
    for (std::size_t pos = 0; pos < original.size(); ++pos) {
      for (int trial = 0; trial < 4; ++trial) {
        auto corrupted = original;
        corrupted[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
        PartialSketchView view;
        view.node_id = 0xD1D1;  // sentinel: must survive a rejection
        SketchWireError err = SketchWireError::kOk;
        ASSERT_NO_THROW(
            err = TryViewPartialSketch(corrupted, &view));
        EXPECT_NE(err, SketchWireError::kOk)
            << "byte " << pos << " of " << original.size();
        // No partial decode: the view is untouched on every rejection.
        EXPECT_EQ(view.node_id, 0xD1D1u);
      }
    }
  }
}

TEST(SketchWireFuzzTest, TruncationsAndExtensionsNeverDecode) {
  for (const auto& original : SamplePartials()) {
    for (std::size_t len = 0; len < original.size(); ++len) {
      PartialSketchView view;
      SketchWireError err = SketchWireError::kOk;
      ASSERT_NO_THROW(
          err = TryViewPartialSketch(original.data(), len, &view));
      EXPECT_NE(err, SketchWireError::kOk) << "length " << len;
    }
    auto extended = original;
    extended.push_back(0x00);
    PartialSketchView view;
    EXPECT_NE(TryViewPartialSketch(extended, &view), SketchWireError::kOk);
  }
}

TEST(SketchWireFuzzTest, RandomGarbageNeverDecodes) {
  Rng rng(0xFA22);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> garbage(rng.UniformInt(kSketchWireHeaderSize * 3));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextU64());
    PartialSketchView view;
    SketchWireError err = SketchWireError::kOk;
    ASSERT_NO_THROW(err = TryViewPartialSketch(garbage, &view));
    EXPECT_NE(err, SketchWireError::kOk) << "trial " << trial;
  }
}

TEST(SketchWireFuzzTest, MergeNeverCrashesAndNeverSilentlyFolds) {
  // Heavy mutation against the merge edge itself: every payload — valid,
  // flipped, truncated, extended, garbage — lands in exactly one
  // SketchMergeStats bucket, and only bit-exact valid partials change the
  // destination sketch.
  Rng rng(0xF01D);
  for (OracleId oracle : AllOracleIds()) {
    const FrequencyOracle& fo = GetFrequencyOracle(OracleIdName(oracle));
    auto peer = fo.CreateSketch({kEpsilon, kDomain});
    for (uint32_t u = 0; u < 25; ++u) peer->AddUser(u % kDomain, rng);

    std::vector<std::vector<uint8_t>> payloads;
    uint64_t node = 1;
    for (int i = 0; i < 30; ++i) {
      payloads.push_back(EncodePartialSketch(*peer, oracle, node++, 4, 9,
                                             kEpsilon));
    }
    const std::size_t valid_count = payloads.size();
    for (std::size_t i = 0; i < valid_count; ++i) {
      auto mutated = payloads[i];
      switch (rng.UniformInt(4)) {
        case 0:
          mutated[rng.UniformInt(mutated.size())] ^=
              static_cast<uint8_t>(1 + rng.UniformInt(255));
          break;
        case 1:
          mutated.resize(rng.UniformInt(mutated.size()));
          break;
        case 2:
          mutated.push_back(static_cast<uint8_t>(rng.NextU64()));
          break;
        default:
          mutated.assign(rng.UniformInt(2 * kSketchWireHeaderSize),
                         static_cast<uint8_t>(rng.NextU64()));
          break;
      }
      payloads.push_back(std::move(mutated));
    }

    auto root = fo.CreateSketch({kEpsilon, kDomain});
    std::vector<uint64_t> seen;
    SketchMergeStats stats;
    std::size_t folded = 0;
    for (const auto& p : payloads) {
      bool ok = false;
      ASSERT_NO_THROW(ok = MergePartialSketch(
                          p.data(), p.size(), oracle, 4, kEpsilon, kDomain,
                          root.get(), &seen, &stats));
      if (ok) ++folded;
    }
    // Every payload classified exactly once; every valid one folded
    // (distinct node ids, so no dedup hits among the valid set), and the
    // user mass is exactly the folded partials' — a corrupt payload can
    // strip a partial, never fold one.
    EXPECT_EQ(stats.total(), payloads.size()) << OracleIdName(oracle);
    EXPECT_EQ(stats.merged, folded);
    EXPECT_GE(folded, valid_count);
    EXPECT_EQ(root->num_users(), folded * peer->num_users());
  }
}

TEST(SketchWireFuzzTest, MismatchedParamsAreTypedRejections) {
  // A pristine partial whose round coordinates disagree with the root's
  // expectations is a typed rejection — params mismatches across a merge
  // tree must never fold and never throw.
  const FrequencyOracle& fo = GetFrequencyOracle("OLH");
  auto peer = fo.CreateSketch({kEpsilon, kDomain});
  Rng rng(21);
  for (uint32_t u = 0; u < 10; ++u) peer->AddUser(u % kDomain, rng);
  const auto payload =
      EncodePartialSketch(*peer, OracleId::kOlh, 6, 4, 9, kEpsilon);

  auto root = fo.CreateSketch({kEpsilon, kDomain});
  std::vector<uint64_t> seen;
  SketchMergeStats stats;
  EXPECT_FALSE(MergePartialSketch(payload.data(), payload.size(),
                                  OracleId::kHr, 4, kEpsilon, kDomain,
                                  root.get(), &seen, &stats));
  EXPECT_FALSE(MergePartialSketch(payload.data(), payload.size(),
                                  OracleId::kOlh, 5, kEpsilon, kDomain,
                                  root.get(), &seen, &stats));
  EXPECT_FALSE(MergePartialSketch(payload.data(), payload.size(),
                                  OracleId::kOlh, 4, kEpsilon / 2, kDomain,
                                  root.get(), &seen, &stats));
  EXPECT_FALSE(MergePartialSketch(payload.data(), payload.size(),
                                  OracleId::kOlh, 4, kEpsilon, kDomain + 1,
                                  root.get(), &seen, &stats));
  EXPECT_EQ(stats.wrong_oracle, 1u);
  EXPECT_EQ(stats.wrong_round, 1u);
  EXPECT_EQ(stats.params_mismatch, 2u);
  EXPECT_EQ(stats.merged, 0u);
  EXPECT_EQ(root->num_users(), 0u);
}

}  // namespace
}  // namespace ldpids
