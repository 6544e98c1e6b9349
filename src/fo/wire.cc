#include "fo/wire.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "fo/wire_internal.h"
#include "util/rng.h"
#include "util/simd/avx512.h"
#include "util/simd/mix64.h"
#include "util/simd/simd.h"

namespace ldpids {

void PutU32Le(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64Le(std::vector<uint8_t>* out, uint64_t v) {
  PutU32Le(out, static_cast<uint32_t>(v));
  PutU32Le(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64Le(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32Le(p)) |
         (static_cast<uint64_t>(GetU32Le(p + 4)) << 32);
}

namespace {

constexpr uint8_t kMagic = 0xAD;
constexpr uint8_t kVersion = 2;  // v2 added the 8-byte user nonce
constexpr std::size_t kHeaderSize = 19;
constexpr std::size_t kChecksumSize = 4;
constexpr std::size_t kNonceOffset = 7;
constexpr std::size_t kLengthOffset = 15;

std::size_t GrrValueBytes(std::size_t domain) {
  if (domain <= 256) return 1;
  if (domain <= 65536) return 2;
  return 4;
}

std::vector<uint8_t> BuildEnvelope(OracleId oracle, uint32_t timestamp,
                                   uint64_t nonce,
                                   const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kHeaderSize + payload.size() + kChecksumSize);
  out.push_back(kMagic);
  out.push_back(kVersion);
  out.push_back(static_cast<uint8_t>(oracle));
  PutU32Le(&out, timestamp);
  PutU64Le(&out, nonce);
  PutU32Le(&out, static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  PutU32Le(&out, WireChecksum(out.data(), out.size()));
  return out;
}

WireError BitVectorPayloadFromBytes(const uint8_t* payload, std::size_t size,
                                    std::size_t domain,
                                    BitVectorWireReport* out) {
  if (!BitVectorPayloadSizeOk(size, domain)) return WireError::kPayloadSize;
  // assign reuses the caller's bit buffer, so a reused DecodedReport
  // scratch makes this allocation-free after the first packet.
  out->bits.assign(domain, false);
  for (std::size_t k = 0; k < domain; ++k) {
    out->bits[k] = (payload[k / 8] >> (k % 8)) & 1u;
  }
  return WireError::kOk;
}

// Structural half of envelope validation: everything before the checksum,
// in the fixed classification order size -> magic -> version -> oracle ->
// length. Shared by the lazy-checksum and prechecked-checksum views so the
// two can never classify a packet differently.
WireError ViewStructural(const uint8_t* data, std::size_t size,
                         uint32_t* payload_len) {
  if (size < kHeaderSize + kChecksumSize) return WireError::kTooShort;
  if (data[0] != kMagic) return WireError::kBadMagic;
  if (data[1] != kVersion) return WireError::kBadVersion;
  const uint8_t oracle_raw = data[2];
  if (oracle_raw < 1 || oracle_raw > 5) return WireError::kUnknownOracle;
  *payload_len = GetU32Le(data + kLengthOffset);
  if (size != kHeaderSize + *payload_len + kChecksumSize) {
    return WireError::kLengthMismatch;
  }
  return WireError::kOk;
}

void FillView(const uint8_t* data, uint32_t payload_len,
              WireEnvelopeView* out) {
  out->oracle = static_cast<OracleId>(data[2]);
  out->timestamp = GetU32Le(data + 3);
  out->nonce = GetU64Le(data + kNonceOffset);
  out->payload = data + kHeaderSize;
  out->payload_size = payload_len;
}

}  // namespace

WireError ViewWireEnvelope(const uint8_t* data, std::size_t size,
                           WireEnvelopeView* out) {
  uint32_t payload_len = 0;
  const WireError err = ViewStructural(data, size, &payload_len);
  if (err != WireError::kOk) return err;
  const uint32_t stored = GetU32Le(data + size - kChecksumSize);
  const uint32_t computed = WireChecksum(data, size - kChecksumSize);
  if (stored != computed) return WireError::kChecksumMismatch;
  FillView(data, payload_len, out);
  return WireError::kOk;
}

WireError ViewWireEnvelopePrechecked(const uint8_t* data, std::size_t size,
                                     bool checksum_ok,
                                     WireEnvelopeView* out) {
  uint32_t payload_len = 0;
  const WireError err = ViewStructural(data, size, &payload_len);
  if (err != WireError::kOk) return err;
  if (!checksum_ok) return WireError::kChecksumMismatch;
  FillView(data, payload_len, out);
  return WireError::kOk;
}

WireError GrrPayloadFromBytes(const uint8_t* payload, std::size_t size,
                              std::size_t domain, GrrWireReport* out) {
  const std::size_t bytes = GrrValueBytes(domain);
  if (size != bytes) return WireError::kPayloadSize;
  uint32_t value = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    value |= static_cast<uint32_t>(payload[i]) << (8 * i);
  }
  if (value >= domain) return WireError::kValueOutOfDomain;
  out->value = value;
  return WireError::kOk;
}

WireError OlhPayloadFromBytes(const uint8_t* payload, std::size_t size,
                              OlhWireReport* out) {
  if (size != 12) return WireError::kPayloadSize;
  out->seed = GetU64Le(payload);
  out->bucket = GetU32Le(payload + 8);
  return WireError::kOk;
}

WireError HrPayloadFromBytes(const uint8_t* payload, std::size_t size,
                             HrWireReport* out) {
  if (size != 4) return WireError::kPayloadSize;
  out->column = GetU32Le(payload);
  return WireError::kOk;
}

bool BitVectorPayloadSizeOk(std::size_t size, std::size_t domain) {
  return size == (domain + 7) / 8;
}

std::size_t GrrWireValueBytes(std::size_t domain) {
  return GrrValueBytes(domain);
}

std::vector<OracleId> AllOracleIds() {
  return {OracleId::kGrr, OracleId::kOue, OracleId::kOlh, OracleId::kSue,
          OracleId::kHr};
}

const char* OracleIdName(OracleId oracle) {
  switch (oracle) {
    case OracleId::kGrr: return "GRR";
    case OracleId::kOue: return "OUE";
    case OracleId::kOlh: return "OLH";
    case OracleId::kSue: return "SUE";
    case OracleId::kHr: return "HR";
  }
  return "?";
}

OracleId OracleIdFromName(const std::string& name) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (OracleId id : AllOracleIds()) {
    if (upper == OracleIdName(id)) return id;
  }
  throw std::invalid_argument("unknown oracle name: " + name);
}

namespace {

// Byte layout of the checksum input is defined little-endian so the value
// is identical across hosts; packet bytes can sit at any alignment, so
// words are assembled with memcpy, never by reinterpreting the pointer.
inline uint64_t ChecksumLoadLe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

inline simd::U64x ChecksumLoadBlock(const uint8_t* p) {
  alignas(32) uint64_t w[simd::kLanes] = {
      ChecksumLoadLe64(p), ChecksumLoadLe64(p + 8), ChecksumLoadLe64(p + 16),
      ChecksumLoadLe64(p + 24)};
  return simd::LoadU64(w);
}

// Distinct lane seeds (hex digits of pi) so lanes never collapse to the
// same stream; lane 0 additionally folds in the input size. Shared with
// the AVX-512 batch verifier (wire_internal.h) so the two constructions
// can never drift apart.
using wire_internal::kChecksumSeed0;
using wire_internal::kChecksumSeed1;
using wire_internal::kChecksumSeed2;
using wire_internal::kChecksumSeed3;

}  // namespace

uint32_t WireChecksum(const uint8_t* data, std::size_t size) {
  // Four SplitMix64 lanes, each absorbing one 64-bit word per 32-byte
  // block: lane[j] = Mix64(lane[j] ^ word[j]). The per-block recurrence is
  // serial but the four lanes run in parallel across the SIMD layer (AVX2
  // or the generic scalar backend — bit-identical by construction, pinned
  // by wire_fuzz_test's parity fuzz). A short tail is absorbed as one
  // zero-padded block; the finalizer folds the lanes at distinct rotations
  // plus the size, so truncation, extension and any single-bit flip all
  // change the value.
  alignas(32) uint64_t seed[simd::kLanes] = {
      kChecksumSeed0 ^ static_cast<uint64_t>(size), kChecksumSeed1,
      kChecksumSeed2, kChecksumSeed3};
  simd::U64x lanes = simd::LoadU64(seed);
  const std::size_t blocks = size / 32;
  for (std::size_t b = 0; b < blocks; ++b) {
    lanes = simd::Mix64V(simd::XorU64(lanes, ChecksumLoadBlock(data + 32 * b)));
  }
  const std::size_t rem = size - 32 * blocks;
  if (rem != 0) {
    uint8_t tail[32] = {0};
    std::memcpy(tail, data + 32 * blocks, rem);
    lanes = simd::Mix64V(simd::XorU64(lanes, ChecksumLoadBlock(tail)));
  }
  alignas(32) uint64_t l[simd::kLanes];
  simd::StoreU64(l, lanes);
  return static_cast<uint32_t>(Mix64(static_cast<uint64_t>(size) ^ l[0] ^
                                     std::rotl(l[1], 17) ^
                                     std::rotl(l[2], 34) ^
                                     std::rotl(l[3], 51)));
}

namespace {

inline uint8_t VerifyOneChecksum(const uint8_t* data, std::size_t size) {
  return size >= kChecksumSize &&
                 GetU32Le(data + size - kChecksumSize) ==
                     WireChecksum(data, size - kChecksumSize)
             ? 1
             : 0;
}

}  // namespace

void VerifyChecksums(const uint8_t* const* datas, const std::size_t* sizes,
                     std::size_t n, uint8_t* ok) {
  std::size_t i = 0;
  // Fast path: a run of 8 equal-size packets (one FO round is uniform by
  // construction) verifies in one 8-wide AVX-512 pass. Ragged spots fall
  // through one packet at a time; verdicts are identical either way.
  if (simd::Avx512Available()) {
    while (i + 8 <= n) {
      const std::size_t size = sizes[i];
      bool uniform = size >= kChecksumSize;
      for (std::size_t j = 1; j < 8 && uniform; ++j) {
        uniform = sizes[i + j] == size;
      }
      if (!uniform || !wire_internal::VerifyChecksums8Avx512(datas + i, size,
                                                             ok + i)) {
        ok[i] = VerifyOneChecksum(datas[i], sizes[i]);
        ++i;
        continue;
      }
      i += 8;
    }
  }
  for (; i < n; ++i) {
    ok[i] = VerifyOneChecksum(datas[i], sizes[i]);
  }
}

std::vector<uint8_t> EncodeGrrReport(uint32_t value, std::size_t domain,
                                     uint32_t timestamp, uint64_t nonce) {
  if (value >= domain) throw std::invalid_argument("value outside domain");
  std::vector<uint8_t> payload;
  const std::size_t bytes = GrrValueBytes(domain);
  for (std::size_t i = 0; i < bytes; ++i) {
    payload.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
  return BuildEnvelope(OracleId::kGrr, timestamp, nonce, payload);
}

std::vector<uint8_t> EncodeBitVectorReport(const std::vector<bool>& bits,
                                           OracleId oracle,
                                           uint32_t timestamp,
                                           uint64_t nonce) {
  if (oracle != OracleId::kOue && oracle != OracleId::kSue) {
    throw std::invalid_argument("bit-vector payloads are OUE/SUE only");
  }
  std::vector<uint8_t> payload((bits.size() + 7) / 8, 0);
  for (std::size_t k = 0; k < bits.size(); ++k) {
    if (bits[k]) payload[k / 8] |= static_cast<uint8_t>(1u << (k % 8));
  }
  return BuildEnvelope(oracle, timestamp, nonce, payload);
}

std::vector<uint8_t> EncodeOlhReport(uint64_t seed, uint32_t bucket,
                                     uint32_t timestamp, uint64_t nonce) {
  std::vector<uint8_t> payload;
  PutU64Le(&payload, seed);
  PutU32Le(&payload, bucket);
  return BuildEnvelope(OracleId::kOlh, timestamp, nonce, payload);
}

std::vector<uint8_t> EncodeHrReport(uint32_t column, uint32_t timestamp,
                                    uint64_t nonce) {
  std::vector<uint8_t> payload;
  PutU32Le(&payload, column);
  return BuildEnvelope(OracleId::kHr, timestamp, nonce, payload);
}

bool PeekWireNonce(const uint8_t* data, std::size_t size, uint64_t* nonce) {
  if (size < kHeaderSize + kChecksumSize) return false;
  if (data[0] != kMagic || data[1] != kVersion) return false;
  *nonce = GetU64Le(data + kNonceOffset);
  return true;
}

WireError TryDecodeReport(const uint8_t* data, std::size_t size,
                          std::size_t domain, DecodedReport* out) {
  // Hot path: validate through a zero-copy view — no payload
  // materialization, and with a reused DecodedReport no allocation at all.
  WireEnvelopeView view;
  const WireError err = ViewWireEnvelope(data, size, &view);
  if (err != WireError::kOk) return err;
  out->oracle = view.oracle;
  out->timestamp = view.timestamp;
  out->nonce = view.nonce;
  switch (view.oracle) {
    case OracleId::kGrr:
      return GrrPayloadFromBytes(view.payload, view.payload_size, domain,
                                 &out->grr);
    case OracleId::kOue:
    case OracleId::kSue:
      return BitVectorPayloadFromBytes(view.payload, view.payload_size,
                                       domain, &out->bits);
    case OracleId::kOlh:
      return OlhPayloadFromBytes(view.payload, view.payload_size, &out->olh);
    case OracleId::kHr:
      return HrPayloadFromBytes(view.payload, view.payload_size, &out->hr);
  }
  return WireError::kUnknownOracle;  // unreachable after envelope validation
}

WireError TryDecodeReport(const std::vector<uint8_t>& packet,
                          std::size_t domain, DecodedReport* out) {
  return TryDecodeReport(packet.data(), packet.size(), domain, out);
}

std::size_t EncodedReportSize(OracleId oracle, std::size_t domain) {
  std::size_t payload = 0;
  switch (oracle) {
    case OracleId::kGrr: payload = GrrValueBytes(domain); break;
    case OracleId::kOue:
    case OracleId::kSue: payload = (domain + 7) / 8; break;
    case OracleId::kOlh: payload = 12; break;
    case OracleId::kHr: payload = 4; break;
  }
  return kHeaderSize + payload + kChecksumSize;
}

}  // namespace ldpids
