// Wire format for LDP reports.
//
// The simulation-facing API exchanges in-memory values, but a deployment
// sends bytes. This header defines a compact, versioned envelope for every
// report a client can emit:
//
//   byte 0      magic (0xLD -> 0xAD)
//   byte 1      version (2)
//   byte 2      oracle id (see OracleId)
//   bytes 3-6   timestamp (uint32, little-endian)
//   bytes 7-14  user nonce (uint64, little-endian)
//   bytes 15-18 payload length (uint32, little-endian)
//   bytes 19..  payload (oracle-specific, below)
//   last 4      CRC32C-style checksum of everything before it
//
// The nonce identifies the reporting device within one collection round
// (the serving layer uses the stable per-user id). It carries no private
// information — in an LDP deployment the aggregator already knows *who*
// reports, only the *value* is perturbed — and it is what lets the ingest
// edge reject a duplicated report instead of double-counting the user, and
// lets the report router keep all of one user's (possibly duplicated)
// packets on the same shard so shard count never changes results.
//
// Payloads:
//   GRR  — the reported value index (1/2/4 bytes by domain, LE);
//   OUE / SUE — the perturbed bit vector, packed LSB-first, ceil(d/8) bytes;
//   OLH  — 8-byte hash seed + 4-byte bucket index;
//   HR   — Hadamard column index (4 bytes).
//
// Decoding validates magic, version, length, checksum and payload shape
// and returns a typed `WireError`; it never throws on packet content. A
// busy ingest loop must never pay exception machinery for routine
// corruption, and a server must never crash on a malformed client packet.
// The serving path decodes whole rounds through ReportArena
// (fo/report_arena.h); `TryDecodeReport` decodes one packet the same way.
#ifndef LDPIDS_FO_WIRE_H_
#define LDPIDS_FO_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ldpids {

enum class OracleId : uint8_t {
  kGrr = 1,
  kOue = 2,
  kOlh = 3,
  kSue = 4,
  kHr = 5,
};

// All wire oracle ids, in id order; for parameterized tests and sweeps.
std::vector<OracleId> AllOracleIds();

// Canonical name of an oracle id ("GRR", "OUE", ...), matching
// GetFrequencyOracle's naming.
const char* OracleIdName(OracleId oracle);

// Inverse of OracleIdName (case-insensitive). Throws std::invalid_argument
// for unknown names.
OracleId OracleIdFromName(const std::string& name);

// Precise decode outcome. kOk is 0 so results can be truth-tested.
enum class WireError : uint8_t {
  kOk = 0,
  kTooShort,           // smaller than header + checksum
  kBadMagic,
  kBadVersion,
  kUnknownOracle,      // oracle id outside [kGrr, kHr]
  kLengthMismatch,     // declared payload length != actual
  kChecksumMismatch,
  kPayloadSize,        // payload length wrong for the oracle/domain
  kValueOutOfDomain,   // decoded value does not fit the domain
};

// Number of WireError enumerators (for per-reason counters indexed by the
// enum value; kOk is index 0).
inline constexpr std::size_t kWireErrorCount = 9;

// Human-readable reason, for logs and rejection reports.
const char* WireErrorName(WireError error);

// Oracle-specific report payloads, in decoded form.
struct GrrWireReport {
  uint32_t value = 0;
};
struct BitVectorWireReport {  // OUE and SUE
  std::vector<bool> bits;
};
struct OlhWireReport {
  uint64_t seed = 0;
  uint32_t bucket = 0;
};
struct HrWireReport {
  uint32_t column = 0;
};

// A fully decoded report, ready for server-side folding
// (FoSketch::AddReport). Only the member matching `oracle` is meaningful.
struct DecodedReport {
  OracleId oracle = OracleId::kGrr;
  uint32_t timestamp = 0;
  uint64_t nonce = 0;
  GrrWireReport grr;
  BitVectorWireReport bits;
  OlhWireReport olh;
  HrWireReport hr;
};

// Checksum used by the envelope (and by the transport frame codec one
// layer up): four SplitMix64 lanes over 32-byte blocks, run across the
// SIMD layer (util/simd/) — AVX2 and the generic scalar backend produce
// byte-identical values, stable across platforms.
uint32_t WireChecksum(const uint8_t* data, std::size_t size);

// Batched verification of whole packets (header + payload + trailing
// 4-byte checksum): ok[i] = 1 iff packet i's stored checksum matches the
// bytes before it. The entry point the ReportArena batch decoder and the
// transport FrameDecoder funnel through, so the hottest shared loop is in
// one place.
void VerifyChecksums(const uint8_t* const* datas, const std::size_t* sizes,
                     std::size_t n, uint8_t* ok);

// Little-endian integer (de)serialization shared by the report envelope
// and the frame codec one layer up (transport/frame.h).
void PutU32Le(std::vector<uint8_t>* out, uint32_t v);
void PutU64Le(std::vector<uint8_t>* out, uint64_t v);
uint32_t GetU32Le(const uint8_t* p);
uint64_t GetU64Le(const uint8_t* p);

// --- encoding ---
std::vector<uint8_t> EncodeGrrReport(uint32_t value, std::size_t domain,
                                     uint32_t timestamp, uint64_t nonce = 0);
std::vector<uint8_t> EncodeBitVectorReport(const std::vector<bool>& bits,
                                           OracleId oracle,
                                           uint32_t timestamp,
                                           uint64_t nonce = 0);
std::vector<uint8_t> EncodeOlhReport(uint64_t seed, uint32_t bucket,
                                     uint32_t timestamp, uint64_t nonce = 0);
std::vector<uint8_t> EncodeHrReport(uint32_t column, uint32_t timestamp,
                                    uint64_t nonce = 0);

// Reads the user nonce out of an encoded report without validating or
// decoding the rest (only the magic/version prefix and the length are
// checked). RoundBuffer keys a packet's identity on it before any decode;
// returns false for anything too mangled to carry a nonce — such packets
// are rejected downstream by the full decode.
bool PeekWireNonce(const uint8_t* data, std::size_t size, uint64_t* nonce);

// --- zero-copy decoding (batch staging path) ---
// A validated envelope viewing the caller's packet buffer: no payload
// materialization. This is what ReportArena (fo/report_arena.h) builds its
// columns from — the envelope is decoded exactly once per packet and the
// nonce column carried through routing, dedup and fold.
struct WireEnvelopeView {
  OracleId oracle = OracleId::kGrr;
  uint32_t timestamp = 0;
  uint64_t nonce = 0;
  const uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
};

// Validates magic/version/oracle-range/length/checksum and fills the view.
// The view borrows `data`; it is valid only while the packet buffer lives.
WireError ViewWireEnvelope(const uint8_t* data, std::size_t size,
                           WireEnvelopeView* out);

// ViewWireEnvelope with the checksum comparison replaced by a caller-
// provided verdict (from a batched VerifyChecksums pass). Classification
// order is identical — the flag is only consulted at the position the lazy
// path would compute the checksum — so ArenaDecodeStats breakdowns cannot
// differ between the batched and per-packet decoders.
WireError ViewWireEnvelopePrechecked(const uint8_t* data, std::size_t size,
                                     bool checksum_ok,
                                     WireEnvelopeView* out);

// Payload decoders over raw bytes, shared by TryDecodeReport and the batch
// staging path, so both validate payloads identically.
WireError GrrPayloadFromBytes(const uint8_t* payload, std::size_t size,
                              std::size_t domain, GrrWireReport* out);
WireError OlhPayloadFromBytes(const uint8_t* payload, std::size_t size,
                              OlhWireReport* out);
WireError HrPayloadFromBytes(const uint8_t* payload, std::size_t size,
                             HrWireReport* out);
// Bit-vector payloads validate by size only ((domain+7)/8 bytes, LSB-first
// packing); the batch path copies the raw bytes into 64-bit word columns
// instead of a vector<bool>, so there is no FromBytes materializer here.
bool BitVectorPayloadSizeOk(std::size_t size, std::size_t domain);

// Bytes of one encoded GRR value for `domain` (1, 2 or 4).
std::size_t GrrWireValueBytes(std::size_t domain);

// --- one-packet decoding ---
// One-shot envelope + payload decode of whatever oracle the packet claims,
// validated against `domain`. Writes `*out` fully only on kOk; on error
// it is left in an unspecified but valid state. The per-packet reference
// that ReportArena's batch decode is tested against.
WireError TryDecodeReport(const uint8_t* data, std::size_t size,
                          std::size_t domain, DecodedReport* out);
WireError TryDecodeReport(const std::vector<uint8_t>& packet,
                          std::size_t domain, DecodedReport* out);

// Size in bytes of an encoded report for capacity planning.
std::size_t EncodedReportSize(OracleId oracle, std::size_t domain);

}  // namespace ldpids

#endif  // LDPIDS_FO_WIRE_H_
