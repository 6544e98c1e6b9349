// Wire format for *resolved* partial sketches — the serialization
// boundary of the distributed merge tree.
//
// An aggregator node ingests its slice of the client fleet's reports into
// a local FoSketch and ships the round's aggregate upstream as one
// partial-sketch payload. The payload carries the sketch's resolved
// additive count vector (FoSketch::ExportResolvedCounts — MergeFrom
// already forces resolution on both sides, so resolved counts plus
// num_users are the complete merge state) together with a params digest
// the root validates before folding. Because every field the root adds is
// an integer count, merging K children's partials is bit-identical to
// single-process ingestion of the union of their slices, no matter how
// users were partitioned.
//
// Envelope (all integers little-endian):
//
//   byte 0      magic 0x50 ('P')
//   byte 1      magic 0x53 ('S', "partial sketch")
//   byte 2      version (1)
//   byte 3      oracle id (fo/wire.h OracleId)
//   bytes 4-11  node id (uint64): the emitting aggregator. Gives every
//               node's partial a distinct identity for the RoundBuffer's
//               completion accounting even when two children's count
//               vectors are byte-identical (e.g. zero-report rounds).
//   bytes 12-19 round index (uint64)
//   bytes 20-23 timestamp (uint32)
//   bytes 24-31 epsilon bits (uint64: the bit pattern of the double —
//               params must match *exactly*, so the digest compares bit
//               patterns, never rounded text)
//   bytes 32-39 domain (uint64)
//   bytes 40-47 num_users (uint64)
//   bytes 48-55 count vector length (uint64; every shipped oracle's
//               resolved vector is exactly `domain` long, but the absorb
//               edge re-validates rather than trusting the wire)
//   bytes 56..  counts (uint64 each)
//   last 4      checksum of everything before it (fo/wire.h WireChecksum)
//
// Decoding follows the TryDecode* discipline of fo/wire.h: non-throwing,
// typed errors, and the output view is written only on kOk — corrupt
// bytes can never half-decode. MergePartialSketch adds the round-scoped
// validation (oracle/round/params digest, per-round node dedup) with a
// typed SketchMergeStats reason for every rejection; a mismatched partial
// is never silently folded.
#ifndef LDPIDS_FO_SKETCH_WIRE_H_
#define LDPIDS_FO_SKETCH_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fo/frequency_oracle.h"
#include "fo/wire.h"
#include "util/stat_table.h"

namespace ldpids {

// Precise decode outcome. kOk is 0 so results can be truth-tested.
enum class SketchWireError : uint8_t {
  kOk = 0,
  kTooShort,           // smaller than header + checksum
  kBadMagic,
  kBadVersion,
  kUnknownOracle,      // oracle id outside [kGrr, kHr]
  kLengthMismatch,     // declared count length does not match the bytes
  kChecksumMismatch,
};

// Fixed bytes before the count vector.
inline constexpr std::size_t kSketchWireHeaderSize = 56;

// Encoded size of a partial sketch carrying `count_len` counts.
std::size_t EncodedPartialSketchSize(std::size_t count_len);

// A validated partial sketch viewing the caller's payload buffer (no
// count materialization; the view borrows `data`).
struct PartialSketchView {
  OracleId oracle = OracleId::kGrr;
  uint64_t node_id = 0;
  uint64_t round_index = 0;
  uint32_t timestamp = 0;
  uint64_t epsilon_bits = 0;
  uint64_t domain = 0;
  uint64_t num_users = 0;
  const uint8_t* counts = nullptr;  // count_len uint64 LE values
  std::size_t count_len = 0;

  uint64_t CountAt(std::size_t i) const { return GetU64Le(counts + 8 * i); }
};

// The bit pattern of an epsilon for the params digest (and its inverse).
uint64_t EpsilonBits(double epsilon);
double EpsilonFromBits(uint64_t bits);

// Encodes `sketch`'s resolved state (ExportResolvedCounts + num_users)
// under the given round coordinates. `epsilon` must be the FoParams
// epsilon the sketch was created with — the digest the root validates.
std::vector<uint8_t> EncodePartialSketch(const FoSketch& sketch,
                                         OracleId oracle, uint64_t node_id,
                                         uint64_t round_index,
                                         uint32_t timestamp, double epsilon);

// Validates magic/version/oracle-range/length/checksum and fills the
// view. `*out` is written only on kOk.
SketchWireError TryViewPartialSketch(const uint8_t* data, std::size_t size,
                                     PartialSketchView* out);
SketchWireError TryViewPartialSketch(const std::vector<uint8_t>& payload,
                                     PartialSketchView* out);

// Reads the node id out of an encoded partial sketch without validating
// the rest (magic/version prefix and minimum length only) — the
// transport's PacketIdentity hook, mirroring PeekWireNonce: re-deliveries
// of one node's partial share an identity, distinct nodes never collide.
bool PeekPartialSketchNodeId(const uint8_t* data, std::size_t size,
                             uint64_t* node_id);

// Typed accounting of a root's partial-sketch merges. Every payload
// handed to MergePartialSketch lands in exactly one of `merged` or a
// rejection reason (a rejected partial never touches the round sketch).
// `missing` is owned by the caller: announced children whose partial
// never arrived before the round flushed (the failed-aggregator signal);
// it and `users_merged` are details, not outcomes.
struct SketchMergeStats : util::StatTable<SketchMergeStats> {
  uint64_t merged = 0;
  uint64_t users_merged = 0;     // sum of merged partials' num_users
  uint64_t malformed = 0;        // wire-level reject (TryViewPartialSketch)
  uint64_t wrong_oracle = 0;
  uint64_t wrong_round = 0;
  uint64_t params_mismatch = 0;  // epsilon bits, domain or count length
  uint64_t duplicate_node = 0;   // same node id twice within one round
  uint64_t missing = 0;

  static constexpr util::StatRow<SketchMergeStats> kRows[] = {
      {&SketchMergeStats::merged, "merged",
       "ldpids_sketch_merge_partials_total", "result", util::StatKind::kPass},
      {&SketchMergeStats::users_merged, "users_merged",
       "ldpids_sketch_merge_users_total", nullptr, util::StatKind::kDetail},
      {&SketchMergeStats::malformed, "malformed",
       "ldpids_sketch_merge_partials_total", "result", util::StatKind::kDrop},
      {&SketchMergeStats::wrong_oracle, "wrong_oracle",
       "ldpids_sketch_merge_partials_total", "result", util::StatKind::kDrop},
      {&SketchMergeStats::wrong_round, "wrong_round",
       "ldpids_sketch_merge_partials_total", "result", util::StatKind::kDrop},
      {&SketchMergeStats::params_mismatch, "params_mismatch",
       "ldpids_sketch_merge_partials_total", "result", util::StatKind::kDrop},
      {&SketchMergeStats::duplicate_node, "duplicate_node",
       "ldpids_sketch_merge_partials_total", "result", util::StatKind::kDrop},
      {&SketchMergeStats::missing, "missing",
       "ldpids_sketch_merge_partials_total", "result",
       util::StatKind::kDetail},
  };
};

// Validates one encoded partial sketch against the round's expectations
// and folds it into `*sketch` (AbsorbCounts) when everything matches.
// Never throws on wire-level garbage: exactly one SketchMergeStats
// counter advances per call. `seen_nodes` dedups emitters within the
// round (caller clears it per round). Returns true iff the payload was
// folded.
bool MergePartialSketch(const uint8_t* data, std::size_t size,
                        OracleId oracle, uint64_t round_index,
                        double epsilon, std::size_t domain, FoSketch* sketch,
                        std::vector<uint64_t>* seen_nodes,
                        SketchMergeStats* stats);

}  // namespace ldpids

#endif  // LDPIDS_FO_SKETCH_WIRE_H_
