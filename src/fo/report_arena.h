// Columnar staging of one round's wire reports — the struct-of-arrays
// counterpart of per-packet TryDecodeReport.
//
// A ReportArena batch-decodes a whole (session, round)'s packets exactly
// once into contiguous columns:
//
//   nonces[]       u64  routing/dedup key, carried from the envelope
//   values[]       u32  GRR value index
//   olh_seeds[]    u64  \  OLH report pair
//   olh_buckets[]  u32  /
//   hr_columns[]   u32  HR Hadamard column
//   bit_words[]    u64  OUE/SUE packed bit rows, words_per_report() each,
//                       LSB-first (bit k of a report = word k/64, bit k%64)
//   in_range[]     u8   1 iff the payload passes the sketch's range check
//                       (OLH bucket < g, HR column < K; always 1 for
//                       GRR/OUE/SUE whose decode already validates range)
//
// in the style of arbor's multi_event_stream staged event ranges: decode
// once, then every downstream stage (shard routing, duplicate rejection,
// vectorized sketch folds — FoSketch::AddReports) streams plain arrays.
//
// Classification runs in a fixed order: a packet failing envelope or
// claimed-oracle payload validation is `malformed` (with a per-WireError
// breakdown), then a valid packet for another oracle is `wrong_oracle`,
// then a wrong-round packet is `wrong_timestamp`; only the survivors get
// a row. Duplicate and
// sketch-rejected classification is deliberately NOT done here — it is
// order-dependent state owned by the ingest shards (a nonce is burned only
// on acceptance), which is why rows carry the in_range flag instead.
//
// Only the expected oracle's columns are populated; rows are appended in
// packet order, and Concat preserves that order across chunk-parallel
// decodes. An arena does not own packet buffers and copies everything it
// keeps, so the packets may be freed after Append returns.
#ifndef LDPIDS_FO_REPORT_ARENA_H_
#define LDPIDS_FO_REPORT_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fo/frequency_oracle.h"
#include "fo/wire.h"
#include "util/buffer_pool.h"
#include "util/stat_table.h"

namespace ldpids {

// Per-reason decode accounting for one round's staged batch: every packet
// is decoded or one of three rejects, so total() counts the packets fed.
struct ArenaDecodeStats : util::StatTable<ArenaDecodeStats> {
  uint64_t decoded = 0;          // packets that became rows
  uint64_t malformed = 0;        // any WireError, including out-of-domain
  uint64_t wrong_oracle = 0;     // valid packet for a different oracle
  uint64_t wrong_timestamp = 0;  // valid packet for a different round
  // Breakdown of `malformed` by WireError, in enum order.
  uint64_t too_short = 0;
  uint64_t bad_magic = 0;
  uint64_t bad_version = 0;
  uint64_t unknown_oracle = 0;
  uint64_t length_mismatch = 0;
  uint64_t checksum_mismatch = 0;
  uint64_t payload_size = 0;
  uint64_t value_out_of_domain = 0;

  // The breakdown counter of `error`, which must not be kOk.
  uint64_t& wire_error(WireError error) {
    return this->*kRows[WireErrorRow(error)].field;
  }
  uint64_t wire_error(WireError error) const {
    return this->*kRows[WireErrorRow(error)].field;
  }

  // Rows 4.. are the breakdown, one per WireError after kOk, named
  // WireErrorName(error) (checked in report_arena.cc).
  static constexpr std::size_t WireErrorRow(WireError error) {
    return 3 + static_cast<std::size_t>(error);
  }
  static constexpr util::StatRow<ArenaDecodeStats> kRows[] = {
      {&ArenaDecodeStats::decoded, "decoded", "ldpids_arena_decoded_total",
       nullptr, util::StatKind::kPass},
      {&ArenaDecodeStats::malformed, "malformed",
       "ldpids_arena_rejects_total", "reason", util::StatKind::kDrop},
      {&ArenaDecodeStats::wrong_oracle, "wrong_oracle",
       "ldpids_arena_rejects_total", "reason", util::StatKind::kDrop},
      {&ArenaDecodeStats::wrong_timestamp, "wrong_timestamp",
       "ldpids_arena_rejects_total", "reason", util::StatKind::kDrop},
      {&ArenaDecodeStats::too_short, "too_short",
       "ldpids_arena_wire_errors_total", "reason", util::StatKind::kDetail},
      {&ArenaDecodeStats::bad_magic, "bad_magic",
       "ldpids_arena_wire_errors_total", "reason", util::StatKind::kDetail},
      {&ArenaDecodeStats::bad_version, "bad_version",
       "ldpids_arena_wire_errors_total", "reason", util::StatKind::kDetail},
      {&ArenaDecodeStats::unknown_oracle, "unknown_oracle",
       "ldpids_arena_wire_errors_total", "reason", util::StatKind::kDetail},
      {&ArenaDecodeStats::length_mismatch, "length_mismatch",
       "ldpids_arena_wire_errors_total", "reason", util::StatKind::kDetail},
      {&ArenaDecodeStats::checksum_mismatch, "checksum_mismatch",
       "ldpids_arena_wire_errors_total", "reason", util::StatKind::kDetail},
      {&ArenaDecodeStats::payload_size, "payload_size",
       "ldpids_arena_wire_errors_total", "reason", util::StatKind::kDetail},
      {&ArenaDecodeStats::value_out_of_domain, "value_out_of_domain",
       "ldpids_arena_wire_errors_total", "reason", util::StatKind::kDetail},
  };
};

class ReportArena {
 public:
  // Configures the arena for one round and clears previous rows/stats
  // (column capacity is kept, so a reused arena stops allocating after the
  // first round). Derives the OLH bucket count g from params.epsilon and
  // the HR Hadamard size K from params.domain for the in_range flags.
  void BeginRound(OracleId oracle, uint32_t timestamp, const FoParams& params);

  // Decodes one packet: classifies it into stats() and, when fully valid
  // for this round, appends its row. Never throws on packet content.
  void Append(const uint8_t* data, std::size_t size);
  void Append(const std::vector<uint8_t>& packet) {
    Append(packet.data(), packet.size());
  }
  // Batch decode. Checksums are verified for the whole batch in one
  // batched VerifyChecksums pass (fo/wire.h) before the per-packet
  // classification loop; the classification itself — order, per-reason
  // stats, rows — is identical to calling Append per packet. The
  // PayloadRef overloads consume transport frame payloads in place (no
  // per-packet copy between the socket and the columns).
  void AppendBatch(const std::vector<std::vector<uint8_t>>& packets);
  void AppendBatch(const std::vector<PayloadRef>& packets);
  // Contiguous sub-range [begin, end) of a batch, for chunked decode.
  void AppendRange(const std::vector<std::vector<uint8_t>>& packets,
                   std::size_t begin, std::size_t end);
  void AppendRange(const std::vector<PayloadRef>& packets, std::size_t begin,
                   std::size_t end);

  // Ordered concatenation of another arena staged with the same BeginRound
  // configuration (throws std::invalid_argument otherwise): rows keep
  // their relative order, stats are summed. This is how chunk-parallel
  // decoders merge back into one arena in chunk order.
  void Concat(const ReportArena& other);

  OracleId oracle() const { return oracle_; }
  uint32_t timestamp() const { return timestamp_; }
  std::size_t domain() const { return domain_; }
  std::size_t size() const { return nonces_.size(); }
  // 64-bit words per OUE/SUE row; 0 for other oracles.
  std::size_t words_per_report() const { return words_per_report_; }
  const ArenaDecodeStats& stats() const { return stats_; }

  const uint64_t* nonces() const { return nonces_.data(); }
  const uint32_t* values() const { return values_.data(); }
  const uint64_t* olh_seeds() const { return olh_seeds_.data(); }
  const uint32_t* olh_buckets() const { return olh_buckets_.data(); }
  const uint32_t* hr_columns() const { return hr_columns_.data(); }
  const uint64_t* bit_words() const { return bit_words_.data(); }
  const uint8_t* in_range() const { return in_range_.data(); }

  // Rebuilds row `i` as a classic DecodedReport — the scalar reference
  // path (FoSketch::AddReports' default implementation) and tests use it;
  // the vectorized folds read the columns directly.
  void ReportAt(std::size_t i, DecodedReport* out) const;

 private:
  // Append with the checksum verdict precomputed by the batched pass.
  void AppendVerified(const uint8_t* data, std::size_t size,
                      bool checksum_ok);
  // Shared batch body over any packet container exposing data()/size().
  template <typename Packet>
  void AppendRangeImpl(const std::vector<Packet>& packets, std::size_t begin,
                       std::size_t end);
  // Classification + row append shared by the lazy and prechecked paths.
  void AppendClassified(const WireEnvelopeView& view, WireError err);

  OracleId oracle_ = OracleId::kGrr;
  uint32_t timestamp_ = 0;
  std::size_t domain_ = 0;
  std::size_t words_per_report_ = 0;
  uint64_t range_bound_ = 0;  // OLH: g; HR: K; others unused

  // Scratch for the batched checksum pass; reused across batches.
  std::vector<const uint8_t*> verify_datas_;
  std::vector<std::size_t> verify_sizes_;
  std::vector<uint8_t> verify_ok_;

  std::vector<uint64_t> nonces_;
  std::vector<uint32_t> values_;
  std::vector<uint64_t> olh_seeds_;
  std::vector<uint32_t> olh_buckets_;
  std::vector<uint32_t> hr_columns_;
  std::vector<uint64_t> bit_words_;
  std::vector<uint8_t> in_range_;
  ArenaDecodeStats stats_;
};

// A view of selected arena rows (in the given order) handed to
// FoSketch::AddReports. The ingest edge builds one per shard from the rows
// that survived duplicate rejection and the in_range check, so sketches
// fold every listed row unconditionally. indices == nullptr with count > 0
// means the contiguous identity slice — row i of the slice is arena row i —
// which is the common clean-stream shape (single shard, nothing rejected)
// and lets folds stream the columns without an indirection.
struct ArenaSlice {
  const ReportArena* arena = nullptr;
  const uint32_t* indices = nullptr;
  std::size_t count = 0;
};

}  // namespace ldpids

#endif  // LDPIDS_FO_REPORT_ARENA_H_
