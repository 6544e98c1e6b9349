#include "fo/report_arena.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include "fo/hr.h"
#include "fo/olh.h"

namespace ldpids {

// wire_error() indexes the breakdown rows by WireError, and each row's
// label is WireErrorName's.
static_assert([] {
  const auto& rows = ArenaDecodeStats::kRows;
  constexpr auto kLast = static_cast<WireError>(kWireErrorCount - 1);
  if (std::size(rows) != ArenaDecodeStats::WireErrorRow(kLast) + 1) {
    return false;
  }
  for (std::size_t e = 1; e < kWireErrorCount; ++e) {
    const auto error = static_cast<WireError>(e);
    if (std::string_view(rows[ArenaDecodeStats::WireErrorRow(error)].name) !=
        WireErrorName(error)) {
      return false;
    }
  }
  return true;
}());

void ReportArena::BeginRound(OracleId oracle, uint32_t timestamp,
                             const FoParams& params) {
  ValidateFoParams(params);
  oracle_ = oracle;
  timestamp_ = timestamp;
  domain_ = params.domain;
  words_per_report_ = 0;
  range_bound_ = 0;
  switch (oracle) {
    case OracleId::kOue:
    case OracleId::kSue:
      words_per_report_ = (domain_ + 63) / 64;
      break;
    case OracleId::kOlh:
      range_bound_ = OlhOracle::BucketCount(params.epsilon);
      break;
    case OracleId::kHr:
      range_bound_ = HrOracle::HadamardSize(domain_);
      break;
    case OracleId::kGrr:
      break;
  }
  nonces_.clear();
  values_.clear();
  olh_seeds_.clear();
  olh_buckets_.clear();
  hr_columns_.clear();
  bit_words_.clear();
  in_range_.clear();
  stats_ = ArenaDecodeStats{};
}

void ReportArena::Append(const uint8_t* data, std::size_t size) {
  WireEnvelopeView view;
  AppendClassified(view, ViewWireEnvelope(data, size, &view));
}

void ReportArena::AppendVerified(const uint8_t* data, std::size_t size,
                                 bool checksum_ok) {
  WireEnvelopeView view;
  AppendClassified(view,
                   ViewWireEnvelopePrechecked(data, size, checksum_ok, &view));
}

void ReportArena::AppendClassified(const WireEnvelopeView& view,
                                   WireError err) {
  GrrWireReport grr;
  OlhWireReport olh;
  HrWireReport hr;
  if (err == WireError::kOk) {
    // Validate the payload against the oracle the packet CLAIMS, exactly
    // like TryDecodeReport: a mis-sized OLH payload is malformed even when
    // this round expects GRR, and a GRR value is checked against this
    // round's domain before the oracle comparison.
    switch (view.oracle) {
      case OracleId::kGrr:
        err = GrrPayloadFromBytes(view.payload, view.payload_size, domain_,
                                  &grr);
        break;
      case OracleId::kOue:
      case OracleId::kSue:
        err = BitVectorPayloadSizeOk(view.payload_size, domain_)
                  ? WireError::kOk
                  : WireError::kPayloadSize;
        break;
      case OracleId::kOlh:
        err = OlhPayloadFromBytes(view.payload, view.payload_size, &olh);
        break;
      case OracleId::kHr:
        err = HrPayloadFromBytes(view.payload, view.payload_size, &hr);
        break;
    }
  }
  if (err != WireError::kOk) {
    ++stats_.malformed;
    ++stats_.wire_error(err);
    return;
  }
  if (view.oracle != oracle_) {
    ++stats_.wrong_oracle;
    return;
  }
  if (view.timestamp != timestamp_) {
    ++stats_.wrong_timestamp;
    return;
  }

  nonces_.push_back(view.nonce);
  switch (oracle_) {
    case OracleId::kGrr:
      values_.push_back(grr.value);
      in_range_.push_back(1);  // decode already bounded the value
      break;
    case OracleId::kOue:
    case OracleId::kSue: {
      // Repack ceil(d/8) payload bytes into ceil(d/64) LSB-first words;
      // a partial tail word is zero-padded (the fold only reads bits < d).
      const std::size_t full = view.payload_size / 8;
      for (std::size_t w = 0; w < full; ++w) {
        bit_words_.push_back(GetU64Le(view.payload + 8 * w));
      }
      if (full < words_per_report_) {
        uint64_t tail = 0;
        for (std::size_t b = 8 * full; b < view.payload_size; ++b) {
          tail |= static_cast<uint64_t>(view.payload[b]) << (8 * (b % 8));
        }
        bit_words_.push_back(tail);
      }
      in_range_.push_back(1);  // decode already checked the width
      break;
    }
    case OracleId::kOlh:
      olh_seeds_.push_back(olh.seed);
      olh_buckets_.push_back(olh.bucket);
      in_range_.push_back(olh.bucket < range_bound_ ? 1 : 0);
      break;
    case OracleId::kHr:
      hr_columns_.push_back(hr.column);
      in_range_.push_back(hr.column < range_bound_ ? 1 : 0);
      break;
  }
  ++stats_.decoded;
}

template <typename Packet>
void ReportArena::AppendRangeImpl(const std::vector<Packet>& packets,
                                  std::size_t begin, std::size_t end) {
  // Batched checksum pass first: one VerifyChecksums call over the whole
  // range (the same entry the transport FrameDecoder funnels through),
  // then the classification loop consults the verdicts instead of hashing
  // per packet. Classification order is unchanged — the prechecked view
  // consults the verdict exactly where the lazy path would compute it.
  const std::size_t n = end - begin;
  verify_datas_.clear();
  verify_sizes_.clear();
  verify_datas_.reserve(n);
  verify_sizes_.reserve(n);
  for (std::size_t i = begin; i < end; ++i) {
    verify_datas_.push_back(packets[i].data());
    verify_sizes_.push_back(packets[i].size());
  }
  // resize, not assign: VerifyChecksums writes every verdict slot.
  verify_ok_.resize(n);
  VerifyChecksums(verify_datas_.data(), verify_sizes_.data(), n,
                  verify_ok_.data());
  // Reserve the active columns once for the whole range; rejected packets
  // over-reserve slightly, which the next round reuses anyway.
  nonces_.reserve(nonces_.size() + n);
  in_range_.reserve(in_range_.size() + n);
  switch (oracle_) {
    case OracleId::kGrr:
      values_.reserve(values_.size() + n);
      break;
    case OracleId::kOue:
    case OracleId::kSue:
      bit_words_.reserve(bit_words_.size() + n * words_per_report_);
      break;
    case OracleId::kOlh:
      olh_seeds_.reserve(olh_seeds_.size() + n);
      olh_buckets_.reserve(olh_buckets_.size() + n);
      break;
    case OracleId::kHr:
      hr_columns_.reserve(hr_columns_.size() + n);
      break;
  }
  for (std::size_t i = 0; i < n; ++i) {
    AppendVerified(verify_datas_[i], verify_sizes_[i], verify_ok_[i] != 0);
  }
}

void ReportArena::AppendBatch(const std::vector<std::vector<uint8_t>>& packets) {
  AppendRangeImpl(packets, 0, packets.size());
}

void ReportArena::AppendBatch(const std::vector<PayloadRef>& packets) {
  AppendRangeImpl(packets, 0, packets.size());
}

void ReportArena::AppendRange(const std::vector<std::vector<uint8_t>>& packets,
                              std::size_t begin, std::size_t end) {
  AppendRangeImpl(packets, begin, end);
}

void ReportArena::AppendRange(const std::vector<PayloadRef>& packets,
                              std::size_t begin, std::size_t end) {
  AppendRangeImpl(packets, begin, end);
}

void ReportArena::Concat(const ReportArena& other) {
  if (other.oracle_ != oracle_ || other.timestamp_ != timestamp_ ||
      other.domain_ != domain_ || other.range_bound_ != range_bound_ ||
      other.words_per_report_ != words_per_report_) {
    throw std::invalid_argument("arena concat: round configuration differs");
  }
  nonces_.insert(nonces_.end(), other.nonces_.begin(), other.nonces_.end());
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  olh_seeds_.insert(olh_seeds_.end(), other.olh_seeds_.begin(),
                    other.olh_seeds_.end());
  olh_buckets_.insert(olh_buckets_.end(), other.olh_buckets_.begin(),
                      other.olh_buckets_.end());
  hr_columns_.insert(hr_columns_.end(), other.hr_columns_.begin(),
                     other.hr_columns_.end());
  bit_words_.insert(bit_words_.end(), other.bit_words_.begin(),
                    other.bit_words_.end());
  in_range_.insert(in_range_.end(), other.in_range_.begin(),
                   other.in_range_.end());
  stats_ += other.stats_;
}

void ReportArena::ReportAt(std::size_t i, DecodedReport* out) const {
  if (i >= size()) throw std::out_of_range("arena row out of range");
  out->oracle = oracle_;
  out->timestamp = timestamp_;
  out->nonce = nonces_[i];
  switch (oracle_) {
    case OracleId::kGrr:
      out->grr.value = values_[i];
      break;
    case OracleId::kOue:
    case OracleId::kSue: {
      const uint64_t* words = bit_words_.data() + i * words_per_report_;
      out->bits.bits.assign(domain_, false);
      for (std::size_t k = 0; k < domain_; ++k) {
        out->bits.bits[k] = (words[k / 64] >> (k % 64)) & 1u;
      }
      break;
    }
    case OracleId::kOlh:
      out->olh.seed = olh_seeds_[i];
      out->olh.bucket = olh_buckets_[i];
      break;
    case OracleId::kHr:
      out->hr.column = hr_columns_[i];
      break;
  }
}

}  // namespace ldpids
