#include "fo/sketch_wire.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/histogram.h"

namespace ldpids {

namespace {

constexpr uint8_t kMagic0 = 0x50;  // 'P'
constexpr uint8_t kMagic1 = 0x53;  // 'S'
constexpr uint8_t kVersion = 1;
constexpr std::size_t kChecksumSize = 4;

bool OracleIdInRange(uint8_t id) {
  return id >= static_cast<uint8_t>(OracleId::kGrr) &&
         id <= static_cast<uint8_t>(OracleId::kHr);
}

}  // namespace

std::size_t EncodedPartialSketchSize(std::size_t count_len) {
  return kSketchWireHeaderSize + 8 * count_len + kChecksumSize;
}

uint64_t EpsilonBits(double epsilon) {
  return std::bit_cast<uint64_t>(epsilon);
}

double EpsilonFromBits(uint64_t bits) { return std::bit_cast<double>(bits); }

std::vector<uint8_t> EncodePartialSketch(const FoSketch& sketch,
                                         OracleId oracle, uint64_t node_id,
                                         uint64_t round_index,
                                         uint32_t timestamp,
                                         double epsilon) {
  Counts counts;
  sketch.ExportResolvedCounts(&counts);
  std::vector<uint8_t> out;
  out.reserve(EncodedPartialSketchSize(counts.size()));
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kVersion);
  out.push_back(static_cast<uint8_t>(oracle));
  PutU64Le(&out, node_id);
  PutU64Le(&out, round_index);
  PutU32Le(&out, timestamp);
  PutU64Le(&out, EpsilonBits(epsilon));
  PutU64Le(&out, static_cast<uint64_t>(sketch.domain()));
  PutU64Le(&out, sketch.num_users());
  PutU64Le(&out, static_cast<uint64_t>(counts.size()));
  for (uint64_t c : counts) PutU64Le(&out, c);
  PutU32Le(&out, WireChecksum(out.data(), out.size()));
  return out;
}

SketchWireError TryViewPartialSketch(const uint8_t* data, std::size_t size,
                                     PartialSketchView* out) {
  if (size < kSketchWireHeaderSize + kChecksumSize) {
    return SketchWireError::kTooShort;
  }
  if (data[0] != kMagic0 || data[1] != kMagic1) {
    return SketchWireError::kBadMagic;
  }
  if (data[2] != kVersion) return SketchWireError::kBadVersion;
  if (!OracleIdInRange(data[3])) return SketchWireError::kUnknownOracle;
  const uint64_t count_len = GetU64Le(data + 48);
  // Overflow-safe shape check: the bytes available for counts bound the
  // believable length before 8 * count_len is ever computed.
  const std::size_t count_bytes =
      size - kSketchWireHeaderSize - kChecksumSize;
  if (count_len != count_bytes / 8 || count_bytes % 8 != 0) {
    return SketchWireError::kLengthMismatch;
  }
  const uint32_t stored = GetU32Le(data + size - kChecksumSize);
  if (stored != WireChecksum(data, size - kChecksumSize)) {
    return SketchWireError::kChecksumMismatch;
  }
  out->oracle = static_cast<OracleId>(data[3]);
  out->node_id = GetU64Le(data + 4);
  out->round_index = GetU64Le(data + 12);
  out->timestamp = GetU32Le(data + 20);
  out->epsilon_bits = GetU64Le(data + 24);
  out->domain = GetU64Le(data + 32);
  out->num_users = GetU64Le(data + 40);
  out->counts = data + kSketchWireHeaderSize;
  out->count_len = static_cast<std::size_t>(count_len);
  return SketchWireError::kOk;
}

SketchWireError TryViewPartialSketch(const std::vector<uint8_t>& payload,
                                     PartialSketchView* out) {
  return TryViewPartialSketch(payload.data(), payload.size(), out);
}

bool PeekPartialSketchNodeId(const uint8_t* data, std::size_t size,
                             uint64_t* node_id) {
  if (size < 12) return false;
  if (data[0] != kMagic0 || data[1] != kMagic1 || data[2] != kVersion) {
    return false;
  }
  *node_id = GetU64Le(data + 4);
  return true;
}

bool MergePartialSketch(const uint8_t* data, std::size_t size,
                        OracleId oracle, uint64_t round_index,
                        double epsilon, std::size_t domain, FoSketch* sketch,
                        std::vector<uint64_t>* seen_nodes,
                        SketchMergeStats* stats) {
  PartialSketchView view;
  if (TryViewPartialSketch(data, size, &view) != SketchWireError::kOk) {
    ++stats->malformed;
    return false;
  }
  if (view.oracle != oracle) {
    ++stats->wrong_oracle;
    return false;
  }
  if (view.round_index != round_index) {
    ++stats->wrong_round;
    return false;
  }
  if (view.epsilon_bits != EpsilonBits(epsilon) || view.domain != domain) {
    ++stats->params_mismatch;
    return false;
  }
  if (std::find(seen_nodes->begin(), seen_nodes->end(), view.node_id) !=
      seen_nodes->end()) {
    ++stats->duplicate_node;
    return false;
  }
  // Materialize the LE counts once; a handful of partials per round makes
  // this a cold path next to the slices they summarize.
  Counts counts(view.count_len);
  for (std::size_t i = 0; i < view.count_len; ++i) {
    counts[i] = view.CountAt(i);
  }
  if (!sketch->AbsorbCounts(counts.data(), counts.size(), view.num_users)) {
    // A checksummed payload whose count length disagrees with the round's
    // sketch (hostile sender): typed reject, sketch untouched.
    ++stats->params_mismatch;
    return false;
  }
  seen_nodes->push_back(view.node_id);
  ++stats->merged;
  stats->users_merged += view.num_users;
  return true;
}

}  // namespace ldpids
