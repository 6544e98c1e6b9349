// Outcome tables: one constexpr row list per stats struct.
//
// Each layer of the serving data plane (frame decode, round buffering,
// arena decode, shard ingest, sketch merge) counts what happened to the
// items it saw in a plain struct of uint64_t fields, so the hot path pays
// one increment per outcome. The struct lists its fields once, in a
// `static constexpr StatRow<Stats> kRows[]`: the field, its snake_case
// name, the metric series it is published under, and its kind. Deriving
// from `StatTable<Stats>` then gives `+=`, `total()`, `drops()` and
// `ToString()` from that list, and obs/stats_feed.h publishes any such
// struct from the same rows.
//
// Kinds state the layer's conservation law. Every item a layer sees lands
// in exactly one pass or drop row, so total() is the layer's inflow and
// drops() what it discarded. A detail row (a byte count, a breakdown or
// subset of another row, a per-round tally) adds to neither.
#ifndef LDPIDS_UTIL_STAT_TABLE_H_
#define LDPIDS_UTIL_STAT_TABLE_H_

#include <cstdint>
#include <string>

namespace ldpids::util {

enum class StatKind : uint8_t {
  kPass,    // the item is kept: handed on, or consumed (an end marker)
  kDrop,    // the item stops here, for the reason the row names
  kDetail,  // not an outcome: counted in neither total() nor drops()
};

template <typename Stats>
struct StatRow {
  uint64_t Stats::*field;
  // snake_case: ToString's key and, under a labeled series, the label value.
  const char* name;
  // Metric series; nullptr when another layer's table publishes the count.
  const char* series;
  // Label key the name is published under ("reason", "result"), or nullptr
  // when the row has the series to itself.
  const char* label;
  StatKind kind;
};

// CRTP base: `struct FooStats : util::StatTable<FooStats>` with the fields
// and `kRows` declared in FooStats.
template <typename Stats>
struct StatTable {
  Stats& operator+=(const Stats& other) {
    Stats& self = static_cast<Stats&>(*this);
    for (const StatRow<Stats>& row : Stats::kRows) {
      self.*row.field += other.*row.field;
    }
    return self;
  }

  // Every outcome: pass rows plus drop rows.
  uint64_t total() const {
    return Sum(StatKind::kPass) + Sum(StatKind::kDrop);
  }
  uint64_t drops() const { return Sum(StatKind::kDrop); }

  // "name=value" for every row, in row order.
  std::string ToString() const {
    std::string out;
    for (const StatRow<Stats>& row : Stats::kRows) {
      if (!out.empty()) out += ' ';
      out += row.name;
      out += '=';
      out += std::to_string(static_cast<const Stats&>(*this).*row.field);
    }
    return out;
  }

 private:
  uint64_t Sum(StatKind kind) const {
    uint64_t sum = 0;
    for (const StatRow<Stats>& row : Stats::kRows) {
      if (row.kind == kind) sum += static_cast<const Stats&>(*this).*row.field;
    }
    return sum;
  }
};

}  // namespace ldpids::util

#endif  // LDPIDS_UTIL_STAT_TABLE_H_
