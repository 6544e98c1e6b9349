// Publishes the data plane's stats structs into the metrics registry.
//
// Every layer's stats struct carries its own outcome table
// (util/stat_table.h): each row names the field, its snake_case name, the
// series it is published under and its kind. One feed, `StatsFeed<Stats>`,
// publishes any such struct from its rows: a row with a series becomes one
// counter, labeled with the feed's labels plus {row.label=row.name} when
// the row has a label key. The tables give the canonical names:
//
//   transport::FrameStats       -> ldpids_frame_*
//   transport::RoundBufferStats -> ldpids_roundbuf_*
//   ArenaDecodeStats            -> ldpids_arena_*
//   service::IngestStats        -> ldpids_ingest_reports_total{result=...}
//   SketchMergeStats            -> ldpids_sketch_merge_*
//
// A row without a series is published by another layer's table (the
// ingest copies of the arena's wire-level rejects), so each drop has
// exactly one series.
//
// The structs stay the in-component source of truth (plain uint64
// increments, per-round snapshots, ToString); a feed takes them two ways:
//
//   Add(delta)        — the caller hands a fresh delta (e.g. one round's
//                       IngestStats); counters advance by it.
//   Publish(current)  — the caller hands the component's cumulative
//                       struct; the feed diffs it against the last
//                       published state and adds the difference. Safe to
//                       call repeatedly with the same snapshot.
//
// A feed registers every counter at construction, so publishing on a hot
// path never touches the registry mutex. Each feed instance tracks one
// component's cumulative state: give each decoder/buffer/session its own
// feed (they may share labels — counters are additive).
#ifndef LDPIDS_OBS_STATS_FEED_H_
#define LDPIDS_OBS_STATS_FEED_H_

#include <array>
#include <cstddef>
#include <iterator>

#include "obs/metrics.h"
#include "util/stat_table.h"

namespace ldpids::obs {

template <typename Stats>
class StatsFeed {
 public:
  explicit StatsFeed(MetricsRegistry* registry, const Labels& labels = {}) {
    for (std::size_t i = 0; i < kRowCount; ++i) {
      const util::StatRow<Stats>& row = Stats::kRows[i];
      if (row.series == nullptr) continue;
      Labels row_labels = labels;
      if (row.label != nullptr) row_labels.emplace_back(row.label, row.name);
      counters_[i] = &registry->GetCounter(row.series, row_labels);
    }
  }

  void Add(const Stats& delta) {
    for (std::size_t i = 0; i < kRowCount; ++i) {
      if (counters_[i] != nullptr) {
        counters_[i]->Add(delta.*Stats::kRows[i].field);
      }
    }
  }

  void Publish(const Stats& current) {
    for (std::size_t i = 0; i < kRowCount; ++i) {
      const auto field = Stats::kRows[i].field;
      if (counters_[i] != nullptr) {
        counters_[i]->Add(current.*field - last_.*field);
      }
    }
    last_ = current;
  }

 private:
  static constexpr std::size_t kRowCount = std::size(Stats::kRows);
  std::array<Counter*, kRowCount> counters_{};
  Stats last_{};
};

}  // namespace ldpids::obs

#endif  // LDPIDS_OBS_STATS_FEED_H_
