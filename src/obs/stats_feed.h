// Bridges from the data plane's per-component stats structs into the
// metrics registry, giving every counter they hold a canonical metric
// name:
//
//   transport::FrameStats      -> ldpids_frame_*
//   transport::RoundBufferStats-> ldpids_roundbuf_*
//   ArenaDecodeStats           -> ldpids_arena_*
//   service::IngestStats       -> ldpids_ingest_*
//
// The structs stay the in-component source of truth (cheap plain
// uint64 increments, per-round snapshots, ToString); a feed publishes
// them into registry counters so exporters and scrapes see them under
// stable names. Every feed takes deltas:
//
//   Add(delta)        — the caller hands a fresh delta (e.g. one round's
//                       IngestStats); counters advance by it.
//
// Two feeds also take cumulative state, for components that only keep a
// running total (RoundBuffer, StreamServer's fleet rollup):
//
//   Publish(current)  — the caller hands the component's cumulative
//                       struct; the feed diffs it against the last
//                       published state and adds the difference. Safe to
//                       call repeatedly with the same snapshot.
//
// Feeds pre-register every counter at construction, so publishing on a
// hot path never touches the registry mutex. Each feed instance tracks
// one component's cumulative state: give each decoder/buffer/session its
// own feed (they may share labels — counters are additive).
//
// This header is the top of the obs dependency stack: it includes the
// component headers, so only .cc files should include it (component
// headers forward-declare the feed types).
#ifndef LDPIDS_OBS_STATS_FEED_H_
#define LDPIDS_OBS_STATS_FEED_H_

#include "fo/report_arena.h"
#include "fo/sketch_wire.h"
#include "obs/metrics.h"
#include "service/ingest.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"

namespace ldpids::obs {

// FrameStats -> ldpids_frame_{frames,data_frames,end_round_frames,
// partial_sketch_frames,bytes,skipped_bytes}_total and
// ldpids_frame_errors_total{reason=...}.
class FrameStatsFeed {
 public:
  FrameStatsFeed(MetricsRegistry* registry, const Labels& labels = {});

  void Add(const transport::FrameStats& delta);

 private:
  Counter* frames_;
  Counter* data_frames_;
  Counter* end_round_frames_;
  Counter* partial_sketch_frames_;
  Counter* bytes_;
  Counter* skipped_bytes_;
  Counter* bad_magic_;
  Counter* bad_version_;
  Counter* bad_kind_;
  Counter* oversize_;
  Counter* checksum_mismatch_;
  Counter* bad_control_;
};

// RoundBufferStats -> ldpids_roundbuf_{buffered,end_markers,rounds_drained,
// packets_drained,deadline_flushes,duplicate_frames,masked_losses}_total,
// ldpids_roundbuf_drops_total{reason=...}, plus the
// ldpids_roundbuf_pending_rounds gauge (SetPending).
class RoundBufferStatsFeed {
 public:
  RoundBufferStatsFeed(MetricsRegistry* registry, const Labels& labels = {});

  void Add(const transport::RoundBufferStats& delta);
  void Publish(const transport::RoundBufferStats& current);
  void SetPending(std::size_t pending_rounds);

 private:
  Counter* buffered_;
  Counter* end_markers_;
  Counter* closed_round_drops_;
  Counter* too_late_drops_;
  Counter* too_early_drops_;
  Counter* rounds_drained_;
  Counter* packets_drained_;
  Counter* deadline_flushes_;
  Counter* duplicate_frames_;
  Counter* masked_losses_;
  Gauge* pending_rounds_;
  transport::RoundBufferStats last_;
};

// ArenaDecodeStats -> ldpids_arena_decoded_total,
// ldpids_arena_rejects_total{reason=...} and
// ldpids_arena_wire_errors_total{reason=<WireErrorName>} (kOk elided).
class ArenaDecodeStatsFeed {
 public:
  ArenaDecodeStatsFeed(MetricsRegistry* registry, const Labels& labels = {});

  void Add(const ArenaDecodeStats& delta);

 private:
  Counter* decoded_;
  Counter* malformed_;
  Counter* wrong_oracle_;
  Counter* wrong_timestamp_;
  // Index 0 (kOk) stays null — a decoded packet is not a wire error.
  Counter* wire_errors_[kWireErrorCount] = {};
};

// SketchMergeStats -> ldpids_sketch_merge_partials_total{result=...} and
// ldpids_sketch_merge_users_total (the root side of the merge tree; the
// per-aggregator emit side publishes ldpids_aggregator_* directly).
class SketchMergeStatsFeed {
 public:
  SketchMergeStatsFeed(MetricsRegistry* registry, const Labels& labels = {});

  void Add(const SketchMergeStats& delta);

 private:
  Counter* merged_;
  Counter* users_merged_;
  Counter* malformed_;
  Counter* wrong_oracle_;
  Counter* wrong_round_;
  Counter* params_mismatch_;
  Counter* duplicate_node_;
  Counter* missing_;
};

// IngestStats -> ldpids_ingest_reports_total{result=<IngestResultName>}.
class IngestStatsFeed {
 public:
  IngestStatsFeed(MetricsRegistry* registry, const Labels& labels = {});

  void Add(const service::IngestStats& delta);
  void Publish(const service::IngestStats& current);

 private:
  Counter* accepted_;
  Counter* malformed_;
  Counter* wrong_oracle_;
  Counter* wrong_timestamp_;
  Counter* duplicate_;
  Counter* sketch_rejected_;
  service::IngestStats last_;
};

}  // namespace ldpids::obs

#endif  // LDPIDS_OBS_STATS_FEED_H_
