#include "obs/stats_feed.h"

namespace ldpids::obs {

namespace {

Labels WithReason(Labels labels, const char* reason) {
  labels.emplace_back("reason", reason);
  return labels;
}

Labels WithResult(Labels labels, const char* result) {
  labels.emplace_back("result", result);
  return labels;
}

}  // namespace

// --- FrameStatsFeed -------------------------------------------------------

FrameStatsFeed::FrameStatsFeed(MetricsRegistry* registry, const Labels& labels)
    : frames_(&registry->GetCounter("ldpids_frame_frames_total", labels)),
      data_frames_(
          &registry->GetCounter("ldpids_frame_data_frames_total", labels)),
      end_round_frames_(&registry->GetCounter(
          "ldpids_frame_end_round_frames_total", labels)),
      partial_sketch_frames_(&registry->GetCounter(
          "ldpids_frame_partial_sketch_frames_total", labels)),
      bytes_(&registry->GetCounter("ldpids_frame_bytes_total", labels)),
      skipped_bytes_(
          &registry->GetCounter("ldpids_frame_skipped_bytes_total", labels)),
      bad_magic_(&registry->GetCounter("ldpids_frame_errors_total",
                                       WithReason(labels, "bad_magic"))),
      bad_version_(&registry->GetCounter("ldpids_frame_errors_total",
                                         WithReason(labels, "bad_version"))),
      bad_kind_(&registry->GetCounter("ldpids_frame_errors_total",
                                      WithReason(labels, "bad_kind"))),
      oversize_(&registry->GetCounter("ldpids_frame_errors_total",
                                      WithReason(labels, "oversize"))),
      checksum_mismatch_(
          &registry->GetCounter("ldpids_frame_errors_total",
                                WithReason(labels, "checksum_mismatch"))),
      bad_control_(&registry->GetCounter("ldpids_frame_errors_total",
                                         WithReason(labels, "bad_control"))) {}

void FrameStatsFeed::Add(const transport::FrameStats& delta) {
  frames_->Add(delta.frames);
  data_frames_->Add(delta.data_frames);
  end_round_frames_->Add(delta.end_round_frames);
  partial_sketch_frames_->Add(delta.partial_sketch_frames);
  bytes_->Add(delta.bytes);
  skipped_bytes_->Add(delta.skipped_bytes);
  bad_magic_->Add(delta.bad_magic);
  bad_version_->Add(delta.bad_version);
  bad_kind_->Add(delta.bad_kind);
  oversize_->Add(delta.oversize);
  checksum_mismatch_->Add(delta.checksum_mismatch);
  bad_control_->Add(delta.bad_control);
}

// --- RoundBufferStatsFeed -------------------------------------------------

RoundBufferStatsFeed::RoundBufferStatsFeed(MetricsRegistry* registry,
                                           const Labels& labels)
    : buffered_(
          &registry->GetCounter("ldpids_roundbuf_buffered_total", labels)),
      end_markers_(
          &registry->GetCounter("ldpids_roundbuf_end_markers_total", labels)),
      closed_round_drops_(
          &registry->GetCounter("ldpids_roundbuf_drops_total",
                                WithReason(labels, "closed_round"))),
      too_late_drops_(&registry->GetCounter("ldpids_roundbuf_drops_total",
                                            WithReason(labels, "too_late"))),
      too_early_drops_(&registry->GetCounter("ldpids_roundbuf_drops_total",
                                             WithReason(labels, "too_early"))),
      rounds_drained_(&registry->GetCounter("ldpids_roundbuf_rounds_drained_total",
                                            labels)),
      packets_drained_(&registry->GetCounter(
          "ldpids_roundbuf_packets_drained_total", labels)),
      deadline_flushes_(&registry->GetCounter(
          "ldpids_roundbuf_deadline_flushes_total", labels)),
      duplicate_frames_(&registry->GetCounter(
          "ldpids_roundbuf_duplicate_frames_total", labels)),
      masked_losses_(
          &registry->GetCounter("ldpids_roundbuf_masked_losses_total", labels)),
      pending_rounds_(
          &registry->GetGauge("ldpids_roundbuf_pending_rounds", labels)) {}

void RoundBufferStatsFeed::Add(const transport::RoundBufferStats& delta) {
  buffered_->Add(delta.buffered);
  end_markers_->Add(delta.end_markers);
  closed_round_drops_->Add(delta.closed_round_drops);
  too_late_drops_->Add(delta.too_late_drops);
  too_early_drops_->Add(delta.too_early_drops);
  rounds_drained_->Add(delta.rounds_drained);
  packets_drained_->Add(delta.packets_drained);
  deadline_flushes_->Add(delta.deadline_flushes);
  duplicate_frames_->Add(delta.duplicate_frames);
  masked_losses_->Add(delta.masked_losses);
}

void RoundBufferStatsFeed::Publish(const transport::RoundBufferStats& current) {
  transport::RoundBufferStats delta = current;
  delta.buffered -= last_.buffered;
  delta.end_markers -= last_.end_markers;
  delta.closed_round_drops -= last_.closed_round_drops;
  delta.too_late_drops -= last_.too_late_drops;
  delta.too_early_drops -= last_.too_early_drops;
  delta.rounds_drained -= last_.rounds_drained;
  delta.packets_drained -= last_.packets_drained;
  delta.deadline_flushes -= last_.deadline_flushes;
  delta.duplicate_frames -= last_.duplicate_frames;
  delta.masked_losses -= last_.masked_losses;
  Add(delta);
  last_ = current;
}

void RoundBufferStatsFeed::SetPending(std::size_t pending_rounds) {
  pending_rounds_->Set(static_cast<int64_t>(pending_rounds));
}

// --- ArenaDecodeStatsFeed -------------------------------------------------

ArenaDecodeStatsFeed::ArenaDecodeStatsFeed(MetricsRegistry* registry,
                                           const Labels& labels)
    : decoded_(&registry->GetCounter("ldpids_arena_decoded_total", labels)),
      malformed_(&registry->GetCounter("ldpids_arena_rejects_total",
                                       WithReason(labels, "malformed"))),
      wrong_oracle_(&registry->GetCounter("ldpids_arena_rejects_total",
                                          WithReason(labels, "wrong_oracle"))),
      wrong_timestamp_(
          &registry->GetCounter("ldpids_arena_rejects_total",
                                WithReason(labels, "wrong_timestamp"))) {
  for (std::size_t e = 1; e < kWireErrorCount; ++e) {
    wire_errors_[e] = &registry->GetCounter(
        "ldpids_arena_wire_errors_total",
        WithReason(labels, WireErrorName(static_cast<WireError>(e))));
  }
}

void ArenaDecodeStatsFeed::Add(const ArenaDecodeStats& delta) {
  decoded_->Add(delta.decoded);
  malformed_->Add(delta.malformed);
  wrong_oracle_->Add(delta.wrong_oracle);
  wrong_timestamp_->Add(delta.wrong_timestamp);
  for (std::size_t e = 1; e < kWireErrorCount; ++e) {
    wire_errors_[e]->Add(delta.wire_errors[e]);
  }
}

// --- SketchMergeStatsFeed -------------------------------------------------

SketchMergeStatsFeed::SketchMergeStatsFeed(MetricsRegistry* registry,
                                           const Labels& labels)
    : merged_(&registry->GetCounter("ldpids_sketch_merge_partials_total",
                                    WithResult(labels, "merged"))),
      users_merged_(&registry->GetCounter("ldpids_sketch_merge_users_total",
                                          labels)),
      malformed_(&registry->GetCounter("ldpids_sketch_merge_partials_total",
                                       WithResult(labels, "malformed"))),
      wrong_oracle_(
          &registry->GetCounter("ldpids_sketch_merge_partials_total",
                                WithResult(labels, "wrong_oracle"))),
      wrong_round_(&registry->GetCounter("ldpids_sketch_merge_partials_total",
                                         WithResult(labels, "wrong_round"))),
      params_mismatch_(
          &registry->GetCounter("ldpids_sketch_merge_partials_total",
                                WithResult(labels, "params_mismatch"))),
      duplicate_node_(
          &registry->GetCounter("ldpids_sketch_merge_partials_total",
                                WithResult(labels, "duplicate_node"))),
      missing_(&registry->GetCounter("ldpids_sketch_merge_partials_total",
                                     WithResult(labels, "missing"))) {}

void SketchMergeStatsFeed::Add(const SketchMergeStats& delta) {
  merged_->Add(delta.merged);
  users_merged_->Add(delta.users_merged);
  malformed_->Add(delta.malformed);
  wrong_oracle_->Add(delta.wrong_oracle);
  wrong_round_->Add(delta.wrong_round);
  params_mismatch_->Add(delta.params_mismatch);
  duplicate_node_->Add(delta.duplicate_node);
  missing_->Add(delta.missing);
}

// --- IngestStatsFeed ------------------------------------------------------

IngestStatsFeed::IngestStatsFeed(MetricsRegistry* registry,
                                 const Labels& labels)
    : accepted_(&registry->GetCounter("ldpids_ingest_reports_total",
                                      WithResult(labels, "accepted"))),
      malformed_(&registry->GetCounter("ldpids_ingest_reports_total",
                                       WithResult(labels, "malformed"))),
      wrong_oracle_(&registry->GetCounter("ldpids_ingest_reports_total",
                                          WithResult(labels, "wrong_oracle"))),
      wrong_timestamp_(
          &registry->GetCounter("ldpids_ingest_reports_total",
                                WithResult(labels, "wrong_timestamp"))),
      duplicate_(&registry->GetCounter("ldpids_ingest_reports_total",
                                       WithResult(labels, "duplicate"))),
      sketch_rejected_(&registry->GetCounter(
          "ldpids_ingest_reports_total",
          WithResult(labels, "sketch_rejected"))) {}

void IngestStatsFeed::Add(const service::IngestStats& delta) {
  accepted_->Add(delta.accepted);
  malformed_->Add(delta.malformed);
  wrong_oracle_->Add(delta.wrong_oracle);
  wrong_timestamp_->Add(delta.wrong_timestamp);
  duplicate_->Add(delta.duplicate);
  sketch_rejected_->Add(delta.sketch_rejected);
}

}  // namespace ldpids::obs
