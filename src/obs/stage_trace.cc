#include "obs/stage_trace.h"

#include "obs/flight_recorder.h"

namespace ldpids::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kAnnounce:
      return "announce";
    case Stage::kTransportRtt:
      return "transport_rtt";
    case Stage::kFrameDecode:
      return "frame_decode";
    case Stage::kArenaDecode:
      return "arena_decode";
    case Stage::kShardFold:
      return "shard_fold";
    case Stage::kMerge:
      return "merge";
    case Stage::kSketchMerge:
      return "sketch_merge";
    case Stage::kEstimate:
      return "estimate";
    case Stage::kPostProcess:
      return "post_process";
  }
  return "unknown";
}

StageSink::StageSink(MetricsRegistry* registry,
                     const std::string& session_label,
                     FlightRecorder* recorder)
    : enabled_(registry != nullptr || recorder != nullptr),
      recorder_(recorder) {
  if (registry != nullptr) {
    for (std::size_t i = 0; i < kNumStages; ++i) {
      Labels labels{{"stage", StageName(static_cast<Stage>(i))}};
      if (!session_label.empty()) labels.emplace_back("session", session_label);
      histograms_[i] = &registry->GetHistogram(kStageDurationMetric, labels);
    }
  }
  if (recorder_ != nullptr) {
    track_ = recorder_->RegisterTrack(session_label.empty() ? "session"
                                                            : session_label);
  }
}

StageSink::~StageSink() { Close(); }

void StageSink::Emit(const StageEvent& event) {
  Histogram* h = histograms_[static_cast<std::size_t>(event.stage)];
  if (h != nullptr) h->Observe(event.t1_ns - event.t0_ns);
  if (recorder_ != nullptr) {
    recorder_->Record(track_, event.stage, event.round, event.t0_ns,
                      event.t1_ns, event.items, event.drops);
  }
}

void StageSink::Begin(Stage stage, uint64_t round) {
  if (recorder_ != nullptr) {
    recorder_->BeginStage(track_, stage, round, NowNs());
  }
}

void StageSink::End(Stage stage) {
  if (recorder_ != nullptr) recorder_->EndStage(track_, stage);
}

void StageSink::Close() {
  if (recorder_ != nullptr) recorder_->CloseTrack(track_);
}

}  // namespace ldpids::obs
