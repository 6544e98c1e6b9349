// Per-round pipeline stage tracing.
//
// The serving data plane processes each round through a fixed sequence
// of stages; under pipelining (pipeline_depth >= 2) round t+1's
// transport overlaps round t's estimation, so per-stage durations are
// the only way to see where a deployment's time actually goes.
//
// Every stage observation is one StageEvent — an absolute steady-clock
// window [t0, t1] of one stage of one round — emitted exactly once into
// a StageSink. The sink feeds both consumers from that one event: the
// `ldpids_stage_duration_ns{stage=..., session=...}` histogram observes
// t1 − t0, and the session's flight-recorder track records the window.
// So the histograms and the Chrome trace can never disagree about a
// stage.
#ifndef LDPIDS_OBS_STAGE_TRACE_H_
#define LDPIDS_OBS_STAGE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace ldpids::obs {

class FlightRecorder;  // obs/flight_recorder.h

// One pipeline stage of a round's life, in data-plane order.
enum class Stage : uint8_t {
  kAnnounce = 0,      // mechanism announces the round to clients
  kTransportRtt,      // client round-trip outside aggregator compute
  kFrameDecode,       // wire frames -> packets (socket recv drains)
  kArenaDecode,       // packets -> columnar ReportArena rows
  kShardFold,         // arena slices folded into per-shard sketches
  kMerge,             // shard sketches merged into the round sketch
  kSketchMerge,       // children's partial sketches folded at a tree root
  kEstimate,          // sketch -> frequency estimate vector
  kPostProcess,       // mechanism post-processing + release publication
};
inline constexpr std::size_t kNumStages = 9;

// Canonical label value for a stage ("announce", "transport_rtt", ...).
const char* StageName(Stage stage);

// The metric family every stage duration lands in.
inline constexpr char kStageDurationMetric[] = "ldpids_stage_duration_ns";

// One completed stage of one round: absolute steady-clock window
// [t0_ns, t1_ns] (t0_ns <= t1_ns), plus the round's accounting where the
// stage has any (accepted reports or merged partials, and the rejects).
struct StageEvent {
  Stage stage = Stage::kAnnounce;
  uint64_t round = 0;
  uint64_t t0_ns = 0;
  uint64_t t1_ns = 0;
  uint64_t items = 0;
  uint64_t drops = 0;
};

// The one place stage events go. Either consumer is optional: a null
// registry skips the histograms, a null recorder skips the trace, and a
// default-constructed sink is inert (enabled() is false, Emit does
// nothing). Registration — the histogram handles and the recorder track
// — happens once at construction, so Emit never takes a lock. Not
// copyable: the sink owns its track and closes it on destruction.
class StageSink {
 public:
  StageSink() = default;
  // Registers all kNumStages histograms labeled {stage=<name>,
  // session=session_label} (session label omitted when empty) and one
  // recorder track named session_label (or "session" when empty).
  StageSink(MetricsRegistry* registry, const std::string& session_label,
            FlightRecorder* recorder);
  ~StageSink();
  StageSink(const StageSink&) = delete;
  StageSink& operator=(const StageSink&) = delete;

  // True when any consumer is attached: callers build events only then.
  bool enabled() const { return enabled_; }

  // Observes t1 − t0 in the stage's histogram and records the window on
  // the track (which also clears the stage's in-flight mark).
  void Emit(const StageEvent& event);

  // In-flight marks for the health model (obs/health.h): Begin publishes
  // "this round entered `stage`"; the stage's next Emit, or End on a
  // failure path, clears it. No-ops without a recorder.
  void Begin(Stage stage, uint64_t round);
  void End(Stage stage);

  // Marks the track closed, so the health model reads the session's
  // silence as finished, not stalled. Idempotent; also run on destruction.
  void Close();

 private:
  bool enabled_ = false;
  Histogram* histograms_[kNumStages] = {};
  FlightRecorder* recorder_ = nullptr;
  uint32_t track_ = 0;
};

}  // namespace ldpids::obs

#endif  // LDPIDS_OBS_STAGE_TRACE_H_
