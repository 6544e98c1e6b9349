// Round-event flight recorder: a fixed-capacity, lock-free ring that
// keeps the last N stage-transition events of the serving data plane, so
// a running (or just-crashed) process can always answer "what were the
// last few thousand things the pipeline did, and when".
//
// One event = one pipeline stage of one round on one track (a track is a
// session, registered once by name): {track, round_index, stage,
// t_start_ns, t_end_ns, reports, drops}. Sessions record events with
// *absolute* steady-clock windows, so a pipelined run's announce/ingest
// of round t+1 visibly overlaps round t's estimate when the ring is
// exported as Chrome trace-event JSON (RenderChromeTrace) and opened in
// chrome://tracing or Perfetto.
//
// Concurrency design (the recorder is written from session threads,
// ingest workers and — for in-flight marks — cleared from either):
//   * The ring is a seqlock-per-slot MPMC structure: writers claim a slot
//     with one relaxed fetch_add, invalidate its sequence, store the
//     fields, then publish the sequence with release order. Readers
//     validate the sequence before and after copying; a torn slot is
//     skipped, never misread. All slot fields are relaxed atomics, so the
//     scheme is data-race-free under TSan, not just "benign".
//   * Recording never allocates, never locks, never blocks: ~9 relaxed
//     stores per event. At 7 events per round the recorder costs nothing
//     next to a round's ingest work (gated by bench_obs_stages'
//     recorder_ratio >= 0.95).
//   * The ring overwrites oldest-first when full; Snapshot() reports how
//     many events have been overwritten (`dropped`).
//
// In-flight marks: BeginStage publishes "this track entered this stage at
// T"; the matching Record (or EndStage on a failure path) clears it. The
// health model (obs/health.h) reads these to catch a round that *never
// finishes* a stage — the one thing a completed-event ring cannot show.
#ifndef LDPIDS_OBS_FLIGHT_RECORDER_H_
#define LDPIDS_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/stage_trace.h"

namespace ldpids::obs {

// One completed stage of one round, copied out of the ring.
struct RoundEvent {
  uint32_t track = 0;
  Stage stage = Stage::kAnnounce;
  uint64_t round_index = 0;
  uint64_t t_start_ns = 0;
  uint64_t t_end_ns = 0;
  uint64_t reports = 0;  // accepted reports (set on the fold/merge events)
  uint64_t drops = 0;    // rejected/dropped packets of the round
};

// One stage currently in flight on a track (begun, not yet recorded).
struct InFlightStage {
  uint32_t track = 0;
  Stage stage = Stage::kAnnounce;
  uint64_t round_index = 0;
  uint64_t t_start_ns = 0;
};

struct FlightRecorderSnapshot {
  // Track names by id; closed[i] is true once the owning session ended
  // (destroyed or failed) — health checks skip closed tracks.
  std::vector<std::string> tracks;
  std::vector<bool> closed;
  // Oldest to newest. Events being written concurrently with the
  // snapshot are skipped, not torn.
  std::vector<RoundEvent> events;
  std::vector<InFlightStage> in_flight;
  uint64_t total_recorded = 0;  // lifetime events, including overwritten
  uint64_t dropped = 0;         // overwritten by ring wraparound
  // Events recorded against kNoTrack (a session registered after the
  // track table filled up) or any other unregistered id: counted here,
  // never stored.
  uint64_t untracked_events = 0;
};

class FlightRecorder {
 public:
  // `capacity` is rounded up to a power of two; at ~7 events per round
  // the default keeps the last ~1170 rounds.
  explicit FlightRecorder(std::size_t capacity = 8192);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Track table size: 1024 sessions per process is far beyond anything
  // the fleet harness spins up.
  static constexpr std::size_t kMaxTracks = 1024;
  // Returned by RegisterTrack once kMaxTracks tracks exist. Every call
  // taking it is a no-op, except Record, which counts the event as
  // untracked_events instead of storing it on someone else's track.
  static constexpr uint32_t kNoTrack = 0xFFFFFFFFu;

  // Registers a named track (mutex-protected; once per session, off the
  // hot path). Names need not be unique — ids are. Returns kNoTrack when
  // the table is full.
  uint32_t RegisterTrack(const std::string& name);
  // Marks a track closed: its rounds are over, so the health model must
  // not read its silence as a stall. Idempotent.
  void CloseTrack(uint32_t track);

  // Records one completed stage window. Also clears the track's matching
  // in-flight mark (if any). Wait-free. Sessions record through
  // StageSink (obs/stage_trace.h), never directly.
  void Record(uint32_t track, Stage stage, uint64_t round_index,
              uint64_t t_start_ns, uint64_t t_end_ns, uint64_t reports = 0,
              uint64_t drops = 0);

  // Publishes/clears the "entered stage, not done yet" mark. A track has
  // at most one in-flight mark per stage (distinct stages of different
  // rounds may overlap under pipelining — e.g. announce of round t+1
  // while transport of round t runs — and land in distinct cells).
  void BeginStage(uint32_t track, Stage stage, uint64_t round_index,
                  uint64_t now_ns);
  void EndStage(uint32_t track, Stage stage);

  // Consistent copy: events oldest-first, torn slots skipped.
  FlightRecorderSnapshot Snapshot() const;

  std::size_t capacity() const { return slots_.size(); }
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  // All fields relaxed atomics; `seq` orders them (0 = empty/in-write,
  // otherwise 1-based ticket of the event occupying the slot).
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint32_t> track{0};
    std::atomic<uint32_t> stage{0};
    std::atomic<uint64_t> round_index{0};
    std::atomic<uint64_t> t_start_ns{0};
    std::atomic<uint64_t> t_end_ns{0};
    std::atomic<uint64_t> reports{0};
    std::atomic<uint64_t> drops{0};
  };

  // Per-track state; pointers stay stable (unique_ptr in a vector).
  struct TrackState {
    std::string name;
    std::atomic<bool> closed{false};
    // start_ns == 0 means "not in flight".
    struct Cell {
      std::atomic<uint64_t> start_ns{0};
      std::atomic<uint64_t> round_index{0};
    };
    Cell in_flight[kNumStages];
  };

  // Lock-free on the hot path: RegisterTrack publishes into a fixed
  // pointer table (release), Record/BeginStage/EndStage read it with a
  // bounds check against the published count (acquire).
  TrackState* track_state(uint32_t track) const {
    if (track >= track_count_.load(std::memory_order_acquire)) return nullptr;
    return track_table_[track].load(std::memory_order_acquire);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::atomic<uint64_t> next_{0};  // lifetime event count / next ticket
  std::atomic<uint64_t> untracked_{0};  // Record calls on kNoTrack

  mutable std::mutex tracks_mu_;  // serializes RegisterTrack only
  std::vector<std::unique_ptr<TrackState>> tracks_;  // owns TrackStates
  std::atomic<TrackState*> track_table_[kMaxTracks] = {};
  std::atomic<uint32_t> track_count_{0};
};

// Chrome trace-event JSON (the "JSON Array Format" wrapped in an object):
//   {"traceEvents": [
//      {"name":"estimate","cat":"round","ph":"X","ts":...,"dur":...,
//       "pid":1,"tid":<track>,"args":{"round":N,"reports":N,"drops":N}},
//      {"name":"thread_name","ph":"M",...}  (one per track)
//   ], "displayTimeUnit":"ms"}
// `ts`/`dur` are microseconds (Chrome's unit), rebased so the oldest
// event starts at 0. Load the output in chrome://tracing or
// https://ui.perfetto.dev to see pipelined stage overlap per session.
std::string RenderChromeTrace(const FlightRecorderSnapshot& snap);

}  // namespace ldpids::obs

#endif  // LDPIDS_OBS_FLIGHT_RECORDER_H_
