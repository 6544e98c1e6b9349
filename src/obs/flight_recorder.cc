#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>

#include "obs/export.h"

namespace ldpids::obs {

namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(RoundUpPow2(std::max<std::size_t>(capacity, 8))) {
  mask_ = slots_.size() - 1;
}

uint32_t FlightRecorder::RegisterTrack(const std::string& name) {
  std::lock_guard<std::mutex> lock(tracks_mu_);
  // Table full: a typed, counted outcome (see kNoTrack) — never a crash,
  // and never another session's track.
  if (tracks_.size() >= kMaxTracks) return kNoTrack;
  auto state = std::make_unique<TrackState>();
  state->name = name;
  tracks_.push_back(std::move(state));
  const uint32_t id = static_cast<uint32_t>(tracks_.size() - 1);
  track_table_[id].store(tracks_.back().get(), std::memory_order_release);
  track_count_.store(id + 1, std::memory_order_release);
  return id;
}

void FlightRecorder::CloseTrack(uint32_t track) {
  TrackState* state = track_state(track);
  if (state == nullptr) return;
  state->closed.store(true, std::memory_order_relaxed);
  // A closed track has no pending work by definition; clear any marks a
  // failure path left behind so the health model never sees a ghost.
  for (auto& cell : state->in_flight) {
    cell.start_ns.store(0, std::memory_order_relaxed);
  }
}

void FlightRecorder::Record(uint32_t track, Stage stage, uint64_t round_index,
                            uint64_t t_start_ns, uint64_t t_end_ns,
                            uint64_t reports, uint64_t drops) {
  TrackState* state = track_state(track);
  if (state == nullptr) {
    untracked_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<std::size_t>(ticket) & mask_];
  // Invalidate, write fields, publish. A reader that raced sees seq
  // change (or 0) and skips the slot.
  slot.seq.store(0, std::memory_order_release);
  slot.track.store(track, std::memory_order_relaxed);
  slot.stage.store(static_cast<uint32_t>(stage), std::memory_order_relaxed);
  slot.round_index.store(round_index, std::memory_order_relaxed);
  slot.t_start_ns.store(t_start_ns, std::memory_order_relaxed);
  slot.t_end_ns.store(t_end_ns, std::memory_order_relaxed);
  slot.reports.store(reports, std::memory_order_relaxed);
  slot.drops.store(drops, std::memory_order_relaxed);
  slot.seq.store(ticket + 1, std::memory_order_release);

  state->in_flight[static_cast<std::size_t>(stage)].start_ns.store(
      0, std::memory_order_release);
}

void FlightRecorder::BeginStage(uint32_t track, Stage stage,
                                uint64_t round_index, uint64_t now_ns) {
  TrackState* state = track_state(track);
  if (state == nullptr) return;
  auto& cell = state->in_flight[static_cast<std::size_t>(stage)];
  cell.round_index.store(round_index, std::memory_order_relaxed);
  // start_ns last: a health reader seeing a nonzero start also sees a
  // plausible round (exactness doesn't matter for stall detection).
  cell.start_ns.store(now_ns == 0 ? 1 : now_ns, std::memory_order_release);
}

void FlightRecorder::EndStage(uint32_t track, Stage stage) {
  TrackState* state = track_state(track);
  if (state == nullptr) return;
  state->in_flight[static_cast<std::size_t>(stage)].start_ns.store(
      0, std::memory_order_release);
}

FlightRecorderSnapshot FlightRecorder::Snapshot() const {
  FlightRecorderSnapshot snap;

  std::vector<TrackState*> states;
  {
    std::lock_guard<std::mutex> lock(tracks_mu_);
    snap.tracks.reserve(tracks_.size());
    states.reserve(tracks_.size());
    for (const auto& t : tracks_) {
      snap.tracks.push_back(t->name);
      states.push_back(t.get());
    }
  }
  snap.closed.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    snap.closed.push_back(states[i]->closed.load(std::memory_order_relaxed));
    for (std::size_t s = 0; s < kNumStages; ++s) {
      const auto& cell = states[i]->in_flight[s];
      const uint64_t start = cell.start_ns.load(std::memory_order_acquire);
      if (start == 0) continue;
      InFlightStage f;
      f.track = static_cast<uint32_t>(i);
      f.stage = static_cast<Stage>(s);
      f.round_index = cell.round_index.load(std::memory_order_relaxed);
      f.t_start_ns = start;
      snap.in_flight.push_back(f);
    }
  }

  const uint64_t total = next_.load(std::memory_order_acquire);
  snap.total_recorded = total;
  snap.untracked_events = untracked_.load(std::memory_order_relaxed);
  const uint64_t cap = slots_.size();
  const uint64_t first = total > cap ? total - cap : 0;
  snap.dropped = first;
  snap.events.reserve(static_cast<std::size_t>(total - first));
  for (uint64_t ticket = first; ticket < total; ++ticket) {
    const Slot& slot = slots_[static_cast<std::size_t>(ticket) & mask_];
    const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 != ticket + 1) continue;  // overwritten or still being written
    // Acquire field loads keep the seq re-read below from hoisting above
    // them (an acquire fence would too, but TSan cannot model fences).
    RoundEvent ev;
    ev.track = slot.track.load(std::memory_order_acquire);
    ev.stage = static_cast<Stage>(slot.stage.load(std::memory_order_acquire));
    ev.round_index = slot.round_index.load(std::memory_order_acquire);
    ev.t_start_ns = slot.t_start_ns.load(std::memory_order_acquire);
    ev.t_end_ns = slot.t_end_ns.load(std::memory_order_acquire);
    ev.reports = slot.reports.load(std::memory_order_acquire);
    ev.drops = slot.drops.load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_acquire) != s1) continue;  // torn
    snap.events.push_back(ev);
  }
  return snap;
}

std::string RenderChromeTrace(const FlightRecorderSnapshot& snap) {
  // Rebase timestamps so the trace starts near 0 — steady-clock absolute
  // values are huge and chrome://tracing renders offsets anyway.
  uint64_t base_ns = ~0ull;
  for (const RoundEvent& ev : snap.events) {
    base_ns = std::min(base_ns, ev.t_start_ns);
  }
  if (base_ns == ~0ull) base_ns = 0;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < snap.tracks.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendU64(&out, i);
    out += ",\"args\":{\"name\":";
    AppendJsonString(&out, snap.tracks[i]);
    out += "}}";
  }
  for (const RoundEvent& ev : snap.events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += StageName(ev.stage);
    out += "\",\"cat\":\"round\",\"ph\":\"X\",\"ts\":";
    AppendU64(&out, (ev.t_start_ns - base_ns) / 1000);
    out += ",\"dur\":";
    const uint64_t dur_ns =
        ev.t_end_ns > ev.t_start_ns ? ev.t_end_ns - ev.t_start_ns : 0;
    AppendU64(&out, dur_ns / 1000);
    out += ",\"pid\":1,\"tid\":";
    AppendU64(&out, ev.track);
    out += ",\"args\":{\"round\":";
    AppendU64(&out, ev.round_index);
    out += ",\"reports\":";
    AppendU64(&out, ev.reports);
    out += ",\"drops\":";
    AppendU64(&out, ev.drops);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace ldpids::obs
