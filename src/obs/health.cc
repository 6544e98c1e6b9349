#include "obs/health.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "obs/export.h"

namespace ldpids::obs {

std::string HealthReport::ToJson() const {
  std::string out = "{\"live\":";
  out += live ? "true" : "false";
  out += ",\"ready\":";
  out += ready ? "true" : "false";
  out += ",\"open_sessions\":";
  AppendU64(&out, open_sessions);
  out += ",\"stalls\":[";
  bool first = true;
  for (const StallFinding& s : stalls) {
    if (!first) out += ',';
    first = false;
    out += "{\"session\":";
    AppendJsonString(&out, s.session);
    out += ",\"stage\":";
    AppendJsonString(&out, s.stage);
    out += ",\"round\":";
    AppendU64(&out, s.round_index);
    out += ",\"age_ms\":";
    AppendU64(&out, s.age_ns / 1000000);
    out += ",\"threshold_ms\":";
    AppendU64(&out, s.threshold_ns / 1000000);
    out += "}";
  }
  out += "]}";
  return out;
}

HealthModel::HealthModel(MetricsRegistry* registry,
                         const FlightRecorder* recorder, HealthOptions opts)
    : registry_(registry), recorder_(recorder), opts_(std::move(opts)) {
  if (!opts_.now) opts_.now = NowNs;
}

uint64_t HealthModel::StallThreshold(const DurationWindow& window) const {
  const uint64_t p99 = window.Quantile(0.99);
  const double scaled = opts_.stall_multiplier * static_cast<double>(p99);
  const uint64_t by_history = static_cast<uint64_t>(scaled);
  return std::max(opts_.min_stall_ns, by_history);
}

HealthReport HealthModel::Update() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t now = opts_.now();

  FlightRecorderSnapshot snap = recorder_->Snapshot();

  // Fold events we have not seen yet into the rolling windows. Events
  // older than our cursor were already folded; the cursor starts at
  // whatever the ring dropped, so a late-attaching model only sees what
  // the ring still holds.
  const uint64_t newest = snap.total_recorded;
  const uint64_t available_from = snap.dropped;
  uint64_t fold_from = std::max(consumed_events_, available_from);
  // snap.events is oldest-first, covering tickets
  // [available_from, newest) minus torn/overwritten skips; tickets are
  // not stored per event, so approximate by position.
  if (fold_from < newest && !snap.events.empty()) {
    const uint64_t have = static_cast<uint64_t>(snap.events.size());
    // Take the newest (newest - fold_from) events, capped by what we got.
    uint64_t take = newest - fold_from;
    if (take > have) take = have;
    for (uint64_t i = have - take; i < have; ++i) {
      const RoundEvent& ev = snap.events[static_cast<std::size_t>(i)];
      auto& tm = tracks_[ev.track];
      const uint64_t dur =
          ev.t_end_ns > ev.t_start_ns ? ev.t_end_ns - ev.t_start_ns : 0;
      tm.stage_durations[static_cast<std::size_t>(ev.stage)].Observe(dur);
      if (ev.t_end_ns > tm.newest_end_ns) {
        if (tm.newest_end_ns != 0) {
          tm.round_gaps.Observe(ev.t_end_ns - tm.newest_end_ns);
        }
        tm.newest_end_ns = ev.t_end_ns;
        tm.newest_round = ev.round_index;
      }
      if (ev.stage == Stage::kPostProcess) ++tm.rounds_seen;
    }
  }
  consumed_events_ = newest;

  HealthReport report;
  report.live = true;
  report.checked_at_ns = now;

  // In-flight stalls: a begun stage that has outlived its track's rolling
  // p99-based threshold.
  for (const InFlightStage& f : snap.in_flight) {
    if (f.track < snap.closed.size() && snap.closed[f.track]) continue;
    const auto it = tracks_.find(f.track);
    uint64_t threshold = opts_.min_stall_ns;
    if (it != tracks_.end()) {
      threshold = StallThreshold(
          it->second.stage_durations[static_cast<std::size_t>(f.stage)]);
    }
    if (now <= f.t_start_ns) continue;
    const uint64_t age = now - f.t_start_ns;
    if (age > threshold) {
      StallFinding finding;
      finding.session = f.track < snap.tracks.size()
                            ? snap.tracks[f.track]
                            : "track" + std::to_string(f.track);
      finding.stage = StageName(f.stage);
      finding.round_index = f.round_index;
      finding.age_ns = age;
      finding.threshold_ns = threshold;
      report.stalls.push_back(std::move(finding));
    }
  }

  // Silence stalls: an open track with an established cadence whose
  // newest completed round is too old.
  std::size_t open = 0;
  for (std::size_t t = 0; t < snap.tracks.size(); ++t) {
    const bool closed = t < snap.closed.size() && snap.closed[t];
    if (closed) continue;
    ++open;
    const auto it = tracks_.find(static_cast<uint32_t>(t));
    if (it == tracks_.end()) continue;
    const TrackModel& tm = it->second;
    if (tm.rounds_seen < opts_.min_rounds_for_silence) continue;
    if (tm.newest_end_ns == 0 || now <= tm.newest_end_ns) continue;
    const uint64_t age = now - tm.newest_end_ns;
    const uint64_t threshold = StallThreshold(tm.round_gaps);
    if (age > threshold) {
      StallFinding finding;
      finding.session = snap.tracks[t];
      finding.stage = "round_gap";
      finding.round_index = tm.newest_round;
      finding.age_ns = age;
      finding.threshold_ns = threshold;
      report.stalls.push_back(std::move(finding));
    }
  }
  report.open_sessions = open;
  report.ready = report.stalls.empty();

  if (registry_ != nullptr) {
    // Count distinct stalled sessions, not findings.
    std::vector<std::string> stalled;
    for (const StallFinding& s : report.stalls) {
      if (std::find(stalled.begin(), stalled.end(), s.session) ==
          stalled.end()) {
        stalled.push_back(s.session);
      }
    }
    registry_->GetGauge("ldpids_health_stalled_sessions")
        .Set(static_cast<int64_t>(stalled.size()));
    registry_->GetGauge("ldpids_health_up").Set(report.ready ? 1 : 0);
    registry_->GetGauge("ldpids_health_open_sessions")
        .Set(static_cast<int64_t>(open));
  }

  last_ = report;
  has_report_ = true;
  return report;
}

HealthReport HealthModel::LastReport() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (has_report_) return last_;
  }
  return Update();
}

Watchdog::Watchdog(HealthModel* model, uint64_t period_ms)
    : model_(model), period_ms_(period_ms) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      model_->Update();
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                   [this] { return stop_; });
    }
  });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

}  // namespace ldpids::obs
