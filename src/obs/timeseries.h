// Small rolling time-series primitives for the health model and the
// /statusz rate columns. None of this is on the data-plane hot path:
// windows are owned by whoever polls (the watchdog thread or a scrape
// handler) and fed from snapshots, so no synchronization lives here —
// callers serialize access themselves.
#ifndef LDPIDS_OBS_TIMESERIES_H_
#define LDPIDS_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"

namespace ldpids::obs {

// Rolling rate over a wall window: feed (t_ns, cumulative_count) samples
// of a monotone counter; RatePerSec() is the slope across the retained
// window. Samples older than `window_ns` are evicted (the two newest are
// always kept, so a quiet counter still reports its last-known rate of
// zero instead of losing history).
class RateWindow {
 public:
  explicit RateWindow(uint64_t window_ns = 10ull * 1000 * 1000 * 1000)
      : window_ns_(window_ns) {}

  void Observe(uint64_t t_ns, uint64_t cumulative);
  // 0.0 until two samples exist. A counter reset (value decreasing, e.g.
  // a restarted session reusing a label) re-anchors the window.
  double RatePerSec() const;
  std::size_t size() const { return samples_.size(); }

 private:
  struct Sample {
    uint64_t t_ns;
    uint64_t value;
  };
  uint64_t window_ns_;
  std::deque<Sample> samples_;
};

// Last-K durations with percentile readout — the rolling baseline the
// stall detector compares in-flight ages and round gaps against.
class DurationWindow {
 public:
  explicit DurationWindow(std::size_t capacity = 64) : capacity_(capacity) {}

  void Observe(uint64_t duration_ns);
  // Nearest-rank quantile (q in [0,1]) over the retained durations;
  // 0 when empty.
  uint64_t Quantile(double q) const;
  std::size_t size() const { return ring_.size(); }

 private:
  std::size_t capacity_;
  std::deque<uint64_t> ring_;
};

// Tracks a RateWindow for every counter seen in successive
// MetricsSnapshots, keyed by name + labels. Feed each scrape's snapshot
// via Observe(); query by metric name plus the labels that pick a series.
// /statusz uses this to show live reports/sec and rounds/sec per session
// without the data plane maintaining any derivative state.
class TimeseriesTracker {
 public:
  explicit TimeseriesTracker(uint64_t window_ns = 10ull * 1000 * 1000 * 1000)
      : window_ns_(window_ns) {}

  void Observe(const MetricsSnapshot& snap, uint64_t t_ns);

  // Rate of the counter `name` whose label set contains every label in
  // `labels` (with several matches, an arbitrary one wins, so pass enough
  // labels to pick one series). 0.0 when no such counter has been
  // observed twice.
  double RatePerSec(const std::string& name, const Labels& labels = {}) const;

 private:
  struct Series {
    std::string name;
    Labels labels;
    RateWindow window;
  };

  uint64_t window_ns_;
  // Keyed by name + '\x1f' + RenderLabels(labels), mirroring the
  // registry's instance key.
  std::unordered_map<std::string, Series> series_;
};

}  // namespace ldpids::obs

#endif  // LDPIDS_OBS_TIMESERIES_H_
