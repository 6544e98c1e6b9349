#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>

namespace ldpids::obs {

void RateWindow::Observe(uint64_t t_ns, uint64_t cumulative) {
  if (!samples_.empty() && cumulative < samples_.back().value) {
    // Counter reset: drop the old epoch, start a fresh window.
    samples_.clear();
  }
  samples_.push_back({t_ns, cumulative});
  while (samples_.size() > 2 &&
         t_ns - samples_.front().t_ns > window_ns_) {
    samples_.pop_front();
  }
}

double RateWindow::RatePerSec() const {
  if (samples_.size() < 2) return 0.0;
  const Sample& a = samples_.front();
  const Sample& b = samples_.back();
  if (b.t_ns <= a.t_ns) return 0.0;
  const double dv = static_cast<double>(b.value - a.value);
  const double dt_s = static_cast<double>(b.t_ns - a.t_ns) * 1e-9;
  return dv / dt_s;
}

void DurationWindow::Observe(uint64_t duration_ns) {
  ring_.push_back(duration_ns);
  while (ring_.size() > capacity_) ring_.pop_front();
}

uint64_t DurationWindow::Quantile(double q) const {
  if (ring_.empty()) return 0;
  std::vector<uint64_t> sorted(ring_.begin(), ring_.end());
  std::sort(sorted.begin(), sorted.end());
  q = std::min(1.0, std::max(0.0, q));
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank > 0) --rank;
  return sorted[rank];
}

void TimeseriesTracker::Observe(const MetricsSnapshot& snap, uint64_t t_ns) {
  for (const CounterSample& c : snap.counters) {
    const std::string key = c.name + '\x1f' + RenderLabels(c.labels);
    auto it = series_.find(key);
    if (it == series_.end()) {
      Series s;
      s.name = c.name;
      s.labels = c.labels;
      s.window = RateWindow(window_ns_);
      it = series_.emplace(key, std::move(s)).first;
    }
    it->second.window.Observe(t_ns, c.value);
  }
}

double TimeseriesTracker::RatePerSec(const std::string& name,
                                     const Labels& labels) const {
  for (const auto& [key, s] : series_) {
    if (s.name != name) continue;
    const bool match =
        std::all_of(labels.begin(), labels.end(), [&](const auto& want) {
          return std::find(s.labels.begin(), s.labels.end(), want) !=
                 s.labels.end();
        });
    if (match) return s.window.RatePerSec();
  }
  return 0.0;
}

}  // namespace ldpids::obs
