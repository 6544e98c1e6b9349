// Above-threshold event monitoring over released streams (paper Section
// 7.4): at each timestamp the server checks whether the monitored statistic
// exceeds a threshold delta derived from the stream's dynamic range,
//
//   delta = q * (max_t stat_t - min_t stat_t) + min_t stat_t,  q = 0.75.
//
// Monitored statistic:
//   * binary streams (d = 2): the frequency of value 1 — the paper's
//     "statistics of which are greater than a given threshold";
//   * categorical streams: the maximum bin frequency. (The paper monitors
//     the histogram mean, which is only informative when participation
//     varies per timestamp; with full participation the mean is identically
//     1/d, so we monitor the peak — the same "is something unusual
//     happening" question.)
#ifndef LDPIDS_ANALYSIS_EVENT_MONITOR_H_
#define LDPIDS_ANALYSIS_EVENT_MONITOR_H_

#include <vector>

#include "util/histogram.h"

namespace ldpids {

inline constexpr double kDefaultEventQuantile = 0.75;

// Per-timestamp monitored statistic of a stream of histograms.
std::vector<double> MonitoredStatistic(const std::vector<Histogram>& stream);

// delta = q * (max - min) + min over the given statistic series.
double EventThreshold(const std::vector<double>& statistic,
                      double q = kDefaultEventQuantile);

// Ground-truth labels: statistic > delta.
std::vector<bool> EventLabels(const std::vector<double>& statistic,
                              double delta);

// End-to-end helper: labels from the true stream, scores from the released
// stream; returns false (and leaves outputs empty) when the truth has no
// positives or no negatives — the ROC would be undefined.
bool PrepareEventDetection(const std::vector<Histogram>& truth,
                           const std::vector<Histogram>& released,
                           std::vector<double>* scores,
                           std::vector<bool>* labels,
                           double q = kDefaultEventQuantile);

}  // namespace ldpids

#endif  // LDPIDS_ANALYSIS_EVENT_MONITOR_H_
