// Simulators for the paper's three real-world datasets (Section 7.1.2).
//
// The original Taxi (T-Drive), Foursquare and Taobao datasets are
// proprietary or not redistributable, so we synthesize streams with the
// *published shape*:
//
//   Taxi        N = 10,357    T = 886   d = 5    (Beijing taxis, 5 grids)
//   Foursquare  N = 265,149   T = 447   d = 77   (check-ins, 77 countries)
//   Taobao      N = 1,023,154 T = 432   d = 117  (ad clicks, 117 categories)
//
// and the qualitative structure the mechanisms react to:
//   * skewed (Zipf-like) marginal over the domain,
//   * smooth temporal drift (logit-space Gaussian random walk) — streams are
//     strongly autocorrelated, which is what makes approximation worthwhile,
//   * daily periodicity for Taxi/Taobao (10-minute slots, 144 per day),
//   * occasional bursts (spikes) so event monitoring has positives.
//
// Mechanisms interact with a stream only through per-timestamp histograms
// and sampled user values, so matching (N, T, d, skew, smoothness,
// burstiness) preserves every behaviour the evaluation exercises. Load the
// genuine datasets through datagen/csv_dataset.h when available.
#ifndef LDPIDS_DATAGEN_REALWORLD_SIM_H_
#define LDPIDS_DATAGEN_REALWORLD_SIM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "datagen/synthetic.h"

namespace ldpids {

// Tunable knobs shared by the three simulators; defaults give the paper's
// shapes. `scale` in (0, 1] multiplies N and T for quick runs.
struct RealWorldSimOptions {
  double scale = 1.0;
  double zipf_exponent = 1.1;     // domain skew
  double drift_stddev = 0.04;     // per-step logit-space random walk
  double daily_amplitude = 0.35;  // strength of the diurnal cycle
  double spike_probability = 0.01;   // chance a timestamp starts a burst
  double spike_magnitude = 1.5;      // logit boost of the bursting value
  uint64_t seed = 42;
};

// Beijing-taxi-like location density stream: d = 5 regions.
std::shared_ptr<DistributionSequenceDataset> MakeTaxiLikeDataset(
    const RealWorldSimOptions& options = {});

// Foursquare-like check-in stream: d = 77 countries, no diurnal term
// (aggregated world-wide check-ins drift slowly).
std::shared_ptr<DistributionSequenceDataset> MakeFoursquareLikeDataset(
    const RealWorldSimOptions& options = {});

// Taobao-like ad-click stream: d = 117 categories over 3 days.
std::shared_ptr<DistributionSequenceDataset> MakeTaobaoLikeDataset(
    const RealWorldSimOptions& options = {});

// Generic builder the three factories share; exposed for tests and custom
// workloads.
std::shared_ptr<DistributionSequenceDataset> MakeDriftingZipfDataset(
    std::string name, uint64_t num_users, std::size_t length,
    std::size_t domain, std::size_t timestamps_per_day,
    const RealWorldSimOptions& options);

}  // namespace ldpids

#endif  // LDPIDS_DATAGEN_REALWORLD_SIM_H_
