// Optimized Local Hashing (OLH) frequency oracle
// (Wang, Blocki, Li, Jha — USENIX Security 2017).
//
// Client: pick a random hash seed s, hash the true value into g buckets
// (g = round(e^eps) + 1, the variance-optimal choice), and report
// (s, GRR_g(h_s(v))). Server: a report (s, y) "supports" value k iff
// h_s(k) == y; estimate (support[k]/n - 1/g) / (p - 1/g) with
// p = e^eps / (e^eps + g - 1).
//
// The cohort path draws per-bin support counts from their exact marginal
// distribution Binomial(m_k, p) + Binomial(n - m_k, 1/g) (cross-bin
// correlations, which no estimator here uses, are not reproduced).
//
// The server's support scan costs O(d) hashes per report, so the sketch
// defers it: reports queue as (seed, bucket) columns and are tallied in
// value-major batches by Resolve(). The serving layer runs that scan on
// the shard lanes before the shard merge (service/ingest.h).
#ifndef LDPIDS_FO_OLH_H_
#define LDPIDS_FO_OLH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "fo/frequency_oracle.h"

namespace ldpids {

class OlhOracle final : public FrequencyOracle {
 public:
  std::string name() const override { return "OLH"; }
  std::unique_ptr<FoSketch> CreateSketch(const FoParams& params) const override;
  double Variance(double epsilon, uint64_t n, std::size_t domain,
                  double f) const override;
  double MeanVariance(double epsilon, uint64_t n,
                      std::size_t domain) const override;
  std::size_t BytesPerReport(std::size_t domain) const override;

  // Variance-optimal bucket count g = round(e^eps) + 1 (>= 2).
  static uint64_t BucketCount(double epsilon);
  // GRR keep-probability inside the g-bucket domain.
  static double KeepProbability(double epsilon);
  // The pairwise-uniform hash h_s(v) into [0, g) shared by the client
  // protocol and the server-side support scan. Exposed so wire clients
  // (fo/client.h) hash exactly like the sketch.
  static uint64_t HashToBucket(uint64_t seed, uint32_t value, uint64_t g);
};

}  // namespace ldpids

#endif  // LDPIDS_FO_OLH_H_
