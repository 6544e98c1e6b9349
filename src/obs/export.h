// Exporters for MetricsSnapshot: Prometheus-style text exposition and a
// structured JSON document. Both render from a snapshot (never a live
// registry), so exporting costs the data plane nothing beyond the
// Snapshot() copy.
#ifndef LDPIDS_OBS_EXPORT_H_
#define LDPIDS_OBS_EXPORT_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace ldpids::obs {

// The JSON building blocks every obs renderer shares (metrics JSON, the
// Chrome trace, the health report): a decimal uint64, and a quoted JSON
// string with `"`, `\` and control characters escaped.
void AppendU64(std::string* out, uint64_t v);
void AppendJsonString(std::string* out, const std::string& s);

// Prometheus text exposition (version 0.0.4 shape):
//   # TYPE ldpids_frames_total counter
//   ldpids_frames_total{session="lba0"} 42
// Histograms emit cumulative `_bucket{le="..."}` series plus `_sum` and
// `_count`, with `le` in nanoseconds and a final `+Inf` bucket. Output
// order is the snapshot's (name, labels) order — deterministic.
std::string RenderPrometheus(const MetricsSnapshot& snap);

// Structured JSON snapshot:
//   {"ts_unix_ms": N, "seq": N,
//    "counters": [{"name": ..., "labels": {...}, "value": N}, ...],
//    "gauges": [...],
//    "histograms": [{"name": ..., "labels": {...}, "count": N,
//                    "sum_ns": N, "p50_ns": N, "p99_ns": N,
//                    "buckets": [{"le_ns": N, "count": N}, ...]}, ...]}
// Empty histogram buckets are elided; quantiles are precomputed so
// downstream tooling (run_benches.sh, check_bench_regression.py) can
// consume stage latencies without reimplementing the interpolation.
std::string RenderJson(const MetricsSnapshot& snap);

}  // namespace ldpids::obs

#endif  // LDPIDS_OBS_EXPORT_H_
