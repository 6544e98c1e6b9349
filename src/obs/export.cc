#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <string>

namespace ldpids::obs {

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendJsonString(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

namespace {

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

// `name{labels}` or bare `name`; `extra` ("le=\"...\"") is appended to
// the label list when non-empty.
void AppendSeries(std::string* out, const std::string& name,
                  const Labels& labels, const std::string& extra) {
  *out += name;
  std::string rendered = RenderLabels(labels);
  if (!rendered.empty() || !extra.empty()) {
    *out += '{';
    *out += rendered;
    if (!rendered.empty() && !extra.empty()) *out += ',';
    *out += extra;
    *out += '}';
  }
  *out += ' ';
}

void AppendTypeHeader(std::string* out, std::string* last_name,
                      const std::string& name, const char* type) {
  if (name == *last_name) return;
  *last_name = name;
  *out += "# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

void AppendJsonLabels(std::string* out, const Labels& labels) {
  *out += "\"labels\":{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) *out += ',';
    first = false;
    AppendJsonString(out, key);
    *out += ':';
    AppendJsonString(out, value);
  }
  *out += '}';
}

}  // namespace

std::string RenderPrometheus(const MetricsSnapshot& snap) {
  std::string out;
  std::string last_name;
  for (const auto& c : snap.counters) {
    AppendTypeHeader(&out, &last_name, c.name, "counter");
    AppendSeries(&out, c.name, c.labels, "");
    AppendU64(&out, c.value);
    out += '\n';
  }
  for (const auto& g : snap.gauges) {
    AppendTypeHeader(&out, &last_name, g.name, "gauge");
    AppendSeries(&out, g.name, g.labels, "");
    AppendI64(&out, g.value);
    out += '\n';
  }
  for (const auto& h : snap.histograms) {
    AppendTypeHeader(&out, &last_name, h.name, "histogram");
    uint64_t cumulative = 0;
    for (std::size_t k = 0; k + 1 < Histogram::kNumBuckets; ++k) {
      if (h.buckets[k] == 0) continue;  // elide empty buckets
      cumulative += h.buckets[k];
      std::string le = "le=\"";
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%" PRIu64,
                    Histogram::BucketUpperBound(k));
      le += buf;
      le += '"';
      AppendSeries(&out, h.name + "_bucket", h.labels, le);
      AppendU64(&out, cumulative);
      out += '\n';
    }
    // Terminal +Inf bucket (covers the open-ended top bucket) equals
    // _count, always emitted.
    AppendSeries(&out, h.name + "_bucket", h.labels, "le=\"+Inf\"");
    AppendU64(&out, h.count);
    out += '\n';
    AppendSeries(&out, h.name + "_sum", h.labels, "");
    AppendU64(&out, h.sum);
    out += '\n';
    AppendSeries(&out, h.name + "_count", h.labels, "");
    AppendU64(&out, h.count);
    out += '\n';
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snap) {
  // ts_unix_ms + seq lead the document so scraped snapshots can be
  // ordered (and counter deltas rated) offline without trusting the
  // scraper's clock or delivery order.
  std::string out = "{\"ts_unix_ms\":";
  AppendU64(&out, snap.ts_unix_ms);
  out += ",\"seq\":";
  AppendU64(&out, snap.seq);
  out += ",\"counters\":[";
  bool first = true;
  for (const auto& c : snap.counters) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, c.name);
    out += ',';
    AppendJsonLabels(&out, c.labels);
    out += ",\"value\":";
    AppendU64(&out, c.value);
    out += '}';
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& g : snap.gauges) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, g.name);
    out += ',';
    AppendJsonLabels(&out, g.labels);
    out += ",\"value\":";
    AppendI64(&out, g.value);
    out += '}';
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& h : snap.histograms) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, h.name);
    out += ',';
    AppendJsonLabels(&out, h.labels);
    out += ",\"count\":";
    AppendU64(&out, h.count);
    out += ",\"sum_ns\":";
    AppendU64(&out, h.sum);
    out += ",\"p50_ns\":";
    AppendU64(&out, h.Quantile(0.50));
    out += ",\"p99_ns\":";
    AppendU64(&out, h.Quantile(0.99));
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t k = 0; k < Histogram::kNumBuckets; ++k) {
      if (h.buckets[k] == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "{\"le_ns\":";
      AppendU64(&out, Histogram::BucketUpperBound(k));
      out += ",\"count\":";
      AppendU64(&out, h.buckets[k]);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace ldpids::obs
