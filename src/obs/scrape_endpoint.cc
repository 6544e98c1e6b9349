#include "obs/scrape_endpoint.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/build_info.h"
#include "obs/export.h"

namespace ldpids::obs {

namespace {

const char kIndexBody[] =
    "ldpids live observability plane\n"
    "\n"
    "  /metrics        Prometheus text exposition\n"
    "  /metrics.json   structured JSON snapshot\n"
    "  /healthz        liveness + readiness (503 on stall)\n"
    "  /statusz        human status table\n"
    "  /trace          Chrome trace-event JSON (chrome://tracing, "
    "ui.perfetto.dev)\n";

std::string LabelValue(const Labels& labels, const std::string& key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return "";
}

void AppendCell(std::string* out, const std::string& value,
                std::size_t width) {
  out->append(value);
  for (std::size_t i = value.size(); i < width + 2; ++i) out->push_back(' ');
}

std::string FormatRate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", rate);
  return buf;
}

}  // namespace

ScrapeEndpoint::ScrapeEndpoint(MetricsRegistry* registry,
                               FlightRecorder* recorder,
                               ScrapeEndpointOptions opts)
    : registry_(registry), recorder_(recorder) {
  TouchProcessMetrics(registry_);
  if (recorder_ != nullptr) {
    health_ = std::make_unique<HealthModel>(registry_, recorder_, opts.health);
    if (opts.watchdog_period_ms > 0) {
      watchdog_ =
          std::make_unique<Watchdog>(health_.get(), opts.watchdog_period_ms);
    }
  }
  server_ = std::make_unique<HttpServer>(
      opts.port, [this](const HttpRequest& req) { return Handle(req); });
}

ScrapeEndpoint::~ScrapeEndpoint() {
  // Stop traffic before the health model / watchdog die under a handler.
  server_.reset();
  watchdog_.reset();
}

HttpResponse ScrapeEndpoint::Handle(const HttpRequest& req) {
  HttpResponse resp;
  if (req.path == "/") {
    resp.content_type = "text/plain; charset=utf-8";
    resp.body = kIndexBody;
    return resp;
  }
  if (req.path == "/metrics") {
    TouchProcessMetrics(registry_);
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = RenderPrometheus(registry_->Snapshot());
    return resp;
  }
  if (req.path == "/metrics.json") {
    TouchProcessMetrics(registry_);
    resp.content_type = "application/json";
    resp.body = RenderJson(registry_->Snapshot());
    return resp;
  }
  if (req.path == "/healthz") {
    HealthReport report;
    if (health_ != nullptr) {
      // With a watchdog the last report is fresh (<= one period old);
      // without one, evaluate now.
      report = watchdog_ != nullptr ? health_->LastReport()
                                    : health_->Update();
    }
    resp.status = report.ready ? 200 : 503;
    resp.content_type = "application/json";
    resp.body = report.ToJson();
    return resp;
  }
  if (req.path == "/statusz") {
    return ServeStatusz();
  }
  if (req.path == "/trace") {
    resp.content_type = "application/json";
    if (recorder_ != nullptr) {
      resp.body = RenderChromeTrace(recorder_->Snapshot());
    } else {
      resp.body = "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}";
    }
    return resp;
  }
  resp.status = 404;
  resp.content_type = "text/plain; charset=utf-8";
  resp.body = "404 not found\n\n";
  resp.body += kIndexBody;
  return resp;
}

HttpResponse ScrapeEndpoint::ServeStatusz() {
  TouchProcessMetrics(registry_);
  MetricsSnapshot snap = registry_->Snapshot();
  const uint64_t now = NowNs();

  HealthReport report;
  if (health_ != nullptr) report = health_->LastReport();

  // One row per ldpids_session_info gauge; columns joined from the
  // session's counters and the rolling rate tracker.
  struct Row {
    std::string session, mechanism, fo, pipeline, shards;
    uint64_t rounds = 0;
    uint64_t reports = 0;
    double rounds_per_s = 0.0;
    double reports_per_s = 0.0;
    std::string health = "ok";
  };
  std::vector<Row> rows;
  for (const GaugeSample& g : snap.gauges) {
    if (g.name != "ldpids_session_info") continue;
    Row row;
    row.session = LabelValue(g.labels, "session");
    row.mechanism = LabelValue(g.labels, "mechanism");
    row.fo = LabelValue(g.labels, "fo");
    row.pipeline = LabelValue(g.labels, "pipeline");
    row.shards = LabelValue(g.labels, "shards");
    rows.push_back(std::move(row));
  }
  for (const CounterSample& c : snap.counters) {
    const std::string session = LabelValue(c.labels, "session");
    for (Row& row : rows) {
      if (row.session != session) continue;
      if (c.name == "ldpids_session_rounds_total") {
        row.rounds = c.value;
      } else if (c.name == "ldpids_ingest_reports_total" &&
                 LabelValue(c.labels, "result") == "accepted") {
        row.reports = c.value;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(rates_mu_);
    rates_.Observe(snap, now);
    for (Row& row : rows) {
      row.rounds_per_s = rates_.RatePerSec("ldpids_session_rounds_total",
                                           {{"session", row.session}});
      row.reports_per_s = rates_.RatePerSec(
          "ldpids_ingest_reports_total",
          {{"session", row.session}, {"result", "accepted"}});
    }
  }
  for (const StallFinding& s : report.stalls) {
    for (Row& row : rows) {
      if (row.session == s.session) {
        row.health = "STALLED(" + s.stage + ")";
      }
    }
  }

  std::string out = "ldpids status\n=============\n";
  out += "version: ";
  out += BuildVersion();
  out += "  simd: ";
  out += SimdBackendName();
  out += "  sanitizer: ";
  out += SanitizerName();
  out += "\nuptime_s: ";
  out += std::to_string((now - ProcessStartNs()) / 1000000000ull);
  out += "  scrape_seq: ";
  out += std::to_string(snap.seq);
  out += "\nhealth: ";
  out += report.ready ? "ready" : "NOT READY";
  out += " (";
  out += std::to_string(report.open_sessions);
  out += " open sessions, ";
  out += std::to_string(report.stalls.size());
  out += " stalls)\n\n";

  const char* headers[] = {"session",  "mechanism", "fo",
                           "pipeline", "shards",    "rounds",
                           "reports",  "rounds/s",  "reports/s",
                           "health"};
  std::vector<std::vector<std::string>> cells;
  for (const Row& row : rows) {
    cells.push_back({row.session, row.mechanism, row.fo, row.pipeline,
                     row.shards, std::to_string(row.rounds),
                     std::to_string(row.reports),
                     FormatRate(row.rounds_per_s),
                     FormatRate(row.reports_per_s), row.health});
  }
  std::size_t widths[10];
  for (std::size_t c = 0; c < 10; ++c) {
    widths[c] = std::string(headers[c]).size();
    for (const auto& row : cells) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (std::size_t c = 0; c < 10; ++c) AppendCell(&out, headers[c], widths[c]);
  out += '\n';
  for (const auto& row : cells) {
    for (std::size_t c = 0; c < 10; ++c) AppendCell(&out, row[c], widths[c]);
    out += '\n';
  }
  if (rows.empty()) out += "(no sessions registered)\n";

  HttpResponse resp;
  resp.content_type = "text/plain; charset=utf-8";
  resp.body = std::move(out);
  return resp;
}

}  // namespace ldpids::obs
