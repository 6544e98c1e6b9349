// Embedded HTTP scrape server tests: parser negatives and random-slice
// fuzzing (hostile bytes must yield typed results, never a crash), server
// behavior over real loopback sockets (404/405/400/431, keep-alive,
// pipelining, abrupt client close), concurrent scrapes, and the
// load-bearing integration property — scraping a serving session from
// multiple threads leaves its release stream bit-identical.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/scrape_endpoint.h"
#include "obs/stats_feed.h"
#include "service/client_fleet.h"
#include "service/session.h"
#include "test_util.h"
#include "util/rng.h"

namespace ldpids {
namespace {

using obs::HttpParseResult;
using obs::HttpRequest;
using obs::HttpResponse;
using obs::HttpServer;
using obs::ParseHttpRequest;

HttpParseResult Parse(const std::string& raw, HttpRequest* req = nullptr,
                      std::size_t* consumed = nullptr) {
  HttpRequest local_req;
  std::size_t local_consumed = 0;
  return ParseHttpRequest(reinterpret_cast<const uint8_t*>(raw.data()),
                          raw.size(), req != nullptr ? req : &local_req,
                          consumed != nullptr ? consumed : &local_consumed);
}

// --- parser ---------------------------------------------------------------

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpRequest req;
  std::size_t consumed = 0;
  const std::string raw = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(Parse(raw, &req, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.query, "");
  EXPECT_TRUE(req.keep_alive);
  EXPECT_EQ(consumed, raw.size());
}

TEST(HttpParserTest, SplitsQueryAndHonorsConnectionHeader) {
  HttpRequest req;
  ASSERT_EQ(Parse("GET /healthz?verbose=1 HTTP/1.1\r\n"
                  "Connection: close\r\n\r\n",
                  &req),
            HttpParseResult::kOk);
  EXPECT_EQ(req.path, "/healthz");
  EXPECT_EQ(req.query, "verbose=1");
  EXPECT_FALSE(req.keep_alive);
}

TEST(HttpParserTest, Http10DefaultsToClose) {
  HttpRequest req;
  ASSERT_EQ(Parse("GET / HTTP/1.0\r\n\r\n", &req), HttpParseResult::kOk);
  EXPECT_FALSE(req.keep_alive);
}

TEST(HttpParserTest, IncompleteNeedsMore) {
  EXPECT_EQ(Parse(""), HttpParseResult::kNeedMore);
  EXPECT_EQ(Parse("GET"), HttpParseResult::kNeedMore);
  EXPECT_EQ(Parse("GET /metrics HTTP/1.1\r\n"), HttpParseResult::kNeedMore);
  EXPECT_EQ(Parse("GET /metrics HTTP/1.1\r\nHost: x\r\n"),
            HttpParseResult::kNeedMore);
}

TEST(HttpParserTest, MalformedIsBadNotCrash) {
  EXPECT_EQ(Parse("\r\n\r\n"), HttpParseResult::kBad);
  EXPECT_EQ(Parse("GET\r\n\r\n"), HttpParseResult::kBad);
  EXPECT_EQ(Parse("GET /\r\n\r\n"), HttpParseResult::kBad);  // no version
  EXPECT_EQ(Parse("GET / HTTP/2.0\r\n\r\n"), HttpParseResult::kBad);
  EXPECT_EQ(Parse("GET metrics HTTP/1.1\r\n\r\n"), HttpParseResult::kBad);
  EXPECT_EQ(Parse("G\x01T / HTTP/1.1\r\n\r\n"), HttpParseResult::kBad);
  EXPECT_EQ(Parse(std::string("GET /\x00x HTTP/1.1\r\n\r\n", 20)),
            HttpParseResult::kBad);
}

TEST(HttpParserTest, BodiesAreRejected) {
  EXPECT_EQ(Parse("GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"),
            HttpParseResult::kBad);
  EXPECT_EQ(Parse("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            HttpParseResult::kBad);
  // An explicit zero-length body is tolerated (curl -X GET emits none,
  // but some clients send the header anyway).
  EXPECT_EQ(Parse("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n"),
            HttpParseResult::kOk);
}

TEST(HttpParserTest, OversizedHeaderBlockIsTooLarge) {
  std::string raw = "GET / HTTP/1.1\r\n";
  while (raw.size() <= obs::kMaxHttpHeaderBytes) {
    raw += "X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
  }
  // No terminating blank line: the block already exceeds the cap.
  EXPECT_EQ(Parse(raw), HttpParseResult::kTooLarge);
  // Even with the terminator, over-cap blocks are refused.
  EXPECT_EQ(Parse(raw + "\r\n"), HttpParseResult::kTooLarge);
}

TEST(HttpParserTest, PipelinedRequestsParseOneAtATime) {
  const std::string one = "GET /a HTTP/1.1\r\n\r\n";
  const std::string two = one + "GET /b HTTP/1.1\r\n\r\n";
  HttpRequest req;
  std::size_t consumed = 0;
  ASSERT_EQ(Parse(two, &req, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(req.path, "/a");
  EXPECT_EQ(consumed, one.size());
  HttpRequest req2;
  std::size_t consumed2 = 0;
  ASSERT_EQ(ParseHttpRequest(
                reinterpret_cast<const uint8_t*>(two.data()) + consumed,
                two.size() - consumed, &req2, &consumed2),
            HttpParseResult::kOk);
  EXPECT_EQ(req2.path, "/b");
}

TEST(HttpParserTest, BareLfLineEndingsAccepted) {
  HttpRequest req;
  ASSERT_EQ(Parse("GET /metrics HTTP/1.1\nHost: x\n\n", &req),
            HttpParseResult::kOk);
  EXPECT_EQ(req.path, "/metrics");
}

// Random hostile buffers and random slicings of valid requests: the
// parser must always return a typed result and never read out of bounds
// (ASan/UBSan jobs run this test too).
TEST(HttpParserTest, FuzzNeverCrashes) {
  Rng rng(20260809);
  const std::string valid = "GET /metrics.json?x=1 HTTP/1.1\r\n"
                            "Host: localhost\r\nAccept: */*\r\n\r\n";
  for (int iter = 0; iter < 20000; ++iter) {
    std::string buf;
    if (iter % 3 == 0) {
      // Pure noise.
      const std::size_t n = rng.UniformInt(200);
      for (std::size_t i = 0; i < n; ++i) {
        buf.push_back(static_cast<char>(rng.UniformInt(256)));
      }
    } else if (iter % 3 == 1) {
      // Valid request, truncated at a random byte.
      buf = valid.substr(0, rng.UniformInt(valid.size() + 1));
    } else {
      // Valid request with random corruptions.
      buf = valid;
      const std::size_t flips = 1 + rng.UniformInt(4);
      for (std::size_t f = 0; f < flips; ++f) {
        buf[rng.UniformInt(buf.size())] =
            static_cast<char>(rng.UniformInt(256));
      }
    }
    HttpRequest req;
    std::size_t consumed = 0;
    const HttpParseResult r = ParseHttpRequest(
        reinterpret_cast<const uint8_t*>(buf.data()), buf.size(), &req,
        &consumed);
    if (r == HttpParseResult::kOk) {
      EXPECT_LE(consumed, buf.size());
      EXPECT_GT(consumed, 0u);
    }
  }
}

// --- server over real sockets ---------------------------------------------

// Minimal blocking HTTP client: connects, sends `raw`, reads to EOF.
std::string RawRequest(uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& path) {
  return RawRequest(port, "GET " + path +
                              " HTTP/1.1\r\nConnection: close\r\n\r\n");
}

HttpServer MakeEchoServer() {
  return HttpServer(0, [](const HttpRequest& req) {
    if (req.path == "/boom") throw std::runtime_error("handler exploded");
    HttpResponse resp;
    resp.body = "path=" + req.path + " query=" + req.query;
    return resp;
  });
}

TEST(HttpServerTest, ServesAndEchoes) {
  HttpServer server = MakeEchoServer();
  const std::string resp = Get(server.port(), "/hello?a=b");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("path=/hello query=a=b"), std::string::npos);
  EXPECT_GE(server.requests_served(), 1u);
}

TEST(HttpServerTest, NonGetIs405AndBadRequestIs400) {
  HttpServer server = MakeEchoServer();
  EXPECT_NE(RawRequest(server.port(),
                       "POST / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .find("405"),
            std::string::npos);
  EXPECT_NE(RawRequest(server.port(), "garbage\r\n\r\n").find("400"),
            std::string::npos);
}

TEST(HttpServerTest, OversizedHeadersAnswer431) {
  HttpServer server = MakeEchoServer();
  std::string raw = "GET / HTTP/1.1\r\n";
  while (raw.size() <= obs::kMaxHttpHeaderBytes) {
    raw += "X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
  }
  raw += "\r\n";
  EXPECT_NE(RawRequest(server.port(), raw).find("431"), std::string::npos);
}

TEST(HttpServerTest, HandlerExceptionAnswers503) {
  HttpServer server = MakeEchoServer();
  EXPECT_NE(Get(server.port(), "/boom").find("503"), std::string::npos);
}

TEST(HttpServerTest, HeadOmitsBody) {
  HttpServer server = MakeEchoServer();
  const std::string resp = RawRequest(
      server.port(), "HEAD /x HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_EQ(resp.find("path=/x"), std::string::npos);
}

TEST(HttpServerTest, KeepAlivePipelinedRequestsAllAnswered) {
  HttpServer server = MakeEchoServer();
  const std::string resp =
      RawRequest(server.port(), "GET /one HTTP/1.1\r\n\r\n"
                                "GET /two HTTP/1.1\r\n\r\n"
                                "GET /three HTTP/1.1\r\n"
                                "Connection: close\r\n\r\n");
  EXPECT_NE(resp.find("path=/one"), std::string::npos);
  EXPECT_NE(resp.find("path=/two"), std::string::npos);
  EXPECT_NE(resp.find("path=/three"), std::string::npos);
}

TEST(HttpServerTest, AbruptClientCloseDoesNotCrashServer) {
  HttpServer server = MakeEchoServer();
  for (int i = 0; i < 20; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    // Half a request, then slam the connection (RST via SO_LINGER 0 on
    // some stacks; plain close is hostile enough here).
    const char partial[] = "GET /met";
    (void)::send(fd, partial, sizeof(partial) - 1, 0);
    ::close(fd);
  }
  // The server must still answer.
  EXPECT_NE(Get(server.port(), "/ok").find("200 OK"), std::string::npos);
}

// A periodic scraper opens one short connection per scrape. Each finished
// connection thread must be joined as the server goes on, not kept until
// Stop(): one unjoined 8 MiB stack per scrape would add ~4 GB here.
TEST(HttpServerTest, ScrapeCyclesLeaveNoThreadStacks) {
  constexpr int kScrapes = 500;
  // The first scrapes warm the allocator arenas and the thread-stack
  // cache; growth is measured over the rest.
  constexpr int kWarmup = 50;
  HttpServer server = MakeEchoServer();
  for (int i = 0; i < kWarmup; ++i) {
    ASSERT_NE(Get(server.port(), "/warm").find("200 OK"), std::string::npos);
  }
  const uint64_t before_kb = testing::VmSizeKb();
  for (int i = kWarmup; i < kScrapes; ++i) {
    ASSERT_NE(Get(server.port(), "/scrape").find("200 OK"), std::string::npos);
  }
  const uint64_t after_kb = testing::VmSizeKb();
  ASSERT_GT(before_kb, 0u);
  // AddressSanitizer keeps freed blocks mapped in its quarantine (256 MiB
  // by default).
#if defined(__SANITIZE_ADDRESS__)
  constexpr uint64_t kQuarantineKb = 256 * 1024;
#else
  constexpr uint64_t kQuarantineKb = 0;
#endif
  EXPECT_LT(after_kb, before_kb + 64 * 1024 + kQuarantineKb)
      << "VmSize grew from " << before_kb << " KiB to " << after_kb << " KiB";
  EXPECT_EQ(server.connections_accepted(), static_cast<uint64_t>(kScrapes));
}

TEST(HttpServerTest, ConcurrentScrapesAllSucceed) {
  HttpServer server = MakeEchoServer();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string path =
            "/t" + std::to_string(th) + "n" + std::to_string(i);
        const std::string resp = Get(server.port(), path);
        if (resp.find("200 OK") != std::string::npos &&
            resp.find("path=" + path) != std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_GE(server.requests_served(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

// --- the write-only invariant under scrape load ---------------------------

// Releases must be bit-identical whether or not scrapers hammer every
// endpoint while the session serves rounds.
TEST(HttpServerTest, ConcurrentScrapingPinsReleasesBitIdentical) {
  constexpr std::size_t kDomain = 10;
  constexpr uint64_t kUsers = 400;
  constexpr std::size_t kSteps = 5;
  auto truth = [](uint64_t user, std::size_t t) -> uint32_t {
    return static_cast<uint32_t>((user + 7 * t) % kDomain);
  };
  MechanismConfig config;
  config.epsilon = 1.0;
  config.window = 4;
  config.fo = "OUE";
  config.seed = 33;

  auto run = [&](bool scraped) {
    const service::ClientFleet fleet(kUsers, truth, 777);
    obs::MetricsRegistry registry;
    obs::FlightRecorder recorder;
    service::SessionOptions options;
    options.num_shards = 2;
    options.pipeline_depth = 2;
    options.metrics = &registry;
    options.metrics_label = "scraped";
    options.recorder = &recorder;
    obs::ScrapeEndpoint endpoint(&registry, &recorder, {});

    std::atomic<bool> stop{false};
    std::vector<std::thread> scrapers;
    if (scraped) {
      for (const char* path :
           {"/metrics", "/metrics.json", "/healthz", "/statusz", "/trace"}) {
        scrapers.emplace_back([&endpoint, &stop, path] {
          while (!stop.load()) {
            const std::string resp = Get(endpoint.port(), path);
            ASSERT_FALSE(resp.empty());
          }
        });
      }
    }
    std::vector<StepResult> steps;
    {
      service::MechanismSession session(
          CreateMechanism("LBA", config, kUsers), kDomain, options,
          fleet.Transport(1));
      for (std::size_t t = 0; t < kSteps; ++t) {
        steps.push_back(session.Advance());
      }
    }
    stop.store(true);
    for (auto& s : scrapers) s.join();
    return steps;
  };

  const std::vector<StepResult> quiet = run(false);
  const std::vector<StepResult> noisy = run(true);
  ASSERT_EQ(quiet.size(), noisy.size());
  for (std::size_t t = 0; t < quiet.size(); ++t) {
    EXPECT_EQ(quiet[t].published, noisy[t].published) << t;
    EXPECT_EQ(quiet[t].release, noisy[t].release) << t;
  }
}

// /statusz's reports/s column is the slope of each session's accepted
// series, the same series its reports column reads. Every session
// registers all six ldpids_ingest_reports_total result series, and only
// the accepted one moves, so any other series read in its place shows
// 0.0.
TEST(ScrapeEndpointTest, StatuszReportsRateReadsTheAcceptedSeries) {
  obs::MetricsRegistry registry;
  obs::ScrapeEndpointOptions options;
  options.watchdog_period_ms = 0;
  obs::ScrapeEndpoint endpoint(&registry, nullptr, options);
  const std::vector<std::string> sessions = {"s0", "s1", "s2",
                                             "s3", "s4", "s5"};
  for (const std::string& session : sessions) {
    registry
        .GetGauge("ldpids_session_info", {{"session", session},
                                          {"mechanism", "LBU"},
                                          {"fo", "GRR"},
                                          {"pipeline", "1"},
                                          {"shards", "1"}})
        .Set(1);
    obs::IngestStatsFeed feed(&registry, {{"session", session}});
  }
  HttpRequest statusz;
  statusz.method = "GET";
  statusz.path = "/statusz";
  ASSERT_EQ(endpoint.Handle(statusz).status, 200);
  for (const std::string& session : sessions) {
    registry
        .GetCounter("ldpids_ingest_reports_total",
                    {{"session", session}, {"result", "accepted"}})
        .Add(5000);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const HttpResponse resp = endpoint.Handle(statusz);
  ASSERT_EQ(resp.status, 200);

  // Columns: session mechanism fo pipeline shards rounds reports rounds/s
  // reports/s health.
  std::size_t rows = 0;
  std::istringstream lines(resp.body);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream cells(line);
    std::vector<std::string> row;
    for (std::string cell; cells >> cell;) row.push_back(cell);
    if (row.size() != 10 || row[0].size() != 2 || row[0][0] != 's') {
      continue;
    }
    ++rows;
    EXPECT_EQ(row[6], "5000") << line;
    EXPECT_GT(std::strtod(row[8].c_str(), nullptr), 0.0) << line;
  }
  EXPECT_EQ(rows, sessions.size()) << resp.body;
}

}  // namespace
}  // namespace ldpids
