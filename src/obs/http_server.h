// Dependency-free embedded HTTP/1.1 server for the observability plane.
//
// This is deliberately *not* a general web server: it exists so a running
// ldpids process can answer `GET /metrics`-style scrapes from curl,
// Prometheus, or a health checker without a single external dependency.
// Scope is pinned accordingly:
//   * GET and HEAD only (anything else answers 405),
//   * no request bodies (a Content-Length/Transfer-Encoding header
//     answers 400 — a scraper never sends one),
//   * loopback bind only, same as the frame transport's SocketListener.
//
// Defensive posture matches the wire decoders one layer down: every parse
// failure degrades to a typed 4xx response or a closed connection, never
// a crash, regardless of what bytes arrive. The parser is exposed as a
// free function (`ParseHttpRequest`) precisely so the fuzz/negative tests
// can drive it directly with hostile buffers and random slicings.
//
// Threading: one accept thread plus one thread per connection (scrapes
// are rare and short-lived; a thread per scraper costs nothing next to
// the serving data plane). Each accept first joins the connection threads
// that have finished, so a periodic scraper holds no stack beyond its own
// connection's. The handler runs on connection threads and must be
// thread-safe; handlers here render from MetricsRegistry snapshots, which
// are safe by construction. Stop() — and the destructor — closes every
// socket and joins every thread.
#ifndef LDPIDS_OBS_HTTP_SERVER_H_
#define LDPIDS_OBS_HTTP_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ldpids::obs {

// One parsed request. `target` is the raw request target; `path` and
// `query` split it at the first '?'.
struct HttpRequest {
  std::string method;
  std::string target;
  std::string path;
  std::string query;
  // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; a Connection
  // header overrides either way.
  bool keep_alive = true;
};

enum class HttpParseResult : uint8_t {
  kNeedMore,  // no complete request in the buffer yet
  kOk,        // one request parsed; *consumed bytes were used
  kBad,       // malformed request line/headers (answer 400, close)
  kTooLarge,  // header block exceeds kMaxHttpHeaderBytes (431, close)
};

// Hard cap on the request line + header block. Anything larger is an
// attack or a mistake, never a scrape.
inline constexpr std::size_t kMaxHttpHeaderBytes = 16 * 1024;

// Parses one request from data[0, size). On kOk, fills `*request` and
// sets `*consumed` to the bytes the request occupied (pipelined requests
// parse one at a time). Never throws, never reads past `size`.
HttpParseResult ParseHttpRequest(const uint8_t* data, std::size_t size,
                                 HttpRequest* request,
                                 std::size_t* consumed);

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

// Canonical reason phrase for the status codes this server emits;
// "Unknown" otherwise.
const char* HttpStatusReason(int status);

// Serializes status line + headers + body (body omitted for HEAD).
std::string RenderHttpResponse(const HttpResponse& response,
                               bool keep_alive, bool head_only);

// Runs on connection threads; must be thread-safe.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  // Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts
  // accepting. Throws std::runtime_error on socket/bind/listen failure.
  HttpServer(uint16_t port, HttpHandler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Stops accepting, closes every connection and joins all threads.
  void Stop();

  uint16_t port() const { return port_; }
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  uint64_t connections_accepted() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ConnectionLoop(int fd);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  HttpHandler handler_;
  std::thread accept_thread_;

  // One per connection thread not yet joined; `fd` turns -1 (under mu_)
  // once the thread is done with its socket and only has to exit.
  struct Worker {
    std::thread thread;
    int fd = -1;
  };

  std::mutex mu_;
  bool stopping_ = false;
  std::vector<Worker> workers_;
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> connections_{0};
};

}  // namespace ldpids::obs

#endif  // LDPIDS_OBS_HTTP_SERVER_H_
