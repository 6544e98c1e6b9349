#include "obs/http_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "transport/socket_util.h"

namespace ldpids::obs {

namespace {

// Case-insensitive ASCII comparison for header names/values.
bool IEquals(const std::string& a, const char* b) {
  std::size_t i = 0;
  for (; i < a.size(); ++i) {
    if (b[i] == '\0') return false;
    const char ca = a[i] >= 'A' && a[i] <= 'Z' ? a[i] + 32 : a[i];
    const char cb = b[i] >= 'A' && b[i] <= 'Z' ? b[i] + 32 : b[i];
    if (ca != cb) return false;
  }
  return b[i] == '\0';
}

bool IsTokenChar(char c) {
  if (c >= 'a' && c <= 'z') return true;
  if (c >= 'A' && c <= 'Z') return true;
  if (c >= '0' && c <= '9') return true;
  return std::strchr("!#$%&'*+-.^_`|~", c) != nullptr;
}

// Strips optional leading/trailing spaces and tabs.
std::string Trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

}  // namespace

HttpParseResult ParseHttpRequest(const uint8_t* data, std::size_t size,
                                 HttpRequest* request,
                                 std::size_t* consumed) {
  // Find the end of the header block ("\r\n\r\n"; a lone "\n\n" is also
  // accepted — hand-typed `nc` requests use it). Scan is bounded by the
  // header cap so a slow-drip attacker cannot grow the buffer forever.
  const std::size_t scan = size < kMaxHttpHeaderBytes ? size
                                                      : kMaxHttpHeaderBytes;
  std::size_t header_end = 0;  // index one past the blank line
  for (std::size_t i = 0; i < scan; ++i) {
    if (data[i] == '\n') {
      if (i >= 1 && data[i - 1] == '\n') {
        header_end = i + 1;
        break;
      }
      if (i >= 3 && data[i - 1] == '\r' && data[i - 2] == '\n' &&
          data[i - 3] == '\r') {
        header_end = i + 1;
        break;
      }
    }
  }
  if (header_end == 0) {
    return size >= kMaxHttpHeaderBytes ? HttpParseResult::kTooLarge
                                       : HttpParseResult::kNeedMore;
  }

  // Split into lines (tolerating both \r\n and \n endings).
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < header_end; ++i) {
    if (data[i] != '\n') continue;
    std::size_t end = i;
    if (end > start && data[end - 1] == '\r') --end;
    lines.emplace_back(reinterpret_cast<const char*>(data) + start,
                       end - start);
    start = i + 1;
  }
  if (lines.empty() || lines.front().empty()) {
    return HttpParseResult::kBad;
  }

  // Request line: METHOD SP target SP HTTP/1.x
  const std::string& line = lines.front();
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) return HttpParseResult::kBad;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || sp2 == sp1 + 1) {
    return HttpParseResult::kBad;
  }
  HttpRequest parsed;
  parsed.method = line.substr(0, sp1);
  for (char c : parsed.method) {
    if (!IsTokenChar(c)) return HttpParseResult::kBad;
  }
  parsed.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (parsed.target.empty() || parsed.target[0] != '/') {
    return HttpParseResult::kBad;
  }
  for (char c : parsed.target) {
    if (static_cast<unsigned char>(c) <= 0x20 ||
        static_cast<unsigned char>(c) == 0x7f) {
      return HttpParseResult::kBad;
    }
  }
  const std::string version = line.substr(sp2 + 1);
  bool http10 = false;
  if (version == "HTTP/1.0") {
    http10 = true;
  } else if (version != "HTTP/1.1") {
    return HttpParseResult::kBad;
  }
  parsed.keep_alive = !http10;

  // Headers: name ":" value. A request body (Content-Length > 0 or any
  // Transfer-Encoding) is out of scope — scrapes are GETs.
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& header = lines[i];
    if (header.empty()) break;  // blank line (already located above)
    const std::size_t colon = header.find(':');
    if (colon == std::string::npos || colon == 0) {
      return HttpParseResult::kBad;
    }
    const std::string name = header.substr(0, colon);
    for (char c : name) {
      if (!IsTokenChar(c)) return HttpParseResult::kBad;
    }
    const std::string value = Trim(header.substr(colon + 1));
    if (IEquals(name, "connection")) {
      if (IEquals(value, "close")) parsed.keep_alive = false;
      if (IEquals(value, "keep-alive")) parsed.keep_alive = true;
    } else if (IEquals(name, "transfer-encoding")) {
      return HttpParseResult::kBad;
    } else if (IEquals(name, "content-length")) {
      if (value.empty()) return HttpParseResult::kBad;
      for (char c : value) {
        if (c < '0' || c > '9') return HttpParseResult::kBad;
      }
      // Any declared body is rejected; "0" is tolerated (curl -X GET
      // with no data sends nothing, but some clients send it anyway).
      if (value.find_first_not_of('0') != std::string::npos) {
        return HttpParseResult::kBad;
      }
    }
  }

  const std::size_t qmark = parsed.target.find('?');
  if (qmark == std::string::npos) {
    parsed.path = parsed.target;
  } else {
    parsed.path = parsed.target.substr(0, qmark);
    parsed.query = parsed.target.substr(qmark + 1);
  }
  *request = std::move(parsed);
  *consumed = header_end;
  return HttpParseResult::kOk;
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string RenderHttpResponse(const HttpResponse& response,
                               bool keep_alive, bool head_only) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += HttpStatusReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  if (!head_only) out += response.body;
  return out;
}

HttpServer::HttpServer(uint16_t port, HttpHandler handler)
    : handler_(std::move(handler)) {
  if (!handler_) {
    throw std::invalid_argument("http server needs a handler");
  }
  listen_fd_ = transport::BindLoopbackListener(port, &port_);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or a fatal accept error)
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    // Reap finished connections. Their threads never take mu_ again, so
    // the joins return promptly.
    for (auto it = workers_.begin(); it != workers_.end();) {
      if (it->fd >= 0) {
        ++it;
        continue;
      }
      it->thread.join();
      it = workers_.erase(it);
    }
    workers_.push_back({std::thread([this, fd] { ConnectionLoop(fd); }), fd});
  }
}

void HttpServer::ConnectionLoop(int fd) {
  std::vector<uint8_t> buffer;
  bool open = true;
  while (open) {
    // Parse everything already buffered before reading more (pipelined
    // requests answer back to back without waiting on the socket).
    HttpRequest request;
    std::size_t consumed = 0;
    const HttpParseResult result =
        ParseHttpRequest(buffer.data(), buffer.size(), &request, &consumed);
    if (result == HttpParseResult::kNeedMore) {
      constexpr std::size_t kChunk = 4096;
      const std::size_t used = buffer.size();
      buffer.resize(used + kChunk);
      const ssize_t n = ::recv(fd, buffer.data() + used, kChunk, 0);
      if (n < 0 && errno == EINTR) {
        buffer.resize(used);
        continue;
      }
      if (n <= 0) break;  // EOF (possibly mid-request) or shutdown
      buffer.resize(used + static_cast<std::size_t>(n));
      continue;
    }

    HttpResponse response;
    bool keep_alive = false;
    bool head_only = false;
    if (result == HttpParseResult::kTooLarge) {
      response.status = 431;
      response.body = "request header block too large\n";
    } else if (result == HttpParseResult::kBad) {
      response.status = 400;
      response.body = "malformed request\n";
    } else {
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<std::ptrdiff_t>(consumed));
      keep_alive = request.keep_alive;
      head_only = request.method == "HEAD";
      if (request.method != "GET" && request.method != "HEAD") {
        response.status = 405;
        response.body = "only GET and HEAD are served here\n";
      } else {
        try {
          response = handler_(request);
        } catch (const std::exception& e) {
          response = HttpResponse{};
          response.status = 503;
          response.body = std::string("handler failed: ") + e.what() + "\n";
        } catch (...) {
          response = HttpResponse{};
          response.status = 503;
          response.body = "handler failed\n";
        }
      }
      requests_served_.fetch_add(1, std::memory_order_relaxed);
    }

    const std::string wire =
        RenderHttpResponse(response, keep_alive, head_only);
    try {
      transport::SendAll(fd, reinterpret_cast<const uint8_t*>(wire.data()),
                         wire.size());
    } catch (...) {
      break;  // peer went away mid-response; nothing to salvage
    }
    open = keep_alive;
  }
  {
    // Deregister before closing: once the fd is closed the kernel may
    // recycle its number, and Stop() must never shutdown() a stale entry.
    std::lock_guard<std::mutex> lock(mu_);
    for (Worker& worker : workers_) {
      if (worker.fd == fd) {
        worker.fd = -1;
        break;
      }
    }
  }
  ::close(fd);
}

void HttpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      if (!accept_thread_.joinable() && workers_.empty()) return;
    }
    stopping_ = true;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Worker& worker : workers_) {
      if (worker.fd >= 0) ::shutdown(worker.fd, SHUT_RDWR);
    }
  }
  for (Worker& worker : workers_) {
    if (worker.thread.joinable()) worker.thread.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace ldpids::obs
