#include "transport/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/stage_trace.h"
#include "obs/stats_feed.h"
#include "transport/socket_util.h"

namespace ldpids::transport {

namespace {

// Bytes per recv: one read per ready connection per epoll pass.
constexpr std::size_t kChunk = 64 * 1024;
constexpr int kMaxEvents = 64;

void CloseFd(int* fd) {
  if (*fd >= 0) ::close(*fd);
  *fd = -1;
}

void AddToEpoll(int epoll_fd, int fd, void* tag) {
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.ptr = tag;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) < 0) {
    ThrowErrno("epoll_ctl");
  }
}

}  // namespace

struct SocketListener::Connection {
  int fd = -1;
  // Latched under mu_ at accept: AttachMetrics only instruments later peers.
  obs::Histogram* decode_hist = nullptr;
  FrameDecoder decoder;
};

SocketListener::SocketListener(uint16_t port, FrameHandler handler)
    : handler_(std::move(handler)) {
  if (!handler_) {
    throw std::invalid_argument("listener needs a frame handler");
  }
  listen_fd_ = BindLoopbackListener(port, &port_);
  try {
    const int flags = ::fcntl(listen_fd_, F_GETFL);
    if (flags < 0 || ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
      ThrowErrno("fcntl O_NONBLOCK");
    }
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) ThrowErrno("eventfd");
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) ThrowErrno("epoll_create1");
    // The two control fds are tagged by their member's address; every
    // other event's tag is the Connection it belongs to.
    AddToEpoll(epoll_fd_, listen_fd_, &listen_fd_);
    AddToEpoll(epoll_fd_, wake_fd_, &wake_fd_);
  } catch (...) {
    CloseFd(&epoll_fd_);
    CloseFd(&wake_fd_);
    CloseFd(&listen_fd_);
    throw;
  }
  loop_thread_ = std::thread([this] { Loop(); });
}

SocketListener::~SocketListener() { Stop(); }

void SocketListener::AttachMetrics(obs::MetricsRegistry* registry,
                                   const std::string& label) {
  obs::Labels labels{{"stage", obs::StageName(obs::Stage::kFrameDecode)}};
  obs::Labels feed_labels;
  if (!label.empty()) {
    labels.emplace_back("session", label);
    feed_labels.emplace_back("session", label);
  }
  std::lock_guard<std::mutex> lock(mu_);
  decode_hist_ =
      &registry->GetHistogram(obs::kStageDurationMetric, labels);
  metrics_feed_ =
      std::make_unique<obs::FrameStatsFeed>(registry, feed_labels);
}

void SocketListener::Loop() {
  std::vector<std::unique_ptr<Connection>> open;
  // Connections closed during the current epoll batch. They are freed only
  // once the batch is done, so no event still in it can reach a dead one.
  std::vector<std::unique_ptr<Connection>> closed;
  epoll_event events[kMaxEvents];
  bool stopping = false;
  while (!stopping) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // fatal: fall through to the shutdown drain
    }
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == &wake_fd_) {
        stopping = true;
      } else if (tag == &listen_fd_) {
        AcceptReady(&open);
      } else {
        auto* conn = static_cast<Connection*>(tag);
        if (ReadOnce(conn) != ReadResult::kGone) continue;
        Retire(conn);
        const auto it = std::find_if(
            open.begin(), open.end(),
            [conn](const std::unique_ptr<Connection>& c) {
              return c.get() == conn;
            });
        closed.push_back(std::move(*it));
        open.erase(it);
      }
    }
    closed.clear();
  }
  // Stop(): deliver whatever each peer already sent, then close it.
  for (const std::unique_ptr<Connection>& conn : open) {
    while (ReadOnce(conn.get()) == ReadResult::kData) {
    }
    Retire(conn.get());
  }
}

void SocketListener::AcceptReady(
    std::vector<std::unique_ptr<Connection>>* open) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // Fatal accept error (e.g. fd exhaustion): stop accepting rather
        // than spin on a listen fd that stays readable. Connected peers
        // keep being served.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      }
      return;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++connections_;
      conn->decode_hist = decode_hist_;
    }
    try {
      AddToEpoll(epoll_fd_, fd, conn.get());
    } catch (const std::runtime_error&) {
      Retire(conn.get());  // counted above, so it still folds an entry
      continue;
    }
    open->push_back(std::move(conn));
  }
}

SocketListener::ReadResult SocketListener::ReadOnce(Connection* conn) {
  // Zero-copy intake: recv straight into the decoder's pooled block; the
  // bytes are never staged in a side buffer, and decoded payloads alias
  // them in place all the way into the round buffer.
  FrameDecoder& decoder = conn->decoder;
  const ssize_t n = ::recv(conn->fd, decoder.Reserve(kChunk), kChunk, 0);
  if (n < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR
               ? ReadResult::kIdle
               : ReadResult::kGone;
  }
  if (n == 0) return ReadResult::kGone;  // EOF
  decoder.Commit(static_cast<std::size_t>(n));
  Frame frame;
  if (conn->decode_hist != nullptr) {
    // One observation per recv drain: frame reassembly plus handler
    // delivery, the time these bytes spend on the loop thread.
    const uint64_t t0 = obs::NowNs();
    while (decoder.Next(&frame)) handler_(std::move(frame));
    conn->decode_hist->Observe(obs::NowNs() - t0);
  } else {
    while (decoder.Next(&frame)) handler_(std::move(frame));
  }
  return ReadResult::kData;
}

void SocketListener::Retire(Connection* conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const FrameStats& stats = conn->decoder.stats();
    stats_ += stats;
    connection_stats_.push_back(stats);
    if (metrics_feed_ != nullptr) metrics_feed_->Add(stats);
  }
  // Deregister explicitly: close() alone leaves the registration alive
  // while a forked child still holds a copy of the fd.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  CloseFd(&conn->fd);
}

void SocketListener::Stop() {
  if (!loop_thread_.joinable()) return;  // Stop then destructor
  if (::eventfd_write(wake_fd_, 1) < 0) ThrowErrno("eventfd_write");
  loop_thread_.join();
  CloseFd(&epoll_fd_);
  CloseFd(&wake_fd_);
  CloseFd(&listen_fd_);
}

FrameStats SocketListener::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<FrameStats> SocketListener::connection_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connection_stats_;
}

uint64_t SocketListener::connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_;
}

SocketClient::SocketClient(uint16_t port, std::size_t flush_bytes)
    : flush_bytes_(flush_bytes) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
    ThrowErrno("connect 127.0.0.1");
  }
  buffer_.reserve(flush_bytes_ + kMaxFramePayload);
}

SocketClient::~SocketClient() {
  try {
    Close();
  } catch (...) {
    // Destructor: the peer may already be gone; losing the tail of an
    // unflushed buffer on teardown is the caller's bug (call Close()).
  }
}

void SocketClient::Send(const Frame& frame) {
  if (fd_ < 0) throw std::logic_error("socket client already closed");
  const std::size_t before = buffer_.size();
  AppendEncodedFrame(frame, &buffer_);
  ++frames_sent_;
  bytes_sent_ += buffer_.size() - before;
  if (buffer_.size() >= flush_bytes_) Flush();
}

void SocketClient::Flush() {
  if (fd_ < 0 || buffer_.empty()) return;
  SendAll(fd_, buffer_.data(), buffer_.size());
  buffer_.clear();
}

void SocketClient::Close() {
  if (fd_ < 0) return;
  Flush();
  ::shutdown(fd_, SHUT_WR);  // EOF to the peer after the last frame
  ::close(fd_);
  fd_ = -1;
}

}  // namespace ldpids::transport
