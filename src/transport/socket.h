// Loopback/TCP socket transport for frame streams (POSIX sockets).
//
// `SocketListener` is the server edge: it binds a TCP port (0 picks an
// ephemeral one) and serves every connection from one epoll loop, pushing
// each decoded frame into the caller's FrameHandler. Each connection gets
// its own FrameDecoder, so split/merged reads and mid-stream corruption
// degrade to typed per-reason stats, never a crash — the same defensive
// posture as the wire decoders one layer down.
//
// `SocketClient` is the device edge: it connects and sends frames through
// a batching buffer (one send(2) per ~flush_bytes, not per report — at
// ~50 B per frame, syscall-per-frame would dominate the protocol cost).
//
// Threading: the listener starts exactly one loop thread, however many
// peers connect. It accepts, does one level-triggered recv of up to 64 KiB
// per ready connection per epoll pass (so a busy peer cannot starve the
// others), and runs the handler for every frame that recv completed — on
// the loop thread, one frame at a time, never from two threads at once.
// The handler must not block: a blocked handler stalls every connection.
// Its sink must still lock (RoundBuffer and FrameDemux do), since other
// threads may deliver into it too. Stop() — and the destructor — wakes the
// loop, delivers what the peers already sent, closes every connection and
// joins the thread.
#ifndef LDPIDS_TRANSPORT_SOCKET_H_
#define LDPIDS_TRANSPORT_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "transport/frame.h"

namespace ldpids::obs {
class MetricsRegistry;
class Histogram;
template <typename Stats>
class StatsFeed;
}  // namespace ldpids::obs

namespace ldpids::transport {

class SocketListener {
 public:
  // Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts
  // accepting. Throws std::runtime_error on socket/bind/listen failure.
  SocketListener(uint16_t port, FrameHandler handler);
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  // Observability (optional): publishes closed connections' decoder stats
  // to the canonical ldpids_frame_* metrics and records each recv drain's
  // decode+deliver time into the frame_decode stage histogram, labeled
  // {session=label} when `label` is non-empty. Attach before clients
  // connect — a connection accepted earlier stays uninstrumented.
  // Registry must outlive the listener.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& label = {});

  // Stops accepting, closes every connection and joins the loop thread.
  // Bytes a peer already sent are read and their frames delivered first.
  void Stop();

  uint16_t port() const { return port_; }
  // Decode accounting summed over every *closed* connection (a live
  // connection's decoder folds in when it closes); call after Stop() for
  // the full picture.
  FrameStats stats() const;
  // Per-connection decode accounting, one entry per closed connection in
  // close order; stats() is their FrameStats::operator+= sum.
  std::vector<FrameStats> connection_stats() const;
  uint64_t connections() const;

 private:
  struct Connection;
  enum class ReadResult { kData, kIdle, kGone };

  void Loop();
  // Accepts every pending peer (non-blocking) and registers it.
  void AcceptReady(std::vector<std::unique_ptr<Connection>>* open);
  // One recv into the decoder, then every frame it completed to the
  // handler. kIdle: nothing to read yet; kGone: EOF or a hard error.
  ReadResult ReadOnce(Connection* conn);
  // Folds the connection's decoder stats and closes its fd; the caller
  // keeps the Connection alive until its epoll batch is done.
  void Retire(Connection* conn);

  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop() wakes the loop through it
  int epoll_fd_ = -1;
  uint16_t port_ = 0;
  FrameHandler handler_;

  mutable std::mutex mu_;
  FrameStats stats_;
  std::vector<FrameStats> connection_stats_;
  uint64_t connections_ = 0;
  // Observability (null until AttachMetrics). The loop latches the
  // histogram under mu_ as it accepts each connection and records into it
  // lock-free; the feed is only touched at connection close, under mu_.
  obs::Histogram* decode_hist_ = nullptr;
  std::unique_ptr<obs::StatsFeed<FrameStats>> metrics_feed_;

  // Last: the loop uses every member above.
  std::thread loop_thread_;
};

class SocketClient : public FrameSender {
 public:
  // Connects to 127.0.0.1:`port`. Throws std::runtime_error on failure.
  explicit SocketClient(uint16_t port, std::size_t flush_bytes = 64 * 1024);
  ~SocketClient() override;

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  void Send(const Frame& frame) override;
  void Flush() override;
  // Flushes and closes the connection; further Send calls throw.
  void Close();

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  int fd_ = -1;
  std::vector<uint8_t> buffer_;
  std::size_t flush_bytes_;
  uint64_t frames_sent_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace ldpids::transport

#endif  // LDPIDS_TRANSPORT_SOCKET_H_
