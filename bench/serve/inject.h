// The `inject` role: the load generator, one thread, no library code.
//
// It loads the pre-recorded frame logs, opens its connections, and then
// only copies bytes: for each 16-byte descriptor the server writes at
// announce time, it sends that round's recorded byte ranges at
// max(announce, due(t)) — the protocol forbids earlier, since devices
// cannot report before the server has fixed the round's epsilon and
// cohort. It reports how late it ran (lag behind that instant) and how
// busy it was, so a run that measured the injector instead of the server
// can be refused.
#ifndef LDPIDS_BENCH_SERVE_INJECT_H_
#define LDPIDS_BENCH_SERVE_INJECT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace ldpids::bench_serve {

// Server -> injector, one per announced round.
struct InjectDescriptor {
  uint64_t round_index = 0;
  // CLOCK_MONOTONIC instant the round may be sent: max(announce, due).
  uint64_t not_before_ns = 0;
};
static_assert(sizeof(InjectDescriptor) == 16, "descriptor is the pipe ABI");

inline int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("injector: socket failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Die("injector: connect failed");
  }
  return fd;
}

inline bool SendBytes(int fd, const uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// Connection k goes to ports[k]. Prints "connect_ns" before connecting (so
// the server can exclude the injector's own preparation from setup_s) and
// its report after stdin reaches EOF.
inline int RunInjector(const Workload& w, const std::string& dir,
                       const std::vector<uint16_t>& ports, bool trace) {
  std::signal(SIGPIPE, SIG_IGN);
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // precise pacing wake-ups
  const GeneratedWorkload g = LoadGenerated(dir);
  std::vector<std::vector<uint8_t>> logs;
  for (std::size_t k = 0; k < w.conns; ++k) {
    logs.push_back(ReadFileBytes(LogPath(dir, k)));
  }
  if (ports.size() != w.conns) Die("injector: one port per connection");
  std::printf("connect_ns %llu\n", static_cast<unsigned long long>(NowNs()));
  std::fflush(stdout);
  std::vector<int> fds;
  for (uint16_t port : ports) fds.push_back(ConnectLoopback(port));

  Tracer tracer(0, 0);
  std::vector<double> lag_us;
  uint64_t bytes = 0;
  uint64_t first_ns = 0, last_ns = 0;
  ProcUsage usage0;
  const std::vector<std::size_t> order = SendOrder(w.conns);
  InjectDescriptor d;
  while (ReadExact(STDIN_FILENO, &d, sizeof(d))) {
    if (d.round_index >= g.rounds.size()) {
      Die("injector: announced round is not in the recording");
    }
    if (first_ns == 0) {
      first_ns = NowNs();
      usage0 = SelfUsage();
    }
    if (NowNs() < d.not_before_ns) SleepUntil(d.not_before_ns);
    const uint64_t start = NowNs();
    // Lag is this generator's own lateness. Time spent still blocked in
    // the previous round's sends (server backpressure) is not lag: it
    // already shows in the release latency, measured from due(t).
    const uint64_t ready = std::max(d.not_before_ns, last_ns);
    lag_us.push_back(static_cast<double>(start - std::min(start, ready)) / 1e3);
    const RoundEntry& e = g.rounds[d.round_index];
    for (std::size_t k : order) {
      if (!SendBytes(fds[k], logs[k].data() + e.offset[k], e.length[k])) {
        return 1;  // the server went away (it reports why)
      }
      bytes += e.length[k];
    }
    last_ns = NowNs();
    if (trace) tracer.AddSpan("inject.send", start, last_ns, d.round_index);
  }
  for (int fd : fds) {
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
  }
  const ProcUsage usage1 = SelfUsage();
  Report report;
  report["inject_rounds"] = static_cast<double>(lag_us.size());
  report["inject_bytes"] = static_cast<double>(bytes);
  report["inject_lag_p50_us"] = Quantile(lag_us, 0.50);
  report["inject_lag_p99_us"] = Quantile(lag_us, 0.99);
  report["inject_cpu_ns"] = static_cast<double>(usage1.cpu_ns - usage0.cpu_ns);
  report["inject_wall_ns"] = static_cast<double>(last_ns - first_ns);
  EmitReport(report, stdout);
  if (trace) tracer.EmitSpans(stdout);
  return 0;
}

}  // namespace ldpids::bench_serve

#endif  // LDPIDS_BENCH_SERVE_INJECT_H_
