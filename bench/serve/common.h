// Process plumbing and statistics shared by the bench_serve roles.
//
// Every role is the same binary re-executed through /proc/self/exe, so the
// processes talk over plain pipes: fixed-size binary descriptors on the hot
// announce path, and "key value" text lines for everything reported at
// exit. All timestamps are CLOCK_MONOTONIC nanoseconds, which every process
// on the host shares — the server computes latency against due times the
// coordinator never sees, and the injector's lag against the server's
// announce.
#ifndef LDPIDS_BENCH_SERVE_COMMON_H_
#define LDPIDS_BENCH_SERVE_COMMON_H_

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace ldpids::bench_serve {

inline uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Sleeps until the absolute CLOCK_MONOTONIC time `deadline_ns`.
inline void SleepUntil(uint64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

[[noreturn]] inline void Die(const char* what) {
  std::fprintf(stderr, "bench_serve: %s\n", what);
  std::exit(1);
}

// Reads exactly `len` bytes; false on a clean EOF before the first byte.
inline bool ReadExact(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<uint8_t*>(buf);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, p + got, len - got);
    if (n == 0) {
      if (got == 0) return false;
      Die("short read on a descriptor pipe");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      Die("read failed on a descriptor pipe");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

// Writes all bytes; false when the peer is gone (EPIPE/ECONNRESET).
inline bool WriteAll(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

inline std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) Die(("cannot open " + path).c_str());
  std::vector<uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()))) {
    Die(("cannot read " + path).c_str());
  }
  return bytes;
}

// --- child processes -------------------------------------------------------

// A re-executed copy of this binary with its stdin fed by `in_fd` (the
// parent's write end, -1 when the child reads nothing) and its stdout
// captured on `out` (the parent's read end).
struct Child {
  pid_t pid = -1;
  int in_fd = -1;
  FILE* out = nullptr;
};

// Spawns `/proc/self/exe args...`. Every other descriptor is closed in the
// child, so a pipe's EOF reaches its reader as soon as its one writer
// closes (no sibling holds a stray copy) and no child inherits a socket.
inline Child SpawnSelf(const std::vector<std::string>& args, bool feed_stdin) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2];
  if ((feed_stdin && ::pipe2(in_pipe, O_CLOEXEC) != 0) ||
      ::pipe2(out_pipe, O_CLOEXEC) != 0) {
    Die("pipe2 failed");
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("bench_serve"));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    // Async-signal-safe calls only between fork and exec.
    if (feed_stdin) ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::syscall(SYS_close_range, 3u, ~0u, 0u);
    ::execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  Child child;
  child.pid = pid;
  if (feed_stdin) {
    ::close(in_pipe[0]);
    child.in_fd = in_pipe[1];
  }
  ::close(out_pipe[1]);
  child.out = ::fdopen(out_pipe[0], "r");
  return child;
}

// Closes the child's stdin (its shutdown signal), drains its stdout into
// `lines` and reaps it. Returns the exit status (128 + signal on a crash).
inline int FinishChild(Child& child, std::vector<std::string>* lines) {
  if (child.in_fd >= 0) {
    ::close(child.in_fd);
    child.in_fd = -1;
  }
  char buf[4096];
  while (child.out != nullptr && std::fgets(buf, sizeof(buf), child.out)) {
    if (lines != nullptr) {
      std::string line(buf);
      while (!line.empty() && line.back() == '\n') line.pop_back();
      lines->push_back(std::move(line));
    }
  }
  if (child.out != nullptr) {
    std::fclose(child.out);
    child.out = nullptr;
  }
  int status = 0;
  while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  child.pid = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

// Reads one line of the child's stdout (startup handshakes).
inline std::string ReadLine(Child& child) {
  char buf[256];
  if (std::fgets(buf, sizeof(buf), child.out) == nullptr) {
    Die("child exited during its startup handshake");
  }
  std::string line(buf);
  while (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

// --- process accounting ----------------------------------------------------

struct ProcUsage {
  uint64_t cpu_ns = 0;      // user + system
  uint64_t ctx_switches = 0;
  uint64_t maxrss_kb = 0;
};

inline ProcUsage SelfUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_ns = static_cast<uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                 1000000000ull +
             static_cast<uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                 1000ull;
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxrss_kb = static_cast<uint64_t>(ru.ru_maxrss);
  return u;
}

// Lowers every thread of this process to `nice` (threads created later
// inherit it from their creator). Raising niceness needs no privilege.
inline void LowerPriority(int nice) {
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const auto tid =
        static_cast<id_t>(std::stoul(task.path().filename().string()));
    ::setpriority(PRIO_PROCESS, tid, nice);
  }
}

inline uint64_t SelfThreads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      uint64_t n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

// --- "key value" reports ---------------------------------------------------

using Report = std::map<std::string, double>;

inline void EmitReport(const Report& report, FILE* out) {
  for (const auto& [key, value] : report) {
    std::fprintf(out, "%s %.17g\n", key.c_str(), value);
  }
}

// Parses the "key value" lines of `lines`; other lines are skipped.
inline Report ParseReport(const std::vector<std::string>& lines) {
  Report report;
  for (const std::string& line : lines) {
    std::istringstream in(line);
    std::string key;
    double value = 0.0;
    if (in >> key >> value) report[key] = value;
  }
  return report;
}

// --- statistics ------------------------------------------------------------

// Linear-interpolated quantile q in [0, 1] (numpy's default method).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Iqr(const std::vector<double>& v) {
  return Quantile(v, 0.75) - Quantile(v, 0.25);
}

// FNV-1a over raw bytes: release digests and round-table checks.
inline uint64_t Fnv1a(const void* data, std::size_t size,
                      uint64_t hash = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash = (hash ^ p[i]) * 0x100000001b3ull;
  }
  return hash;
}

}  // namespace ldpids::bench_serve

#endif  // LDPIDS_BENCH_SERVE_COMMON_H_
