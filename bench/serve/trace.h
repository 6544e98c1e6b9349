// In-memory span recording for the `--trace` runs.
//
// Spans are recorded by the benchmark's own wrappers around its calls into
// each layer (server.h) — never inside the library — and kept in memory
// until the process exits. Each span holds its name, CLOCK_MONOTONIC
// window, process and thread, and a group id: the round index for
// round-level spans, the timestamp for `core.advance`. A round-level span's
// parent is the `core.advance` of the round's timestamp (the Advance that
// consumes it); the trace export names it. Child processes ship their spans
// to the server as text lines; the server writes the union as one Chrome
// trace that Perfetto loads directly.
//
// Per-frame work (RoundBuffer::Deliver) is too fine-grained for a span
// each, so the tracer also keeps per-frame sums and per-round arrival
// marks, in one slot per socket reader thread.
#ifndef LDPIDS_BENCH_SERVE_TRACE_H_
#define LDPIDS_BENCH_SERVE_TRACE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace ldpids::bench_serve {

struct Span {
  std::string name;
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  uint32_t pid = 0;  // bench process index (0 = server / root)
  uint32_t tid = 0;  // dense thread index within the process
  uint64_t group = 0;
};

class Tracer {
 public:
  Tracer(uint32_t pid, std::size_t max_rounds)
      : id_(NextId()), pid_(pid), max_rounds_(max_rounds) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void AddSpan(const char* name, uint64_t t0, uint64_t t1, uint64_t group) {
    const uint32_t tid = ThreadIndex();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t0, t1, pid_, tid, group});
  }

  // One RoundBuffer::Deliver call of `ns` on a data (or marker) frame of
  // `round`, arriving at `at`. Accumulates in the calling thread's own
  // slot: reader threads never share a cache line on this path.
  void OnDeliver(uint64_t round, bool marker, uint64_t at, uint64_t ns) {
    ReaderMarks& mine = Local();
    mine.ns += ns;
    ++mine.frames;
    if (round >= max_rounds_) return;
    if (marker) {
      mine.marker[round] = at;
    } else {
      mine.first[round] = std::min(mine.first[round], at);
      mine.last[round] = std::max(mine.last[round], at);
    }
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // The accessors below merge the reader threads' slots; call them once
  // the readers have stopped.
  uint64_t deliver_ns() const { return Sum(&ReaderMarks::ns); }
  uint64_t deliver_frames() const { return Sum(&ReaderMarks::frames); }
  // Arrival marks of round `r` (0 / ~0 / 0 when nothing arrived).
  uint64_t first_data(uint64_t r) const {
    uint64_t v = ~0ull;
    for (const auto& m : readers_) v = std::min(v, m->first[r]);
    return v;
  }
  uint64_t last_data(uint64_t r) const {
    uint64_t v = 0;
    for (const auto& m : readers_) v = std::max(v, m->last[r]);
    return v;
  }
  uint64_t marker(uint64_t r) const {
    for (const auto& m : readers_) {
      if (m->marker[r] != 0) return m->marker[r];
    }
    return 0;
  }
  std::size_t max_rounds() const { return max_rounds_; }

  // Text form for shipping spans up a pipe: "span name t0 t1 tid group".
  void EmitSpans(FILE* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(out, "span %s %llu %llu %u %llu\n", s.name.c_str(),
                   static_cast<unsigned long long>(s.t0),
                   static_cast<unsigned long long>(s.t1), s.tid,
                   static_cast<unsigned long long>(s.group));
    }
  }

  // Adopts the "span ..." lines of a child process as process `pid`.
  void AdoptSpans(const std::vector<std::string>& lines, uint32_t pid) {
    for (const std::string& line : lines) {
      if (line.rfind("span ", 0) != 0) continue;
      std::istringstream in(line.substr(5));
      Span s;
      s.pid = pid;
      if (in >> s.name >> s.t0 >> s.t1 >> s.tid >> s.group) {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
      }
    }
  }

 private:
  struct ReaderMarks {
    explicit ReaderMarks(std::size_t rounds)
        : first(rounds, ~0ull), last(rounds, 0), marker(rounds, 0) {}
    uint64_t ns = 0;
    uint64_t frames = 0;
    std::vector<uint64_t> first, last, marker;
  };

  ReaderMarks& Local() {
    thread_local uint64_t owner = 0;
    thread_local ReaderMarks* marks = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      readers_.push_back(std::make_unique<ReaderMarks>(max_rounds_));
      marks = readers_.back().get();
      owner = id_;
    }
    return *marks;
  }

  // Thread-local caches key on this, not on the address: a later tracer
  // may reuse a destroyed one's storage.
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  uint64_t Sum(uint64_t ReaderMarks::*field) const {
    uint64_t v = 0;
    for (const auto& m : readers_) v += (*m).*field;
    return v;
  }

  uint32_t ThreadIndex() {
    thread_local uint64_t owner = 0;
    thread_local uint32_t index = 0;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      index = static_cast<uint32_t>(
          threads_.emplace(std::this_thread::get_id(), threads_.size())
              .first->second);
      owner = id_;
    }
    return index;
  }

  const uint64_t id_;
  const uint32_t pid_;
  const std::size_t max_rounds_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::size_t> threads_;
  std::vector<std::unique_ptr<ReaderMarks>> readers_;  // one per thread
};

// Writes `spans` as a Chrome trace (the JSON object format Perfetto and
// chrome://tracing load). Times are microseconds from the earliest span.
// `process_names[pid]` labels each process track; `round_timestamp[r]`
// names each round-level span's parent Advance.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans,
                             const std::vector<std::string>& process_names,
                             const std::vector<uint64_t>& round_timestamp) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t base = ~0ull;
  for (const Span& s : spans) base = std::min(base, s.t0);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t pid = 0; pid < process_names.size(); ++pid) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%zu,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", pid, process_names[pid].c_str());
    first = false;
  }
  for (const Span& s : spans) {
    std::string parent;
    if (s.name != "core.advance" && s.group < round_timestamp.size()) {
      parent = ",\"parent\":\"core.advance t=" +
               std::to_string(round_timestamp[s.group]) + "\"";
    }
    std::fprintf(f,
                 "%s{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"group\":%llu%s}}",
                 first ? "" : ",\n", s.name.c_str(), s.pid, s.tid,
                 static_cast<double>(s.t0 - base) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3,
                 static_cast<unsigned long long>(s.group), parent.c_str());
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace ldpids::bench_serve

#endif  // LDPIDS_BENCH_SERVE_TRACE_H_
