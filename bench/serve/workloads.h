// The four bench_serve workloads and the on-disk layout of a generated one.
//
// Each workload is one traffic mix chosen to stress a different layer of
// the serving stack (README.md explains the choice of each). The `gen` role
// turns a workload + seed into per-connection frame logs plus a round table
// and a reference; every other role only reads those files.
#ifndef LDPIDS_BENCH_SERVE_WORKLOADS_H_
#define LDPIDS_BENCH_SERVE_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"

namespace ldpids::bench_serve {

inline constexpr std::size_t kMaxConns = 4;

struct Workload {
  const char* name;
  const char* mechanism;
  const char* fo;
  std::size_t domain;
  uint64_t users;
  std::size_t window;
  // Injector connections: to the server, or one per aggregator (tree).
  std::size_t conns;
  bool tree;     // two aggregator processes feeding a RootSession
  bool hostile;  // damaged, shuffled, duplicated and replayed frames
  std::size_t timestamps;        // T: length of the `sat` phase
  std::size_t paced_timestamps;  // T_paced: length of `low` and `high`
  // Stream-clock periods of the paced phases, frozen at 0.40x and 0.75x of
  // the median `sat` timestamps/s measured on the parent commit (4-core
  // Xeon, see README.md). Frozen so that later commits are measured at
  // the same offered load.
  uint64_t period_low_us;
  uint64_t period_high_us;
};

inline const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = {
      {"bd-grr", "LBA", "GRR", 64, 4000, 10, 2, false, false, 600, 200,
       3524, 1880},
      {"pd-olh", "LPA", "OLH", 1024, 200000, 150, 2, false, false, 400, 200,
       4594, 2450},
      {"hostile-oue", "LBD", "OUE", 256, 2000, 10, 4, false, true, 400, 200,
       5014, 2674},
      {"tree-hr", "LBA", "HR", 1024, 8000, 10, 2, true, false, 500, 200,
       3394, 1810},
  };
  return workloads;
}

inline const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// --- generated workload files ----------------------------------------------

// One FO collection round as `gen` recorded it: what the server must
// announce (a mismatch means the run diverged), where the round's frames
// sit in each connection's log, and how the reference classified them.
struct RoundEntry {
  uint64_t round_index = 0;
  uint64_t timestamp = 0;
  uint64_t epsilon_bits = 0;
  uint64_t cohort_size = 0;
  uint64_t accepted = 0;  // reports the reference ingest accepted
  uint64_t offset[kMaxConns] = {};
  uint64_t length[kMaxConns] = {};
  uint32_t frames[kMaxConns] = {};  // well-formed frames in each range
  // Damage mix of this round (hostile workload only).
  uint32_t broken = 0;      // frames whose frame checksum was broken
  uint32_t flipped = 0;     // reports with one flipped body byte
  uint32_t duplicated = 0;  // extra copies sent on another connection
  uint32_t replayed = 0;    // frames of round r-6 sent again
};

struct GeneratedWorkload {
  std::vector<RoundEntry> rounds;
  std::vector<uint64_t> release_hash;  // reference release digest per t

  // Reports the reference accepted over timestamps [0, t_end).
  uint64_t ExpectedAccepted(std::size_t t_end) const {
    uint64_t sum = 0;
    for (const RoundEntry& r : rounds) {
      if (r.timestamp < t_end) sum += r.accepted;
    }
    return sum;
  }
};

// Injection order of a round's ranges: connection 0 carries the end
// marker, so it goes last and the marker normally trails the data.
inline std::vector<std::size_t> SendOrder(std::size_t conns) {
  std::vector<std::size_t> order;
  for (std::size_t k = 1; k < conns; ++k) order.push_back(k);
  order.push_back(0);
  return order;
}

inline std::string LogPath(const std::string& dir, std::size_t conn) {
  return dir + "/conn" + std::to_string(conn) + ".log";
}

inline std::string TablePath(const std::string& dir) {
  return dir + "/rounds.bin";
}

inline constexpr uint64_t kTableMagic = 0x5245535645524231ull;  // "1BREVRES"

inline void SaveGenerated(const std::string& dir, const GeneratedWorkload& g) {
  FILE* f = std::fopen(TablePath(dir).c_str(), "wb");
  if (f == nullptr) Die("cannot write the round table");
  const uint64_t header[3] = {kTableMagic, g.rounds.size(),
                              g.release_hash.size()};
  bool ok = std::fwrite(header, sizeof(header), 1, f) == 1;
  ok = ok && std::fwrite(g.rounds.data(), sizeof(RoundEntry), g.rounds.size(),
                         f) == g.rounds.size();
  ok = ok && std::fwrite(g.release_hash.data(), sizeof(uint64_t),
                         g.release_hash.size(), f) == g.release_hash.size();
  if (std::fclose(f) != 0 || !ok) Die("cannot write the round table");
}

inline GeneratedWorkload LoadGenerated(const std::string& dir) {
  const std::vector<uint8_t> bytes = ReadFileBytes(TablePath(dir));
  uint64_t header[3];
  if (bytes.size() < sizeof(header)) Die("round table truncated");
  std::memcpy(header, bytes.data(), sizeof(header));
  if (header[0] != kTableMagic ||
      bytes.size() != sizeof(header) + header[1] * sizeof(RoundEntry) +
                          header[2] * sizeof(uint64_t)) {
    Die("round table corrupt");
  }
  GeneratedWorkload g;
  g.rounds.resize(header[1]);
  g.release_hash.resize(header[2]);
  const uint8_t* p = bytes.data() + sizeof(header);
  std::memcpy(g.rounds.data(), p, header[1] * sizeof(RoundEntry));
  std::memcpy(g.release_hash.data(), p + header[1] * sizeof(RoundEntry),
              header[2] * sizeof(uint64_t));
  return g;
}

}  // namespace ldpids::bench_serve

#endif  // LDPIDS_BENCH_SERVE_WORKLOADS_H_
