// The `gen` role: runs the real client protocol once per workload, records
// every round's frames, and proves the recording before anything is timed.
//
// Generation drives an in-process reference session whose transport
// produces each round's packets with ClientFleet (PerturbToWire, the real
// device protocol), writes them as frames into one FrameLogWriter per
// injector connection, and ingests exactly the payloads that survive
// framing. The reference releases, the round table (what each round must
// announce, and where its bytes sit in each log) and the damage counts are
// written next to the logs.
//
// The pre-flight check then replays every log through ReplayFrameLog and,
// announce-gated, through the same RoundBuffer + session stack the server
// runs (server.h) — requiring the reference digest and, for hostile-oue,
// frame-error and drop counts equal to the generated mix. A second, timed
// in-process replay gives the compute ceiling service.inproc_reports_per_s.
#ifndef LDPIDS_BENCH_SERVE_GEN_H_
#define LDPIDS_BENCH_SERVE_GEN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common.h"
#include "datagen/realworld_sim.h"
#include "fo/sketch_wire.h"
#include "server.h"
#include "service/client_fleet.h"
#include "transport/batch_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace ldpids::bench_serve {

// hostile-oue damage mix, fixed at generation.
inline constexpr double kFlipShare = 0.01;     // one flipped body byte
inline constexpr double kBrokenShare = 0.01;   // broken frame checksum
inline constexpr double kDupShare = 0.05;      // copy on another connection
inline constexpr double kReplayShare = 0.005;  // frames of round r - 6
inline constexpr std::size_t kReplayLag = 6;

inline uint64_t ReleaseHash(const Histogram& release) {
  return Fnv1a(release.data(), release.size() * sizeof(double));
}

// The stream every device reports from: the repository's drifting-Zipf
// simulator of the paper's real-world datasets (datagen/realworld_sim.h) —
// a skewed marginal that drifts smoothly, cycles daily over 10-minute slots
// and bursts now and then — at the workload's N and d.
inline std::shared_ptr<DistributionSequenceDataset> MakeStream(
    const Workload& w, uint64_t seed, std::size_t timestamps) {
  RealWorldSimOptions options;
  options.seed = seed;
  return MakeDriftingZipfDataset(w.name, w.users, timestamps, w.domain,
                                 /*timestamps_per_day=*/144, options);
}

class Generator {
 public:
  Generator(const Workload& w, uint64_t seed, const std::string& dir,
            std::size_t timestamps)
      : w_(w),
        seed_(seed),
        dir_(dir),
        timestamps_(timestamps),
        threads_(HardwareThreads()),
        stream_(MakeStream(w, seed, timestamps)),
        fleet_(w.users,
               [stream = stream_](uint64_t user, std::size_t t) {
                 return stream->value(user, t);
               },
               seed) {
    for (std::size_t k = 0; k < w.conns; ++k) {
      writers_.push_back(
          std::make_unique<transport::FrameLogWriter>(LogPath(dir, k)));
    }
  }

  // Generates the timestamps and writes the logs and the table.
  GeneratedWorkload Run() {
    auto session = MakeReferenceSession(
        w_, seed_,
        [this](const service::RoundRequest& request,
               service::ReportRouter& router) { Round(request, router); });
    for (std::size_t t = 0; t < timestamps_; ++t) {
      g_.release_hash.push_back(ReleaseHash(session->Advance().release));
    }
    session.reset();
    for (auto& writer : writers_) writer->Close();
    BreakFrameChecksums();
    SaveGenerated(dir_, g_);
    return g_;
  }

 private:
  struct Planned {
    std::vector<uint8_t> payload;
    uint64_t round = 0;
    bool broken = false;
  };

  void Round(const service::RoundRequest& request,
             service::ReportRouter& router) {
    RoundEntry e;
    e.round_index = request.round_index;
    e.timestamp = request.timestamp;
    e.epsilon_bits = EpsilonBits(request.epsilon);
    e.cohort_size =
        request.cohort != nullptr ? request.cohort->size() : w_.users;
    for (std::size_t k = 0; k < w_.conns; ++k) {
      e.offset[k] = writers_[k]->bytes_written();
    }
    std::vector<std::vector<uint8_t>> packets =
        fleet_.ProduceRound(request, threads_);
    if (w_.hostile) {
      WriteHostileRound(request.round_index, &packets, &e);
    } else if (w_.tree) {
      // One slice per aggregator, each completed by its own marker.
      const service::UserAssignment assignment = TreeAssignment(w_);
      std::vector<std::vector<std::vector<uint8_t>>> slices(w_.conns);
      for (std::size_t i = 0; i < packets.size(); ++i) {
        const uint32_t user = request.cohort != nullptr
                                  ? (*request.cohort)[i]
                                  : static_cast<uint32_t>(i);
        slices[assignment.NodeOf(user)].push_back(packets[i]);
      }
      for (std::size_t k = 0; k < w_.conns; ++k) {
        transport::SendRoundFrames(*writers_[k], kSessionId,
                                   request.round_index, slices[k]);
        e.frames[k] = static_cast<uint32_t>(slices[k].size() + 1);
      }
    } else {
      std::vector<transport::FrameSender*> senders;
      for (auto& writer : writers_) senders.push_back(writer.get());
      transport::SendRoundFrames(senders, kSessionId, request.round_index,
                                 packets);
      for (std::size_t i = 0; i < packets.size(); ++i) {
        ++e.frames[i % w_.conns];
      }
      ++e.frames[0];  // the end marker
    }
    for (std::size_t k = 0; k < w_.conns; ++k) {
      e.length[k] = writers_[k]->bytes_written() - e.offset[k];
    }
    router.IngestBatch(packets, threads_);
    for (std::size_t s = 0; s < router.num_shards(); ++s) {
      e.accepted += router.shard(s).stats().accepted;
    }
    g_.rounds.push_back(e);
  }

  // Applies the damage mix to one round. On return `*packets` holds
  // exactly the payloads that survive framing (what the reference and the
  // server ingest for this round).
  void WriteHostileRound(uint64_t round,
                         std::vector<std::vector<uint8_t>>* packets,
                         RoundEntry* e) {
    const std::size_t conns = w_.conns;
    Rng rng(HashCounter(seed_ ^ 0xDA3A6Eull, round, 0));
    std::vector<std::vector<Planned>> per_conn(conns);
    std::vector<std::vector<uint8_t>> surviving;
    std::vector<std::vector<uint8_t>> intact;
    for (std::vector<uint8_t>& packet : *packets) {
      const double u = rng.NextDouble();
      const std::size_t conn = rng.UniformInt(conns);
      if (u < kFlipShare) {
        // A byte of the oracle payload (after the 19-byte envelope header,
        // before the 4-byte checksum): the nonce stays readable, the wire
        // checksum fails, so ingest counts it malformed.
        const std::size_t body = packet.size() - 23;
        packet[19 + rng.UniformInt(body)] ^= 0xFF;
        ++e->flipped;
        surviving.push_back(packet);
        per_conn[conn].push_back({packet, round, false});
      } else if (u < kFlipShare + kBrokenShare) {
        ++e->broken;
        per_conn[conn].push_back({packet, round, true});
      } else {
        surviving.push_back(packet);
        intact.push_back(packet);
        per_conn[conn].push_back({packet, round, false});
        if (u < kFlipShare + kBrokenShare + kDupShare) {
          ++e->duplicated;
          surviving.push_back(packet);
          const std::size_t other =
              (conn + 1 + rng.UniformInt(conns - 1)) % conns;
          per_conn[other].push_back({packet, round, false});
        }
      }
    }
    if (recent_.size() == kReplayLag) {
      const std::vector<std::vector<uint8_t>>& old = recent_.front();
      const auto replays = static_cast<std::size_t>(
          kReplayShare * static_cast<double>(packets->size()) + 0.5);
      for (std::size_t i = 0; i < replays && !old.empty(); ++i) {
        per_conn[rng.UniformInt(conns)].push_back(
            {old[rng.UniformInt(old.size())], round - kReplayLag, false});
        ++e->replayed;
      }
    }
    recent_.push_back(std::move(intact));
    if (recent_.size() > kReplayLag) recent_.pop_front();

    std::unordered_set<uint64_t> distinct;
    for (const auto& p : surviving) {
      distinct.insert(transport::PacketIdentity(p.data(), p.size()));
    }
    for (std::size_t k = 0; k < conns; ++k) {
      std::vector<Planned>& frames = per_conn[k];
      for (std::size_t i = frames.size(); i > 1; --i) {
        std::swap(frames[i - 1], frames[rng.UniformInt(i)]);
      }
      for (Planned& f : frames) {
        if (f.broken) {
          // The last byte of the encoded frame is frame-checksum.
          breaks_.push_back({k, writers_[k]->bytes_written() +
                                    transport::EncodedFrameSize(
                                        f.payload.size()) -
                                    1});
        } else {
          ++e->frames[k];
        }
        writers_[k]->Send(transport::MakeDataFrame(kSessionId, f.round,
                                                   std::move(f.payload)));
      }
    }
    writers_[0]->Send(
        transport::MakeEndRoundFrame(kSessionId, round, distinct.size()));
    ++e->frames[0];
    *packets = std::move(surviving);
  }

  void BreakFrameChecksums() {
    for (const auto& [conn, offset] : breaks_) {
      FILE* f = std::fopen(LogPath(dir_, conn).c_str(), "r+b");
      if (f == nullptr) Die("cannot reopen a frame log");
      bool ok = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0;
      const int byte = ok ? std::fgetc(f) : EOF;
      ok = ok && byte != EOF &&
           std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0 &&
           std::fputc(byte ^ 0x5A, f) != EOF;
      if (std::fclose(f) != 0 || !ok) Die("cannot break a frame checksum");
    }
  }

  const Workload w_;
  const uint64_t seed_;
  const std::string dir_;
  const std::size_t timestamps_;
  const std::size_t threads_;
  const std::shared_ptr<DistributionSequenceDataset> stream_;
  const service::ClientFleet fleet_;
  std::vector<std::unique_ptr<transport::FrameLogWriter>> writers_;
  GeneratedWorkload g_;
  std::deque<std::vector<std::vector<uint8_t>>> recent_;
  std::vector<std::pair<std::size_t, uint64_t>> breaks_;
};

// --- pre-flight --------------------------------------------------------------

// Every connection's frame log, read into memory.
using Logs = std::vector<std::vector<uint8_t>>;

// Checks a request the session announced against the recorded round.
inline bool MatchesRecord(const GeneratedWorkload& g, const Workload& w,
                          const service::RoundRequest& request) {
  if (request.round_index >= g.rounds.size()) return false;
  const RoundEntry& e = g.rounds[request.round_index];
  const uint64_t cohort =
      request.cohort != nullptr ? request.cohort->size() : w.users;
  return e.timestamp == request.timestamp &&
         e.epsilon_bits == EpsilonBits(request.epsilon) &&
         e.cohort_size == cohort;
}

// Decodes round `round`'s recorded bytes on connection `k` with a
// FrameDecoder (the socket readers' decoder), handing each frame to `sink`.
template <typename Sink>
void DecodeRange(const GeneratedWorkload& g, const Logs& logs, uint64_t round,
                 std::size_t k, Sink&& sink) {
  const RoundEntry& e = g.rounds[round];
  transport::FrameDecoder decoder;
  decoder.Append(logs[k].data() + e.offset[k], e.length[k]);
  transport::Frame frame;
  while (decoder.Next(&frame)) sink(std::move(frame));
}

struct ReplayOutcome {
  bool digest_ok = true;
  uint64_t accepted = 0;
  uint64_t announced = 0;  // rounds announced (incl. one prefetched)
  transport::RoundBufferStats buffer;
  service::IngestStats ingest;
};

// One announce-gated in-process replay of the first `timestamps`
// timestamps: each announced round's byte ranges are decoded and delivered
// into the session stack server.h builds, on the announcing thread.
inline ReplayOutcome ReplayInProcess(const Workload& w, uint64_t seed,
                                     const GeneratedWorkload& g,
                                     const Logs& logs, std::size_t timestamps) {
  ReplayOutcome out;
  auto check = [&](const service::RoundRequest& request) {
    if (!MatchesRecord(g, w, request)) {
      Die("pre-flight: the replayed session diverged from the round table");
    }
    out.announced = std::max(out.announced, request.round_index + 1);
  };
  auto drive = [&](auto& session) {
    for (std::size_t t = 0; t < timestamps; ++t) {
      if (ReleaseHash(session.Advance().release) != g.release_hash[t]) {
        out.digest_ok = false;
      }
    }
  };
  if (!w.tree) {
    LocalSession* target = nullptr;
    LocalSession session(
        w, seed,
        [&](const service::RoundRequest& request) {
          check(request);
          for (std::size_t k : SendOrder(w.conns)) {
            DecodeRange(g, logs, request.round_index, k,
                        [&](transport::Frame&& f) {
                          target->Deliver(std::move(f));
                        });
          }
        },
        nullptr, /*listen=*/false);
    target = &session;
    drive(session);
    session.Shutdown();
    out.ingest = session.ingest_stats();
    out.buffer = session.buffer_stats();
  } else {
    TreeRoot* root = nullptr;
    std::vector<std::unique_ptr<TreeLeaf>> leaves;
    std::vector<std::unique_ptr<HandlerSender>> upstreams;
    for (std::size_t k = 0; k < w.conns; ++k) {
      leaves.push_back(std::make_unique<TreeLeaf>(w, k, nullptr, false));
      upstreams.push_back(std::make_unique<HandlerSender>(
          [&root](transport::Frame&& f) { root->Deliver(std::move(f)); }));
    }
    TreeRoot session(
        w, seed,
        [&](const service::RoundRequest& request) {
          check(request);
          for (std::size_t k = 0; k < w.conns; ++k) {
            DecodeRange(g, logs, request.round_index, k,
                        [&](transport::Frame&& f) {
                          leaves[k]->Deliver(std::move(f));
                        });
            const RoundEntry& e = g.rounds[request.round_index];
            leaves[k]->RunRound(e.round_index, e.timestamp, e.epsilon_bits,
                                *upstreams[k]);
          }
        },
        nullptr, /*listen=*/false);
    root = &session;
    drive(session);
    session.Shutdown();
    out.ingest = session.ingest_stats();
    out.buffer = session.buffer_stats();
    for (const auto& leaf : leaves) out.buffer += leaf->buffer_stats();
  }
  out.accepted = out.ingest.accepted;
  return out;
}

// The compute ceiling: the direct session (server.h) over the first
// `timestamps` timestamps, timed in chunks. Each round's surviving report
// payloads are decoded from the logs ahead of the session, outside the
// timed windows, so only folding, merging, estimation and the mechanism
// are on the clock. Returns the median over chunks of the reference's
// accepted reports per second, so a host stall during one chunk does not
// set the ceiling; exits if a release diverges.
inline double CeilingReportsPerS(const Workload& w, uint64_t seed,
                                 const GeneratedWorkload& g, const Logs& logs,
                                 std::size_t timestamps) {
  // Read by the session's ingest worker while this thread decodes ahead;
  // map nodes are stable, so a returned reference survives later inserts.
  std::mutex mu;
  std::map<uint64_t, std::vector<PayloadRef>> by_round;
  auto session = MakeDirectSession(
      w, seed, [&](uint64_t round) -> const std::vector<PayloadRef>& {
        std::lock_guard<std::mutex> lock(mu);
        return by_round.at(round);
      });
  constexpr std::size_t kChunk = 32;
  uint64_t next_round = 0;
  std::vector<double> rates;
  for (std::size_t a = 0; a < timestamps; a += kChunk) {
    const std::size_t b = std::min(timestamps, a + kChunk);
    // Through timestamp b: the session may announce one round ahead.
    for (; next_round < g.rounds.size() && g.rounds[next_round].timestamp <= b;
         ++next_round) {
      std::vector<PayloadRef> payloads;
      for (std::size_t k = 0; k < w.conns; ++k) {
        DecodeRange(g, logs, next_round, k, [&](transport::Frame&& f) {
          if (f.kind == transport::FrameKind::kData &&
              f.timestamp == next_round) {
            payloads.push_back(std::move(f.payload));
          }
        });
      }
      std::lock_guard<std::mutex> lock(mu);
      by_round.emplace(next_round, std::move(payloads));
    }
    const uint64_t t0 = NowNs();
    for (std::size_t t = a; t < b; ++t) {
      if (ReleaseHash(session->Advance().release) != g.release_hash[t]) {
        Die("pre-flight: the direct session diverged from the reference");
      }
    }
    const uint64_t busy_ns = NowNs() - t0;
    const uint64_t accepted = g.ExpectedAccepted(b) - g.ExpectedAccepted(a);
    rates.push_back(static_cast<double>(accepted) /
                    (static_cast<double>(busy_ns) / 1e9));
    std::lock_guard<std::mutex> lock(mu);
    for (auto it = by_round.begin();
         it != by_round.end() && g.rounds[it->first].timestamp < b;) {
      it = by_round.erase(it);
    }
  }
  session.reset();
  return Median(rates);
}

// Runs `gen` for one workload: generation, the pre-flight checks and the
// timed in-process replay. Returns the generation report; exits non-zero
// if any check fails.
inline Report GenerateAndCheck(const Workload& w, uint64_t seed,
                               const std::string& dir) {
  Report report;
  const std::size_t t_max = std::max(w.timestamps, w.paced_timestamps);
  const uint64_t g0 = NowNs();
  // One timestamp beyond the longest run, so a round the server announces
  // ahead of its last release is in the logs too.
  const GeneratedWorkload g = Generator(w, seed, dir, t_max + 1).Run();
  report["gen_s"] = static_cast<double>(NowNs() - g0) / 1e9;

  uint64_t broken = 0, flipped = 0, duplicated = 0, replayed = 0;
  for (const RoundEntry& e : g.rounds) {
    broken += e.broken;
    flipped += e.flipped;
    duplicated += e.duplicated;
    replayed += e.replayed;
  }

  // 1. Every log through ReplayFrameLog: the framing survives exactly as
  // generated (one checksum reject per broken frame, nothing else lost).
  const uint64_t p0 = NowNs();
  Logs logs;
  uint64_t log_bytes = 0;
  uint64_t frames_expected = 0;
  for (const RoundEntry& e : g.rounds) {
    for (std::size_t k = 0; k < w.conns; ++k) frames_expected += e.frames[k];
  }
  transport::FrameStats framing;
  for (std::size_t k = 0; k < w.conns; ++k) {
    framing += transport::ReplayFrameLog(LogPath(dir, k),
                                         [](transport::Frame&&) {});
    logs.push_back(ReadFileBytes(LogPath(dir, k)));
    log_bytes += logs.back().size();
  }
  if (framing.checksum_mismatch != broken ||
      framing.frames != frames_expected) {
    std::fprintf(stderr,
                 "pre-flight (%s): framing %s, expected %llu frames and %llu "
                 "broken\n",
                 w.name, framing.ToString().c_str(),
                 static_cast<unsigned long long>(frames_expected),
                 static_cast<unsigned long long>(broken));
    std::exit(1);
  }

  // 2. Announce-gated replay through the serving stack: reference digest,
  // reference acceptance, and the damage mix's drop counts.
  const ReplayOutcome check = ReplayInProcess(w, seed, g, logs, t_max);
  uint64_t replayed_announced = 0, duplicated_announced = 0;
  uint64_t flipped_consumed = 0;
  for (const RoundEntry& e : g.rounds) {
    if (e.round_index < check.announced) {
      replayed_announced += e.replayed;
      duplicated_announced += e.duplicated;
    }
    if (e.timestamp < t_max) flipped_consumed += e.flipped;
  }
  const bool counts_ok =
      check.buffer.closed_round_drops == replayed_announced &&
      check.buffer.duplicate_frames == duplicated_announced &&
      check.ingest.malformed == flipped_consumed &&
      check.buffer.deadline_flushes == 0;
  if (!check.digest_ok || check.accepted != g.ExpectedAccepted(t_max) ||
      !counts_ok) {
    std::fprintf(stderr,
                 "pre-flight (%s): digest %s, accepted %llu of %llu, "
                 "buffer %s, ingest %s\n",
                 w.name, check.digest_ok ? "ok" : "MISMATCH",
                 static_cast<unsigned long long>(check.accepted),
                 static_cast<unsigned long long>(g.ExpectedAccepted(t_max)),
                 check.buffer.ToString().c_str(),
                 check.ingest.ToString().c_str());
    std::exit(1);
  }

  // 3. The compute ceiling over the `sat` length.
  report["inproc_reports_per_s"] =
      CeilingReportsPerS(w, seed, g, logs, w.timestamps);
  report["preflight_s"] = static_cast<double>(NowNs() - p0) / 1e9;

  const double ts = static_cast<double>(g.release_hash.size());
  report["gen_timestamps"] = ts;
  report["gen_rounds"] = static_cast<double>(g.rounds.size());
  report["log_bytes"] = static_cast<double>(log_bytes);
  report["reports_per_ts"] =
      static_cast<double>(g.ExpectedAccepted(g.release_hash.size())) / ts;
  report["bytes_per_ts"] = static_cast<double>(log_bytes) / ts;
  report["broken_frames"] = static_cast<double>(broken);
  report["flipped_reports"] = static_cast<double>(flipped);
  report["duplicated_frames"] = static_cast<double>(duplicated);
  report["replayed_frames"] = static_cast<double>(replayed);
  return report;
}

}  // namespace ldpids::bench_serve

#endif  // LDPIDS_BENCH_SERVE_GEN_H_
