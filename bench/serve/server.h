// Every session and transport the benchmark builds, in one place.
//
// This is the only file that couples the harness to src/: the server
// process, the aggregator processes, gen's reference and gen's in-process
// pre-flight replay all construct their serving stack here, with one fixed
// configuration. Sessions are built through the library's own constructors
// (a SplitRoundTransport session, a RootSession), and the classes are the
// benchmark's wrappers around the public calls into each layer —
// RoundBuffer::Deliver / TakeRound (transport), ReportRouter::IngestBatch
// (service, fo), AggregatorNode::RunRoundUpstream (aggregator) and
// MechanismSession::Advance / RootSession::Advance (core). With a Tracer
// attached they record a span around each call; without one they add
// nothing but the call.
#ifndef LDPIDS_BENCH_SERVE_SERVER_H_
#define LDPIDS_BENCH_SERVE_SERVER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/factory.h"
#include "core/mechanism.h"
#include "fo/frequency_oracle.h"
#include "fo/wire.h"
#include "service/aggregator.h"
#include "service/ingest.h"
#include "service/session.h"
#include "trace.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "transport/socket.h"
#include "workloads.h"

namespace ldpids::bench_serve {

// Shared server configuration: identical for every workload, so workloads
// differ only in their traffic.
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kIngestThreads = 2;
inline constexpr std::size_t kPipelineDepth = 2;
inline constexpr std::size_t kLeafShards = 1;  // tree-hr aggregators
inline constexpr std::size_t kLeafThreads = 1;
inline constexpr double kEpsilon = 1.0;
inline constexpr uint64_t kSessionId = 0x5E7E;
// A round that is not complete by then is flushed partial — a failed run.
inline constexpr std::chrono::milliseconds kRoundDeadline{5000};

inline std::unique_ptr<StreamMechanism> MakeMechanism(const Workload& w,
                                                      uint64_t seed) {
  MechanismConfig config;
  config.epsilon = kEpsilon;
  config.window = w.window;
  config.fo = w.fo;
  config.seed = seed;
  return CreateMechanism(w.mechanism, config, w.users);
}

// gen's reference: the mechanism over an in-process transport that
// delivers each round's packets straight into the router (serial path —
// releases are identical at every pipeline depth).
inline std::unique_ptr<service::MechanismSession> MakeReferenceSession(
    const Workload& w, uint64_t seed, service::RoundTransport transport) {
  return std::make_unique<service::MechanismSession>(
      MakeMechanism(w, seed), w.domain, service::SessionOptions{},
      std::move(transport));
}

// The compute ceiling: the server's session configuration with each
// round's payloads handed straight to the router — no sockets, no frame
// decode, no RoundBuffer. `payloads(round)` must stay valid until the
// round is consumed.
using PayloadsOf = std::function<const std::vector<PayloadRef>&(uint64_t)>;
inline std::unique_ptr<service::MechanismSession> MakeDirectSession(
    const Workload& w, uint64_t seed, PayloadsOf payloads) {
  service::SessionOptions options;
  options.num_shards = kShards;
  options.num_threads = kIngestThreads;
  options.pipeline_depth = kPipelineDepth;
  service::SplitRoundTransport split;
  split.ingest = [payloads = std::move(payloads)](
                     const service::RoundRequest& request,
                     service::ReportRouter& router) {
    router.IngestBatch(payloads(request.round_index), kIngestThreads);
  };
  return std::make_unique<service::MechanismSession>(
      MakeMechanism(w, seed), w.domain, options, std::move(split));
}

inline transport::RoundBufferOptions BufferOptions() {
  transport::RoundBufferOptions options;
  options.round_deadline = kRoundDeadline;
  return options;
}

// Delivers one frame into `buffer`, timed when `tracer` is set.
inline void TracedDeliver(transport::RoundBuffer& buffer, Tracer* tracer,
                          transport::Frame&& frame) {
  if (tracer == nullptr) {
    buffer.Deliver(std::move(frame));
    return;
  }
  const uint64_t round = frame.timestamp;
  const bool marker = frame.kind == transport::FrameKind::kEndRound;
  const uint64_t t0 = NowNs();
  buffer.Deliver(std::move(frame));
  const uint64_t t1 = NowNs();
  tracer->OnDeliver(round, marker, t0, t1 - t0);
}

// Router stage totals of a traced run (ReportRouter::stage_nanos). Written
// by the ingest thread only, read after the run.
struct StageTotals {
  uint64_t arena_decode_ns = 0;
  uint64_t shard_fold_ns = 0;
  uint64_t reports = 0;  // packets handed to the router
  uint64_t last_ingest_end_ns = 0;
};

// Drains one round from `buffer` and folds it into `router` — the ingest
// half every local session and aggregator runs.
inline void TracedIngest(transport::RoundBuffer& buffer, Tracer* tracer,
                         StageTotals* totals, std::size_t threads,
                         const service::RoundRequest& request,
                         service::ReportRouter& router) {
  if (tracer == nullptr) {
    router.IngestBatch(buffer.TakeRound(request.round_index), threads);
    return;
  }
  router.EnableStageTiming();
  const uint64_t t0 = NowNs();
  const std::vector<PayloadRef> packets = buffer.TakeRound(request.round_index);
  const uint64_t t1 = NowNs();
  router.IngestBatch(packets, threads);
  const uint64_t t2 = NowNs();
  tracer->AddSpan("transport.take_round", t0, t1, request.round_index);
  tracer->AddSpan("service.ingest_batch", t1, t2, request.round_index);
  totals->arena_decode_ns += router.stage_nanos().arena_decode;
  totals->shard_fold_ns += router.stage_nanos().shard_fold;
  totals->reports += packets.size();
  totals->last_ingest_end_ns = t2;
}

inline std::unique_ptr<transport::SocketListener> MaybeListen(
    bool listen, transport::FrameHandler handler) {
  if (!listen) return nullptr;
  return std::make_unique<transport::SocketListener>(0, std::move(handler));
}

// Waits (bounded) until every accepted connection has closed, so the
// listener's decode stats are complete, then stops it.
inline transport::FrameStats StopListener(transport::SocketListener& listener,
                                          std::size_t conns) {
  const uint64_t give_up = NowNs() + 2000000000ull;
  while (listener.connection_stats().size() < conns && NowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  listener.Stop();
  return listener.stats();
}

// One mechanism session fed by report frames: [SocketListener ->]
// RoundBuffer -> MechanismSession over a SplitRoundTransport, built the way
// a live service builds it. With `listen` false the frames come in through
// Deliver (pre-flight replay).
class LocalSession {
 public:
  LocalSession(const Workload& w, uint64_t seed,
               service::RoundAnnounce announce, Tracer* tracer, bool listen)
      : tracer_(tracer),
        buffer_(BufferOptions()),
        listener_(MaybeListen(listen, [this](transport::Frame&& f) {
          Deliver(std::move(f));
        })) {
    service::SessionOptions options;
    options.num_shards = kShards;
    options.num_threads = kIngestThreads;
    options.pipeline_depth = kPipelineDepth;
    service::RoundTransport ingest = [this](const service::RoundRequest& r,
                                            service::ReportRouter& router) {
      TracedIngest(buffer_, tracer_, &stages_, kIngestThreads, r, router);
    };
    if (tracer_ == nullptr) {
      session_ = std::make_unique<service::MechanismSession>(
          MakeMechanism(w, seed), w.domain, options,
          service::SplitRoundTransport{std::move(announce), std::move(ingest)});
      return;
    }
    // Traced runs only. The library times a round's shard merge (the
    // router's Close, after the ingest callback returns) only for sessions
    // with a metrics registry or a flight recorder, and the benchmark keeps
    // both off. So a traced session runs the same AggregatorNode round the
    // SplitRoundTransport form runs, through the source constructor, and
    // spans the part after the ingest callback as `service.merge`. With no
    // metrics attached, the source form differs from the transport form
    // only in adding the (empty) partial-sketch merge stats of each round.
    service::AggregatorOptions node_options;
    node_options.num_shards = kShards;
    node_ = std::make_unique<service::AggregatorNode>(
        GetFrequencyOracle(w.fo), OracleIdFromName(w.fo), w.domain,
        node_options);
    session_ = std::make_unique<service::MechanismSession>(
        MakeMechanism(w, seed), w.domain, options, std::move(announce),
        [this, ingest = std::move(ingest)](const service::RoundRequest& r,
                                           bool, service::RoundOutcome* out) {
          const uint64_t t0 = NowNs();
          node_->ExecuteRound(r, ingest, /*timed=*/false, out);
          const uint64_t t1 = NowNs();
          tracer_->AddSpan("service.execute_round", t0, t1, r.round_index);
          tracer_->AddSpan("service.merge", stages_.last_ingest_end_ns, t1,
                           r.round_index);
        });
  }

  LocalSession(const LocalSession&) = delete;
  LocalSession& operator=(const LocalSession&) = delete;

  uint16_t port() const { return listener_->port(); }
  uint64_t connections() const { return listener_->connections(); }

  void Deliver(transport::Frame&& frame) {
    TracedDeliver(buffer_, tracer_, std::move(frame));
  }

  StepResult Advance() {
    if (tracer_ == nullptr) return session_->Advance();
    const uint64_t t = session_->next_timestamp();
    const uint64_t t0 = NowNs();
    StepResult result = session_->Advance();
    tracer_->AddSpan("core.advance", t0, NowNs(), t);
    return result;
  }

  // Destroys the session, which first drains the round it may have
  // announced ahead; its frames must still be able to arrive.
  void Shutdown() {
    ingest_stats_ = session_->stats();
    session_.reset();
  }

  transport::FrameStats StopListening(std::size_t conns) {
    return StopListener(*listener_, conns);
  }

  const service::IngestStats& ingest_stats() const { return ingest_stats_; }
  transport::RoundBufferStats buffer_stats() const { return buffer_.stats(); }
  const StageTotals& stages() const { return stages_; }

 private:
  Tracer* const tracer_;
  transport::RoundBuffer buffer_;
  // Declared before session_: destroyed after it, so the prefetched round
  // the session drains on destruction can still arrive.
  std::unique_ptr<transport::SocketListener> listener_;
  std::unique_ptr<service::AggregatorNode> node_;  // traced runs only
  std::unique_ptr<service::MechanismSession> session_;
  service::IngestStats ingest_stats_;
  StageTotals stages_;  // written by the ingest worker, read after Shutdown
};

// Upstream of an in-process tree leaf: hands each frame to a handler.
class HandlerSender : public transport::FrameSender {
 public:
  explicit HandlerSender(transport::FrameHandler handler)
      : handler_(std::move(handler)) {}
  void Send(const transport::Frame& frame) override {
    transport::Frame copy = frame;
    handler_(std::move(copy));
  }

 private:
  transport::FrameHandler handler_;
};

inline std::unique_ptr<transport::SocketClient> ConnectUpstream(uint16_t port) {
  return std::make_unique<transport::SocketClient>(port);
}

// One aggregator of the tree-hr merge tree: [SocketListener ->]
// RoundBuffer -> AggregatorNode -> partial sketch frame -> upstream.
class TreeLeaf {
 public:
  TreeLeaf(const Workload& w, std::size_t node, Tracer* tracer, bool listen)
      : w_(w),
        tracer_(tracer),
        buffer_(BufferOptions()),
        node_(GetFrequencyOracle(w.fo), OracleIdFromName(w.fo), w.domain,
              NodeOptions(node)),
        listener_(MaybeListen(listen, [this](transport::Frame&& f) {
          Deliver(std::move(f));
        })) {}

  TreeLeaf(const TreeLeaf&) = delete;
  TreeLeaf& operator=(const TreeLeaf&) = delete;

  uint16_t port() const { return listener_->port(); }
  uint64_t connections() const { return listener_->connections(); }

  void Deliver(transport::Frame&& frame) {
    TracedDeliver(buffer_, tracer_, std::move(frame));
  }

  // Runs one announced round and ships its partial sketch upstream.
  void RunRound(uint64_t round_index, uint64_t timestamp,
                uint64_t epsilon_bits, transport::FrameSender& upstream) {
    service::RoundRequest request;
    request.round_index = round_index;
    request.timestamp = static_cast<std::size_t>(timestamp);
    request.epsilon = EpsilonFromBits(epsilon_bits);
    request.domain = w_.domain;
    request.oracle = node_.oracle();
    const service::RoundTransport ingest =
        [this](const service::RoundRequest& r, service::ReportRouter& router) {
          TracedIngest(buffer_, tracer_, &stages_, kLeafThreads, r, router);
        };
    if (tracer_ == nullptr) {
      node_.RunRoundUpstream(request, ingest, upstream, kSessionId);
      return;
    }
    const uint64_t t0 = NowNs();
    node_.RunRoundUpstream(request, ingest, upstream, kSessionId);
    const uint64_t t1 = NowNs();
    tracer_->AddSpan("aggregator.round", t0, t1, round_index);
    // After the fold: shard merge, partial encode and the upstream send.
    tracer_->AddSpan("service.merge", stages_.last_ingest_end_ns, t1,
                     round_index);
  }

  transport::FrameStats StopListening() { return StopListener(*listener_, 1); }
  const service::IngestStats& ingest_stats() const { return node_.stats(); }
  uint64_t rounds() const { return node_.rounds(); }
  transport::RoundBufferStats buffer_stats() const { return buffer_.stats(); }
  const StageTotals& stages() const { return stages_; }

 private:
  static service::AggregatorOptions NodeOptions(std::size_t node) {
    service::AggregatorOptions options;
    options.num_shards = kLeafShards;
    options.node_id = 1 + node;
    return options;
  }

  const Workload w_;
  Tracer* const tracer_;
  transport::RoundBuffer buffer_;
  service::AggregatorNode node_;
  std::unique_ptr<transport::SocketListener> listener_;
  StageTotals stages_;
};

// Which aggregator a user reports to in tree-hr.
inline service::UserAssignment TreeAssignment(const Workload& w) {
  return service::UserAssignment(w.conns, w.users, service::AssignMode::kRange);
}

// The tree-hr root: [SocketListener ->] RoundBuffer of partial sketches ->
// RootSession (merge, estimate, mechanism).
class TreeRoot {
 public:
  TreeRoot(const Workload& w, uint64_t seed, service::RoundAnnounce announce,
           Tracer* tracer, bool listen)
      : tracer_(tracer),
        buffer_(BufferOptions()),
        listener_(MaybeListen(listen, [this](transport::Frame&& f) {
          Deliver(std::move(f));
        })) {
    service::SessionOptions options;
    options.pipeline_depth = kPipelineDepth;
    root_ = std::make_unique<service::RootSession>(
        MakeMechanism(w, seed), w.domain, options, w.conns, kSessionId,
        buffer_, std::move(announce));
  }

  TreeRoot(const TreeRoot&) = delete;
  TreeRoot& operator=(const TreeRoot&) = delete;

  uint16_t port() const { return listener_->port(); }
  uint64_t connections() const { return listener_->connections(); }

  void Deliver(transport::Frame&& frame) {
    TracedDeliver(buffer_, tracer_, std::move(frame));
  }

  StepResult Advance() {
    if (tracer_ == nullptr) return root_->Advance();
    const uint64_t t = root_->session().next_timestamp();
    const uint64_t t0 = NowNs();
    StepResult result = root_->Advance();
    tracer_->AddSpan("core.advance", t0, NowNs(), t);
    return result;
  }

  void Shutdown() {
    ingest_stats_ = root_->session().stats();
    merge_stats_ = root_->merge_stats();
    root_.reset();
  }

  transport::FrameStats StopListening(std::size_t conns) {
    return StopListener(*listener_, conns);
  }

  // accepted == users folded across the merged partials.
  const service::IngestStats& ingest_stats() const { return ingest_stats_; }
  const SketchMergeStats& merge_stats() const { return merge_stats_; }
  transport::RoundBufferStats buffer_stats() const { return buffer_.stats(); }
  StageTotals stages() const { return {}; }  // the root folds no reports

 private:
  Tracer* const tracer_;
  transport::RoundBuffer buffer_;
  std::unique_ptr<transport::SocketListener> listener_;
  std::unique_ptr<service::RootSession> root_;
  service::IngestStats ingest_stats_;
  SketchMergeStats merge_stats_;
};

}  // namespace ldpids::bench_serve

#endif  // LDPIDS_BENCH_SERVE_SERVER_H_
