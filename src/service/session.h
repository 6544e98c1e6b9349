// Incremental mechanism sessions: a StreamMechanism driven one timestamp
// at a time by externally supplied wire reports instead of simulating its
// own cohort.
//
// Per timestamp, the mechanism's DoStep performs up to two FO collection
// rounds (dissimilarity estimate, then publication) whose budgets and
// cohorts are decided mid-step from noisy state — so the rounds cannot be
// precomputed. The session inverts control: each time the mechanism asks
// its CollectorContext for a round, the session opens a sharded
// `ReportRouter`, hands a `RoundRequest` to the caller's transport (which
// makes the cohort's packets arrive — a simulated client fleet, a network
// stub, a replay log), then closes the round and feeds the merged estimate
// back to the mechanism. The server side only ever sees perturbed wire
// bytes, which is the deployment model the paper assumes.
//
// Pipelined mode (SessionOptions::pipeline_depth > 1) splits each round at
// the announce/ingest vs estimate/post-process seam: rounds a mechanism
// pre-declares via CollectorContext::PlanNextCollect are announced on the
// session thread immediately and folded on a dedicated ingest worker, so
// round t+1's client production, network transit and IngestShard folding
// run concurrently with round t's EstimateInto and the mechanism's
// post-processing. Rounds are consumed strictly in round_index order and
// the partition/merge is order-invariant, so releases are bit-identical
// to the serial path at every depth.
#ifndef LDPIDS_SERVICE_SESSION_H_
#define LDPIDS_SERVICE_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "fo/frequency_oracle.h"
#include "fo/sketch_wire.h"
#include "fo/wire.h"
#include "obs/stage_trace.h"
#include "service/ingest.h"

namespace ldpids::obs {
class MetricsRegistry;
class Counter;
class FlightRecorder;
template <typename Stats>
class StatsFeed;
}  // namespace ldpids::obs

namespace ldpids::transport {
class RoundBuffer;  // transport/round_buffer.h
}  // namespace ldpids::transport

namespace ldpids::service {

class AggregatorNode;  // service/aggregator.h

// One FO collection round the mechanism asked for. Handed to the
// transport, which must deliver the cohort's reports into the router.
struct RoundRequest {
  std::size_t timestamp = 0;
  double epsilon = 0.0;        // per-user budget of this round
  std::size_t domain = 0;
  OracleId oracle = OracleId::kGrr;
  // nullptr: the whole population reports (budget division). Otherwise
  // exactly the listed users (population division). Only valid during the
  // transport call.
  const std::vector<uint32_t>* cohort = nullptr;
  // Rounds issued by this session so far; unique per round, so transports
  // can derive per-round randomness statelessly.
  uint64_t round_index = 0;
};

// Delivers one round's packets into the router (synchronously; typically
// via ReportRouter::IngestBatch). Runs inside Advance() — or, when the
// session is pipelined, on the session's ingest worker thread.
using RoundTransport = std::function<void(const RoundRequest&,
                                          ReportRouter&)>;

// Announces one round to the clients (the control plane: push the round
// descriptor so the cohort reports). Fired on the session thread the
// moment the round is opened — for a pipelined session that is while the
// *previous* round is still folding on the ingest worker, which is where
// the overlap comes from: announce early, let production/transit/ingest
// of round r+1 run under round r's estimation.
using RoundAnnounce = std::function<void(const RoundRequest&)>;

// A round transport split at the announce/ingest seam, for pipelining.
// `announce` (optional) fires on the session thread at announcement time
// and must return quickly — posting a descriptor, not producing packets;
// `ingest` runs on the ingest stage (the worker thread when pipelined)
// and delivers the round's packets into the router, typically by blocking
// in RoundBuffer::TakeRound and folding via ReportRouter::IngestBatch
// (see MakeBufferedSplitTransport). The two halves of *different* rounds
// run concurrently in a pipelined session, so they must not share
// unsynchronized mutable state.
struct SplitRoundTransport {
  RoundAnnounce announce;
  RoundTransport ingest;
};

// A RoundTransport backed by a transport::RoundBuffer: on each round it
// (1) announces the request (in tests and demos, where the simulated fleet
// produces and transmits the round's packets over the data plane), (2)
// blocks in TakeRound for the round's packets (out-of-order, late and
// duplicate delivery already absorbed), and (3) feeds them to the sharded
// ingest. With this, a MechanismSession runs over any byte transport that
// can deliver frames into the buffer. `announce` may be null.
RoundTransport MakeBufferedTransport(transport::RoundBuffer& buffer,
                                     RoundAnnounce announce,
                                     std::size_t num_threads);

// The same transport split at the announce/ingest seam for pipelined
// sessions (SessionOptions::pipeline_depth > 1): `announce` fires on the
// session thread the moment a round is opened — including a pre-announced
// planned round — while the TakeRound + IngestBatch half runs on the
// session's ingest worker. With this, round t+1's packets are produced,
// transmitted and folded while round t is still estimating. The announce
// callback may run concurrently with the ingest half of an *earlier*
// round, so it must not share unsynchronized state with it (delivering
// into the RoundBuffer is always safe; the buffer locks internally).
SplitRoundTransport MakeBufferedSplitTransport(transport::RoundBuffer& buffer,
                                               RoundAnnounce announce,
                                               std::size_t num_threads);

// Everything the ingest/estimate seam hands across for one round: the
// round's resolved sketch plus acceptance accounting and the stage events
// of the ingest half. Produced by a RoundSource — an AggregatorNode's
// local sharded ingestion, or a RootSession's partial-sketch merge — and
// consumed strictly on the session thread (stats accumulation, event
// emission, EstimateInto).
struct RoundOutcome {
  std::unique_ptr<FoSketch> sketch;
  IngestStats stats;
  ArenaDecodeStats decode_stats;   // wire-level reject accounting
  // Root-merge sessions only: this round's partial-sketch merge verdicts
  // (merged/malformed/params_mismatch/duplicate_node/missing, see
  // fo/sketch_wire.h). Zero-valued for local-ingest sources.
  SketchMergeStats sketch_merges;
  // One event per stage the source ran, in pipeline order (empty when the
  // round was not timed). The session emits them when it claims the round.
  std::vector<obs::StageEvent> events;
};

// The generalized ingest half of one round: fills `*out` with the round's
// sketch and accounting (never leaving *out partially filled on throw —
// the session discards it wholesale). `timed` asks for stage events; the
// source may skip `events` and `decode_stats` when it is false. Runs
// inside Advance() — or, when the session is pipelined, on the session's
// ingest worker thread, so a source must not share unsynchronized mutable
// state with the announce half of other rounds.
using RoundSource =
    std::function<void(const RoundRequest&, bool timed, RoundOutcome*)>;

struct SessionOptions {
  // Ingestion shards per round; 0 = adaptive (one per hardware thread,
  // resolved by ReportRouter).
  std::size_t num_shards = 1;
  std::size_t num_threads = 1;  // pool lanes for sharded ingestion
  // Maximum FO rounds in flight (announced but not yet consumed by the
  // mechanism). 1 = the serial path: each round is announced, ingested
  // and estimated synchronously inside Advance(). >= 2 enables the
  // pipelined path: rounds a mechanism pre-declares via
  // CollectorContext::PlanNextCollect are announced immediately and
  // ingested on a dedicated worker thread, overlapping the current
  // round's EstimateInto and the mechanism's post-processing. Releases
  // are bit-identical at every depth — pipelining reorders work, never
  // packets (ingest is order/shard invariant and rounds are claimed
  // strictly in round_index order). With the current mechanisms at most
  // one round ahead is ever plannable (the next publication is decided
  // mid-step from noisy state), so depths beyond 2 behave like 2.
  std::size_t pipeline_depth = 1;
  // Observability (optional). When non-null the session registers its
  // per-stage latency histograms (obs/stage_trace.h), round/advance
  // counters, and the canonical ingest/arena stats metrics here, labeled
  // {session=metrics_label} (unlabeled when the label is empty).
  // Instrumentation is write-only — it never changes what the session
  // ingests or releases, so results stay bit-identical with metrics on.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_label;
  // Flight recorder (optional, independent of `metrics`). When non-null
  // the session registers one track named `metrics_label` (or "session")
  // and records each stage event the histograms observe (one StageSink
  // feeds both) — absolute wall windows, so a pipelined session's round
  // overlap is visible in the Chrome-trace export. Same write-only
  // contract as `metrics`: releases stay bit-identical with the recorder
  // attached.
  obs::FlightRecorder* recorder = nullptr;
};

// Owns one mechanism and advances it timestamp by timestamp over wire
// ingestion. Not thread-safe itself; distinct sessions are independent,
// so many can advance concurrently on different threads.
class MechanismSession {
 public:
  // `mechanism` must be non-null; `domain` is the stream's |Omega| (the
  // mechanism latches it on the first step). The FO and oracle id derive
  // from the mechanism's config.
  MechanismSession(std::unique_ptr<StreamMechanism> mechanism,
                   std::size_t domain, SessionOptions options,
                   RoundTransport transport);

  // Split-transport form: required to get real overlap out of
  // pipeline_depth > 1 (an opaque RoundTransport still pipelines, but its
  // announce half is then serialized behind the previous round's fold on
  // the worker).
  MechanismSession(std::unique_ptr<StreamMechanism> mechanism,
                   std::size_t domain, SessionOptions options,
                   SplitRoundTransport transport);

  // Source form: the round's sketch comes from an arbitrary RoundSource
  // instead of local sharded ingestion — this is how a RootSession swaps
  // the ingest half for a partial-sketch merge while the estimate /
  // post-process / mechanism side runs untouched. The session assumes the
  // source merges partial sketches and also publishes
  // sketch_merge_stats() as metrics.
  MechanismSession(std::unique_ptr<StreamMechanism> mechanism,
                   std::size_t domain, SessionOptions options,
                   RoundAnnounce announce, RoundSource source);

  // Joins the ingest worker first: every round announced by this session
  // — including a prefetched round the mechanism never consumed — is
  // ingested (and, if unconsumed, discarded) before destruction returns,
  // so no announced round's frames are left pinned in a RoundBuffer.
  ~MechanismSession();

  // Processes the next timestamp: runs the mechanism's step logic, calling
  // the transport once per FO round it performs. Returns the release r_t.
  //
  // Failure semantics: if a round ends with zero accepted reports (an
  // estimate from nobody is meaningless) or the transport throws, the
  // exception propagates AND the session is permanently failed — the
  // mechanism's w-event budget/population accounting was interrupted
  // mid-step and cannot be rolled back, so replaying or skipping the
  // timestamp would void the privacy invariant. Every later Advance()
  // throws std::logic_error immediately (see failed()); the caller's
  // recovery unit is the session, not the round.
  //
  // Round-index contract on failure: a round's index is consumed when the
  // round is announced (clients derive per-round randomness from it), so
  // a round whose transport then fails has "burned" its index — rounds()
  // counts it, and it is never reissued (the session is dead; a retry
  // under the same index could double-count users). Frames already
  // buffered for a burned index live in the caller's RoundBuffer and die
  // with it: discard the buffer together with the failed session. The
  // pipelined path additionally guarantees that every *announced* round
  // is drained from the buffer (see ~MechanismSession), and that a
  // pending plan is never announced after a failure.
  StepResult Advance();

  // True once an Advance() failed; the session refuses further work.
  bool failed() const { return failed_; }

  const StreamMechanism& mechanism() const { return *mechanism_; }
  std::size_t domain() const;
  // Timestamp the next Advance() will process.
  std::size_t next_timestamp() const { return next_t_; }
  // Round indexes consumed so far: every announced round, including one
  // whose transport later failed (see Advance) and — when pipelined — a
  // prefetched round the mechanism has not consumed yet.
  uint64_t rounds() const { return rounds_; }
  // Acceptance accounting accumulated over every round the mechanism has
  // consumed, in round order (a prefetched round counts once claimed).
  const IngestStats& stats() const { return stats_; }
  // Partial-sketch merge accounting, accumulated like stats(). All-zero
  // unless this session was built on a merge RoundSource.
  const SketchMergeStats& sketch_merge_stats() const {
    return sketch_merges_;
  }

 private:
  class WireCollector;  // CollectorContext over a RoundSource

  // Common init: validates, wires observability, builds the collector.
  // The public ctors delegate here and then install source_ (and, for
  // transport-built sessions, aggregator_) — no round can be in flight
  // before the first Advance(), so the late install is unobservable.
  // `merge_source` registers the partial-sketch merge metrics.
  MechanismSession(std::unique_ptr<StreamMechanism> mechanism,
                   std::size_t domain, SessionOptions options,
                   RoundAnnounce announce, bool merge_source);

  std::unique_ptr<StreamMechanism> mechanism_;
  SessionOptions options_;
  // Every stage event of this session goes here: the stage histograms
  // (SessionOptions::metrics) and the recorder track
  // (SessionOptions::recorder); inert when both are null. Events are
  // emitted on the session thread only (the ingest worker hands its
  // events back through the RoundJob done-handshake); the worker touches
  // only the thread-safe in-flight marks. Declared before collector_, so
  // the worker never outlives it.
  obs::StageSink sink_;
  std::unique_ptr<WireCollector> collector_;
  // Transport-built sessions own the node that runs their local sharded
  // ingestion; source-built sessions have none.
  std::unique_ptr<AggregatorNode> aggregator_;
  RoundAnnounce announce_;  // may be null (opaque-transport sessions)
  RoundSource source_;
  std::size_t next_t_ = 0;
  uint64_t rounds_ = 0;
  bool failed_ = false;
  IngestStats stats_;
  SketchMergeStats sketch_merges_;

  // Metric feeds (all null when SessionOptions::metrics is; the sketch
  // merge feed exists only for source-built sessions). Published on the
  // session thread at claim time, so they need no locking of their own.
  std::unique_ptr<obs::StatsFeed<IngestStats>> ingest_feed_;
  std::unique_ptr<obs::StatsFeed<ArenaDecodeStats>> arena_feed_;
  std::unique_ptr<obs::StatsFeed<SketchMergeStats>> sketch_merge_feed_;
  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* advances_counter_ = nullptr;
};

}  // namespace ldpids::service

#endif  // LDPIDS_SERVICE_SESSION_H_
