// Out-of-order round reassembly between a transport and the sharded
// ingest.
//
// PR 3's serving layer assumed a polite network: a round's packets arrive
// exactly while that round is open, in order, once. Real networks deliver
// early (the next round's reports while this one is still estimating),
// late (stragglers after the round moved on), duplicated (retries) and
// shuffled. The RoundBuffer absorbs all of that: transports push frames in
// whatever order they arrive, the buffer queues them per round behind a
// watermark policy, and the session side drains exactly one round's
// packets when the mechanism opens that round.
//
// Keying: frames are keyed by Frame::timestamp, which the serving
// integration sets to the session's *round index* (RoundRequest::
// round_index) — a mechanism may run two FO rounds at one mechanism
// timestamp, so the round index is the unit of reassembly. Rounds are
// drained strictly in order.
//
// Completion: the sender finishes a round with an end-of-round marker
// carrying the number of *distinct* packets it transmitted for the round
// (SendRoundFrames computes that count itself via PacketIdentity). The
// round is complete when the marker has been seen and that many distinct
// packets have arrived — in any order; "late" packets that arrive after
// the marker still count. Distinctness matters: completion used to count
// raw arrivals, so a frame duplicated in flight could mask a lost frame —
// the round was released as "complete" while silently missing a real
// packet (the duplicate was only rejected later by the ingest nonce
// check). Duplicates are still buffered (the ingest edge owns per-round
// duplicate accounting) but no longer advance completion; they are counted
// in `duplicate_frames`, and a deadline flush whose raw arrivals reached
// the marker's count while distinct ones did not is counted in
// `masked_losses` — the exact case the old accounting released silently.
// If the deadline passes first, the round is flushed with whatever arrived
// (the session decides whether a partial — possibly empty — round is
// fatal) and a deadline flush is counted.
//
// Watermark policy, applied at admission (per-reason drop stats):
//   * a frame for an already-drained round is dropped (kClosedRound);
//   * a frame more than `max_lateness` rounds behind the newest round
//     ever seen is dropped (kTooLate) even if its round has not drained —
//     a straggler that far behind live traffic is noise or replay;
//   * a frame more than `max_buffered_rounds` ahead of the next round to
//     drain is dropped (kTooEarly) — bounds memory against a runaway or
//     hostile sender. Batch-file replays that deliver a whole recording
//     up front size this knob to the recording (or disable with a large
//     value).
// The admission checks run before any per-round state is touched and apply
// to end-of-round markers exactly as to data frames: a marker for an
// already-drained round is a kClosedRound drop and a marker outside the
// admission window is a kTooLate/kTooEarly drop — never a fresh
// PendingRound that could pin memory for a round that will never drain
// (regression-tested via pending_rounds()).
//
// Thread model: Deliver/EndRound are called from transport threads (the
// socket listener's loop, log replayers, tests); TakeRound blocks the
// session side on a condition variable. All state is behind one mutex; the
// hot work (decode, sketch folding) happens outside the buffer.
#ifndef LDPIDS_TRANSPORT_ROUND_BUFFER_H_
#define LDPIDS_TRANSPORT_ROUND_BUFFER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/session.h"
#include "transport/frame.h"
#include "util/stat_table.h"
#include "util/u64_set.h"

namespace ldpids::obs {
class Gauge;
class MetricsRegistry;
template <typename Stats>
class StatsFeed;
}  // namespace ldpids::obs

namespace ldpids::transport {

struct RoundBufferOptions {
  // Admission window behind the newest round seen, in rounds.
  uint64_t max_lateness = 4;
  // Admission window ahead of the next round to drain, in rounds.
  uint64_t max_buffered_rounds = 1024;
  // How long TakeRound waits for a round to complete before flushing
  // partial.
  std::chrono::milliseconds round_deadline{10000};
};

enum class DeliverResult : uint8_t {
  kBuffered = 0,
  kEndMarker,    // control frame, recorded (repeats are counted, harmless)
  kClosedRound,  // round already drained
  kTooLate,      // beyond max_lateness behind the newest round seen
  kTooEarly,     // beyond max_buffered_rounds ahead of the next round
};

// Admission outcomes: each delivered frame lands in exactly one of
// buffered / end_markers / the three drops, so total() counts every
// Deliver call. Buffered frames leave through TakeRound (packets_drained);
// duplicate_frames is a subset of buffered and masked_losses of
// deadline_flushes.
struct RoundBufferStats : util::StatTable<RoundBufferStats> {
  uint64_t buffered = 0;          // data frames queued
  uint64_t end_markers = 0;       // markers seen (including repeats)
  uint64_t closed_round_drops = 0;
  uint64_t too_late_drops = 0;
  uint64_t too_early_drops = 0;
  uint64_t rounds_drained = 0;
  uint64_t packets_drained = 0;
  uint64_t deadline_flushes = 0;  // rounds flushed incomplete
  // Buffered data frames whose identity (PacketIdentity) was already seen
  // in their round: re-deliveries that must not advance completion.
  uint64_t duplicate_frames = 0;
  // Deadline flushes where raw arrivals had reached the marker's count but
  // distinct ones had not — a duplicate masking a genuine loss, which the
  // pre-distinct accounting would have released as "complete".
  uint64_t masked_losses = 0;

  static constexpr util::StatRow<RoundBufferStats> kRows[] = {
      {&RoundBufferStats::buffered, "buffered",
       "ldpids_roundbuf_buffered_total", nullptr, util::StatKind::kPass},
      {&RoundBufferStats::end_markers, "end_markers",
       "ldpids_roundbuf_end_markers_total", nullptr, util::StatKind::kPass},
      {&RoundBufferStats::closed_round_drops, "closed_round",
       "ldpids_roundbuf_drops_total", "reason", util::StatKind::kDrop},
      {&RoundBufferStats::too_late_drops, "too_late",
       "ldpids_roundbuf_drops_total", "reason", util::StatKind::kDrop},
      {&RoundBufferStats::too_early_drops, "too_early",
       "ldpids_roundbuf_drops_total", "reason", util::StatKind::kDrop},
      {&RoundBufferStats::rounds_drained, "rounds_drained",
       "ldpids_roundbuf_rounds_drained_total", nullptr,
       util::StatKind::kDetail},
      {&RoundBufferStats::packets_drained, "packets_drained",
       "ldpids_roundbuf_packets_drained_total", nullptr,
       util::StatKind::kDetail},
      {&RoundBufferStats::deadline_flushes, "deadline_flushes",
       "ldpids_roundbuf_deadline_flushes_total", nullptr,
       util::StatKind::kDetail},
      {&RoundBufferStats::duplicate_frames, "duplicate_frames",
       "ldpids_roundbuf_duplicate_frames_total", nullptr,
       util::StatKind::kDetail},
      {&RoundBufferStats::masked_losses, "masked_losses",
       "ldpids_roundbuf_masked_losses_total", nullptr,
       util::StatKind::kDetail},
  };
};

class RoundBuffer {
 public:
  explicit RoundBuffer(RoundBufferOptions options = {});
  ~RoundBuffer();

  // Observability (optional): publishes this buffer's cumulative stats to
  // the canonical ldpids_roundbuf_* metrics — labeled {session=label}
  // when `label` is non-empty — once per drained round (at the end of
  // TakeRound), plus the ldpids_roundbuf_pending_rounds gauge. Registry
  // must outlive the buffer. Publication is write-only: admission and
  // draining behave identically with or without it.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& label = {});

  // Transport side (thread-safe). Data frames queue under their round;
  // end-of-round markers arm the round's completion count. The frame's
  // session id is not inspected — demultiplex with FrameDemux first.
  DeliverResult Deliver(Frame&& frame);

  // Session side. Blocks until round `round` is complete (marker seen and
  // its data-frame count arrived) or options.round_deadline elapses, then
  // drains and closes the round, returning its packets in arrival order.
  // Packets are the frames' payload refs — still aliasing the transport
  // decoders' pooled blocks, which recycle once the round is consumed.
  // Rounds must be taken strictly in order (throws std::logic_error
  // otherwise) — the session's round_index increments by one per round.
  std::vector<PayloadRef> TakeRound(uint64_t round);

  // Next round TakeRound will accept; all earlier rounds are closed.
  uint64_t next_round() const;
  // Rounds currently buffered (undrained state). Out-of-window markers and
  // data must never arm state here — regression-tested against pinning
  // memory for rounds that can never drain.
  std::size_t pending_rounds() const;
  RoundBufferStats stats() const;

 private:
  struct PendingRound {
    std::vector<PayloadRef> packets;
    // Identities of the packets buffered so far; completion counts these,
    // not raw arrivals, so a duplicate cannot mask a loss.
    U64Set identities;
    bool marker_seen = false;
    uint64_t expected = 0;  // distinct packets announced; valid once marker_seen
  };
  bool Complete(const PendingRound& p) const {
    return p.marker_seen && p.identities.size() >= p.expected;
  }
  // The round's state, created on first touch. The head round and the
  // pipelined one after it start sized to the last drained round, so they
  // fill without regrowing; a round further ahead starts empty, so one
  // frame each cannot pin a round's worth of memory across the window.
  PendingRound& Pending(uint64_t round);

  const RoundBufferOptions options_;
  mutable std::mutex mu_;
  std::condition_variable complete_cv_;
  std::map<uint64_t, PendingRound> pending_;
  uint64_t next_round_ = 0;     // lowest undrained round
  uint64_t newest_round_ = 0;   // highest round ever seen (admission clock)
  std::size_t last_round_packets_ = 0;  // packets the last drained round held
  RoundBufferStats stats_;
  // Written under mu_ from the draining (session) side only.
  std::unique_ptr<obs::StatsFeed<RoundBufferStats>> metrics_feed_;
  obs::Gauge* pending_gauge_ = nullptr;
};

// Routes frames to per-session RoundBuffers by Frame::session_id: one
// listener socket (or one replayed log) can feed many sessions. Register
// before traffic flows; delivery is thread-safe
// (one mutex — contention is negligible next to socket reads and sketch
// folding).
class FrameDemux {
 public:
  // Registers `buffer` for `session_id`; the buffer must outlive the
  // demux's traffic. Throws std::invalid_argument on a duplicate id.
  void Register(uint64_t session_id, RoundBuffer* buffer);

  // Delivers one frame to its session's buffer; frames for unregistered
  // sessions are counted and dropped.
  void Deliver(Frame&& frame);

  // Adapter for transports that want a FrameHandler.
  FrameHandler Handler();

  uint64_t unknown_session_drops() const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, RoundBuffer*> buffers_;
  uint64_t unknown_session_drops_ = 0;
};

// --- serving-layer integration -------------------------------------------

// Announces a round the session just opened. In a deployment this is the
// server's control plane: push the round descriptor (round index, epsilon,
// oracle, cohort) to the devices so they report. In tests and demos it is
// where the simulated fleet produces and transmits the round's packets
// over the data plane (socket, log file, direct delivery).
using AnnounceFn = std::function<void(const service::RoundRequest&)>;

// A service::RoundTransport backed by a RoundBuffer: on each round it
// (1) announces the request, (2) blocks in TakeRound for the round's
// packets (out-of-order/late/duplicate delivery already absorbed), and
// (3) feeds them to the sharded ingest. With this, a MechanismSession
// runs over any byte transport that can deliver frames into the buffer.
service::RoundTransport MakeBufferedTransport(RoundBuffer& buffer,
                                              AnnounceFn announce,
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
service::SplitRoundTransport MakeBufferedSplitTransport(
    RoundBuffer& buffer, AnnounceFn announce, std::size_t num_threads);

// Identity of one data payload for completion accounting: the wire user
// nonce when the payload carries a readable one (PeekWireNonce), else a
// 64-bit hash of the raw bytes. Re-deliveries of one packet — and sender
// retransmissions of one user's report — share an identity, so they count
// once toward a round's completion. Both ends of the protocol use this
// same function: RoundBuffer to count distinct arrivals, SendRoundFrames
// to compute the distinct count its end-of-round marker announces.
uint64_t PacketIdentity(const uint8_t* data, std::size_t size);

// Sender-side helper: transmits one round's packets as data frames
// followed by the end-of-round marker, then flushes. `round` must be the
// session's RoundRequest::round_index. The marker announces the number of
// *distinct* packets (PacketIdentity) in `packets`, so callers may include
// deliberate duplicates without wedging the receiver's completion count.
void SendRoundFrames(FrameSender& sender, uint64_t session_id,
                     uint64_t round,
                     const std::vector<std::vector<uint8_t>>& packets);

// Multi-connection variant: stripes the round's data frames round-robin
// across `senders` (packet i goes to sender i % K) and announces ONE
// end-of-round marker — with the distinct count of the whole round — via
// senders[0] after flushing every connection. The receiver's RoundBuffer
// honors the first marker it sees and counts distinct arrivals across all
// connections, so completion, dedup and the released estimates are
// bit-identical to the single-connection send regardless of how the K
// streams interleave. Throws std::invalid_argument when `senders` is empty
// or holds a null pointer.
void SendRoundFrames(const std::vector<FrameSender*>& senders,
                     uint64_t session_id, uint64_t round,
                     const std::vector<std::vector<uint8_t>>& packets);

// Aggregator-side helper of the merge tree: transmits one round's partial
// sketch (fo/sketch_wire.h payload) as a kPartialSketch frame, then
// flushes. Deliberately no end-of-round marker — a child knows only its
// own contribution; the *root* announces the expected child count into
// its own buffer (service::RootSession), since only it knows the tree's
// fan-in. Completion, dedup (by emitting node id via PacketIdentity) and
// late/duplicate absorption then ride the existing RoundBuffer machinery
// unchanged.
void SendPartialSketch(FrameSender& sender, uint64_t session_id,
                       uint64_t round, std::vector<uint8_t> payload);

}  // namespace ldpids::transport

#endif  // LDPIDS_TRANSPORT_ROUND_BUFFER_H_
