#include "transport/round_buffer.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fo/sketch_wire.h"
#include "fo/wire.h"
#include "obs/metrics.h"
#include "obs/stats_feed.h"
#include "service/ingest.h"

namespace ldpids::transport {

uint64_t PacketIdentity(const uint8_t* data, std::size_t size) {
  uint64_t nonce = 0;
  if (PeekWireNonce(data, size, &nonce)) {
    // Well-formed envelope prefix: the user nonce is the packet's logical
    // identity (retransmitted copies share it even if other bytes were
    // corrupted in one copy).
    return nonce;
  }
  uint64_t node_id = 0;
  if (PeekPartialSketchNodeId(data, size, &node_id)) {
    // Partial-sketch payload: the emitting aggregator is the identity, so
    // a node's re-sent partial counts once toward completion while two
    // nodes' byte-identical partials (e.g. zero-report rounds) stay
    // distinct. SplitMix-step the id so small node indexes cannot collide
    // with small user nonces in a buffer that sees both kinds.
    uint64_t z = node_id + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Too mangled to carry a nonce: fall back to the raw bytes (FNV-1a).
  // Byte-identical re-deliveries still collapse; distinct corrupted
  // packets stay distinct.
  uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 0x100000001b3ull;
  }
  return hash;
}

RoundBuffer::RoundBuffer(RoundBufferOptions options) : options_(options) {}

RoundBuffer::~RoundBuffer() = default;

void RoundBuffer::AttachMetrics(obs::MetricsRegistry* registry,
                                const std::string& label) {
  obs::Labels labels;
  if (!label.empty()) labels.emplace_back("session", label);
  std::lock_guard<std::mutex> lock(mu_);
  metrics_feed_ =
      std::make_unique<obs::StatsFeed<RoundBufferStats>>(registry, labels);
  pending_gauge_ =
      &registry->GetGauge("ldpids_roundbuf_pending_rounds", labels);
}

DeliverResult RoundBuffer::Deliver(Frame&& frame) {
  const uint64_t round = frame.timestamp;
  // The identity depends only on the frame bytes — hash before taking the
  // lock so concurrent transport readers don't serialize on an O(payload)
  // scan (a wasted hash on the rare dropped frame is the cheaper side).
  const uint64_t identity =
      frame.kind != FrameKind::kEndRound
          ? PacketIdentity(frame.payload.data(), frame.payload.size())
          : 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (round < next_round_) {
    ++stats_.closed_round_drops;
    return DeliverResult::kClosedRound;
  }
  if (round + options_.max_lateness < newest_round_) {
    ++stats_.too_late_drops;
    return DeliverResult::kTooLate;
  }
  if (round >= next_round_ + options_.max_buffered_rounds) {
    ++stats_.too_early_drops;
    return DeliverResult::kTooEarly;
  }
  // Only an *admitted* frame advances the lateness clock — a single forged
  // far-future round index must not poison the watermark and starve every
  // legitimate round behind it.
  if (round > newest_round_) newest_round_ = round;
  PendingRound& pending = Pending(round);
  if (frame.kind == FrameKind::kEndRound) {
    ++stats_.end_markers;
    if (!pending.marker_seen) {
      pending.marker_seen = true;
      pending.expected = EndRoundExpected(frame);
    }
    if (Complete(pending)) complete_cv_.notify_all();
    return DeliverResult::kEndMarker;
  }
  if (!pending.identities.Insert(identity)) {
    ++stats_.duplicate_frames;
  }
  // Duplicates are still buffered — the ingest edge owns exact per-round
  // duplicate rejection (by nonce) and its acceptance accounting — but
  // only the first copy advanced the completion count above.
  pending.packets.push_back(std::move(frame.payload));
  ++stats_.buffered;
  if (Complete(pending)) complete_cv_.notify_all();
  return DeliverResult::kBuffered;
}

RoundBuffer::PendingRound& RoundBuffer::Pending(uint64_t round) {
  const auto [it, created] = pending_.try_emplace(round);
  if (created && round <= next_round_ + 1) {
    it->second.packets.reserve(last_round_packets_);
    it->second.identities.Reserve(last_round_packets_);
  }
  return it->second;
}

std::vector<PayloadRef> RoundBuffer::TakeRound(uint64_t round) {
  std::unique_lock<std::mutex> lock(mu_);
  if (round != next_round_) {
    throw std::logic_error("rounds must be taken strictly in order");
  }
  const bool complete = complete_cv_.wait_for(
      lock, options_.round_deadline,
      [&] { return Complete(Pending(round)); });
  PendingRound& p = Pending(round);
  if (!complete) {
    ++stats_.deadline_flushes;
    if (p.marker_seen && p.packets.size() >= p.expected) {
      // Raw arrivals reached the announced count but distinct ones did
      // not: a duplicate masked a genuine loss. The pre-distinct
      // accounting released this round as "complete".
      ++stats_.masked_losses;
    }
  }
  std::vector<PayloadRef> packets = std::move(p.packets);
  pending_.erase(round);
  next_round_ = round + 1;
  last_round_packets_ = packets.size();
  ++stats_.rounds_drained;
  stats_.packets_drained += packets.size();
  if (metrics_feed_ != nullptr) {
    // Once per drained round, still under mu_: per-frame delivery stays
    // untouched and only the draining side pays the publication.
    metrics_feed_->Publish(stats_);
    pending_gauge_->Set(static_cast<int64_t>(pending_.size()));
  }
  return packets;
}

uint64_t RoundBuffer::next_round() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_round_;
}

std::size_t RoundBuffer::pending_rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

RoundBufferStats RoundBuffer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void FrameDemux::Register(uint64_t session_id, RoundBuffer* buffer) {
  if (buffer == nullptr) {
    throw std::invalid_argument("demux needs a buffer");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!buffers_.emplace(session_id, buffer).second) {
    throw std::invalid_argument("session id already registered");
  }
}

void FrameDemux::Deliver(Frame&& frame) {
  RoundBuffer* buffer = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = buffers_.find(frame.session_id);
    if (it == buffers_.end()) {
      ++unknown_session_drops_;
      return;
    }
    buffer = it->second;
  }
  buffer->Deliver(std::move(frame));
}

FrameHandler FrameDemux::Handler() {
  return [this](Frame&& frame) { Deliver(std::move(frame)); };
}

uint64_t FrameDemux::unknown_session_drops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unknown_session_drops_;
}

service::RoundTransport MakeBufferedTransport(RoundBuffer& buffer,
                                              AnnounceFn announce,
                                              std::size_t num_threads) {
  return [&buffer, announce = std::move(announce), num_threads](
             const service::RoundRequest& request,
             service::ReportRouter& router) {
    if (announce) announce(request);
    router.IngestBatch(buffer.TakeRound(request.round_index), num_threads);
  };
}

service::SplitRoundTransport MakeBufferedSplitTransport(
    RoundBuffer& buffer, AnnounceFn announce, std::size_t num_threads) {
  service::SplitRoundTransport split;
  split.announce = std::move(announce);
  split.ingest = [&buffer, num_threads](const service::RoundRequest& request,
                                        service::ReportRouter& router) {
    router.IngestBatch(buffer.TakeRound(request.round_index), num_threads);
  };
  return split;
}

void SendRoundFrames(FrameSender& sender, uint64_t session_id,
                     uint64_t round,
                     const std::vector<std::vector<uint8_t>>& packets) {
  SendRoundFrames(std::vector<FrameSender*>{&sender}, session_id, round,
                  packets);
}

void SendRoundFrames(const std::vector<FrameSender*>& senders,
                     uint64_t session_id, uint64_t round,
                     const std::vector<std::vector<uint8_t>>& packets) {
  if (senders.empty()) {
    throw std::invalid_argument("SendRoundFrames needs at least one sender");
  }
  for (FrameSender* sender : senders) {
    if (sender == nullptr) {
      throw std::invalid_argument("SendRoundFrames got a null sender");
    }
  }
  U64Set identities;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const std::vector<uint8_t>& packet = packets[i];
    identities.Insert(PacketIdentity(packet.data(), packet.size()));
    senders[i % senders.size()]->Send(
        MakeDataFrame(session_id, round, packet));
  }
  // Every connection is flushed before the single whole-round marker goes
  // out on senders[0]. The marker could legally race data still in flight
  // on other connections — the RoundBuffer waits for the announced count
  // regardless of arrival order — but flushing first keeps the common case
  // "marker last", so deadline flushes only happen on real loss.
  for (FrameSender* sender : senders) sender->Flush();
  senders[0]->Send(
      MakeEndRoundFrame(session_id, round, identities.size()));
  senders[0]->Flush();
}

void SendPartialSketch(FrameSender& sender, uint64_t session_id,
                       uint64_t round, std::vector<uint8_t> payload) {
  sender.Send(MakePartialSketchFrame(session_id, round, std::move(payload)));
  sender.Flush();
}

}  // namespace ldpids::transport
