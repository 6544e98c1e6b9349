// Length-prefixed framing for LDP report streams.
//
// A wire report (fo/wire.h) is one self-contained datagram; a byte stream
// (TCP socket, append-only log file) needs boundaries on top. A `Frame`
// wraps one report — or one control marker — for transmission:
//
//   byte 0      magic 'L' (0x4C)
//   byte 1      magic 0xDF ("LDP frame")
//   byte 2      version (1)
//   byte 3      kind (0 = data, 1 = end-of-round marker)
//   bytes 4-11  session id (uint64, little-endian)
//   bytes 12-19 timestamp (uint64, little-endian; the serving layer puts
//               the session's round index here — a mechanism can run two
//               FO rounds at one mechanism timestamp, so the round index,
//               not the timestamp, is what keys reassembly)
//   bytes 20-23 payload length (uint32, little-endian)
//   bytes 24..  payload (data: one encoded wire report, opaque here;
//               end-of-round: uint64 LE count of data frames the sender
//               transmitted for the round)
//   last 4      checksum of everything before it (fo/wire.h WireChecksum)
//
// Decoding is stream-oriented and defensive in the style of fo/wire.h's
// `TryDecode*`: `FrameDecoder` never throws on stream content, reassembles
// frames from arbitrary read chunks (split and merged TCP reads), and
// resynchronizes past corrupt bytes instead of crashing or trusting an
// unchecksummed byte, counting each rejected offset by its typed reason.
//
// Zero-copy: a decoded frame's payload is a PayloadRef aliasing the
// decoder's pooled receive block (util/buffer_pool.h) — no per-frame
// allocation or copy on the hot path. The block stays alive until the last
// payload referencing it is consumed, then recycles through the decoder's
// pool. Transports can skip the staging copy entirely by receiving straight
// into the decoder via Reserve()/Commit().
#ifndef LDPIDS_TRANSPORT_FRAME_H_
#define LDPIDS_TRANSPORT_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/buffer_pool.h"
#include "util/stat_table.h"

namespace ldpids::transport {

enum class FrameKind : uint8_t {
  kData = 0,      // payload is one encoded wire report
  kEndRound = 1,  // payload is the round's transmitted data-frame count
  // Payload is one encoded partial sketch (fo/sketch_wire.h): an
  // aggregator node's resolved round aggregate, shipped up the merge
  // tree. The frame codec and RoundBuffer treat it exactly like data —
  // buffered under its round, deduplicated by PacketIdentity (the
  // emitting node id), late/early/duplicate handling unchanged — only
  // the consumer differs (the root merges instead of ingesting).
  kPartialSketch = 2,
};

struct Frame {
  uint64_t session_id = 0;
  uint64_t timestamp = 0;  // round index in the serving integration
  FrameKind kind = FrameKind::kData;
  PayloadRef payload;
};

// Hard ceiling on payload bytes a decoder will buffer for one frame; a
// garbage length field must not turn into an unbounded allocation.
constexpr std::size_t kMaxFramePayload = std::size_t{1} << 20;

// Encoded size of a frame carrying `payload_size` payload bytes.
std::size_t EncodedFrameSize(std::size_t payload_size);

// Convenience constructors for the frame kinds.
Frame MakeDataFrame(uint64_t session_id, uint64_t timestamp,
                    PayloadRef payload);
Frame MakeEndRoundFrame(uint64_t session_id, uint64_t timestamp,
                        uint64_t expected_data_frames);
Frame MakePartialSketchFrame(uint64_t session_id, uint64_t timestamp,
                             PayloadRef payload);

// Data-frame count carried by an end-of-round marker. Throws
// std::invalid_argument on a non-marker frame (a decoded marker is always
// well-formed; FrameDecoder validates the payload shape).
uint64_t EndRoundExpected(const Frame& frame);

// Appends the encoded frame to `*out` (batched writers fill one buffer
// with many frames before a single send/write). Throws
// std::invalid_argument if the payload exceeds kMaxFramePayload.
void AppendEncodedFrame(const Frame& frame, std::vector<uint8_t>* out);

// Per-stream decode accounting (one decoder = one connection or one log).
// Each rejected offset is one drop by its reason and one skipped byte, so
// drops() == skipped_bytes, and bytes + skipped_bytes + pending bytes is
// everything the decoder was fed.
struct FrameStats : util::StatTable<FrameStats> {
  uint64_t frames = 0;           // well-formed frames delivered
  uint64_t data_frames = 0;
  uint64_t end_round_frames = 0;
  uint64_t partial_sketch_frames = 0;
  uint64_t bytes = 0;            // bytes consumed by well-formed frames
  uint64_t bad_magic = 0;        // resync skips by first bad byte's reason
  uint64_t bad_version = 0;
  uint64_t bad_kind = 0;
  uint64_t oversize = 0;         // declared payload above kMaxFramePayload
  uint64_t checksum_mismatch = 0;
  uint64_t bad_control = 0;      // end-of-round payload not exactly 8 bytes
  uint64_t skipped_bytes = 0;    // total bytes discarded while resyncing

  static constexpr util::StatRow<FrameStats> kRows[] = {
      {&FrameStats::frames, "frames", "ldpids_frame_frames_total", nullptr,
       util::StatKind::kPass},
      {&FrameStats::data_frames, "data_frames",
       "ldpids_frame_data_frames_total", nullptr, util::StatKind::kDetail},
      {&FrameStats::end_round_frames, "end_round_frames",
       "ldpids_frame_end_round_frames_total", nullptr,
       util::StatKind::kDetail},
      {&FrameStats::partial_sketch_frames, "partial_sketch_frames",
       "ldpids_frame_partial_sketch_frames_total", nullptr,
       util::StatKind::kDetail},
      {&FrameStats::bytes, "bytes", "ldpids_frame_bytes_total", nullptr,
       util::StatKind::kDetail},
      {&FrameStats::bad_magic, "bad_magic", "ldpids_frame_errors_total",
       "reason", util::StatKind::kDrop},
      {&FrameStats::bad_version, "bad_version", "ldpids_frame_errors_total",
       "reason", util::StatKind::kDrop},
      {&FrameStats::bad_kind, "bad_kind", "ldpids_frame_errors_total",
       "reason", util::StatKind::kDrop},
      {&FrameStats::oversize, "oversize", "ldpids_frame_errors_total",
       "reason", util::StatKind::kDrop},
      {&FrameStats::checksum_mismatch, "checksum_mismatch",
       "ldpids_frame_errors_total", "reason", util::StatKind::kDrop},
      {&FrameStats::bad_control, "bad_control", "ldpids_frame_errors_total",
       "reason", util::StatKind::kDrop},
      {&FrameStats::skipped_bytes, "skipped_bytes",
       "ldpids_frame_skipped_bytes_total", nullptr, util::StatKind::kDetail},
  };
};

// Incremental frame reassembly over a byte stream. Feed it whatever the
// transport produced — single bytes, half frames, ten frames in one read —
// and pull complete frames out. Corruption never throws: the decoder
// counts the typed reason, skips one byte, and rescans for the next valid
// frame, so one flipped byte costs at most the frame it hit.
//
// Internally the stream accumulates in pooled blocks (util/buffer_pool.h)
// and emitted payloads alias the block they arrived in — zero copies after
// the bytes enter the decoder (and zero before it, with Reserve/Commit).
// After each intake the decoder scans the structurally complete frames
// ahead and verifies their checksums in one batched VerifyChecksums pass
// (fo/wire.h); Next() then serves the verified run without parsing the
// header or touching the payload bytes again. A frame that fails the
// batch is rejected for its checksum, and bytes outside the run (after a
// resync, or an incomplete tail) take the exact per-frame path, so error
// classification and stats are byte-for-byte those of the incremental
// decoder.
class FrameDecoder {
 public:
  FrameDecoder() = default;

  void Append(const uint8_t* data, std::size_t size);
  void Append(const std::vector<uint8_t>& bytes) {
    Append(bytes.data(), bytes.size());
  }

  // Zero-copy intake: Reserve(n) returns a scratch span of at least n
  // bytes for the transport to read into (recv, fread); Commit(k) then
  // publishes the k bytes actually written. Reserve without Commit is
  // idempotent; a commit larger than the last reservation is undefined.
  uint8_t* Reserve(std::size_t size);
  void Commit(std::size_t size);

  // Extracts the next complete frame, advancing past any corrupt bytes in
  // front of it. Returns false when the buffer holds no complete frame
  // (call Append and retry). The frame's payload aliases decoder-owned
  // storage and remains valid for the payload's lifetime (it keeps the
  // block alive), independent of further decoder use.
  bool Next(Frame* out);

  const FrameStats& stats() const { return stats_; }
  // Bytes buffered but not yet decoded (an in-flight partial frame).
  std::size_t pending_bytes() const { return end_ - pos_; }
  // Pool accounting, for tests pinning the no-allocation steady state.
  const BufferPool& pool() const { return pool_; }

 private:
  // Re-scan [pos_, end_) for structurally complete frames and batch-verify
  // their checksums. Valid until the cursor leaves the run or bytes move.
  void BuildVerifiedRun();

  BufferPool pool_;
  std::shared_ptr<std::vector<uint8_t>> block_;
  std::size_t pos_ = 0;  // consumed prefix within block_
  std::size_t end_ = 0;  // valid bytes within block_
  // The verified run, as the batched checksum pass takes it: frame i
  // starts at verify_datas_[i] in block_, spans verify_sizes_[i] bytes,
  // and its checksum matched iff verify_ok_[i]. Reused across intakes.
  std::vector<const uint8_t*> verify_datas_;
  std::vector<std::size_t> verify_sizes_;
  std::vector<uint8_t> verify_ok_;
  std::size_t verified_idx_ = 0;  // next run entry Next() may serve
  bool cache_valid_ = false;
  FrameStats stats_;
};

// Destination of decoded frames (a RoundBuffer demux, a recorder, a test
// probe). Invoked by transports on their own threads; implementations
// synchronize internally.
using FrameHandler = std::function<void(Frame&&)>;

// Sender half shared by every transport: the loopback/TCP socket client,
// the batch-file log writer, and in-process test doubles. Send may buffer;
// Flush pushes everything to the peer/disk.
class FrameSender {
 public:
  virtual ~FrameSender() = default;
  virtual void Send(const Frame& frame) = 0;
  virtual void Flush() {}
};

}  // namespace ldpids::transport

#endif  // LDPIDS_TRANSPORT_FRAME_H_
