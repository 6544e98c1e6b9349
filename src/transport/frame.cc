#include "transport/frame.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fo/wire.h"

namespace ldpids::transport {

namespace {

constexpr uint8_t kMagic0 = 0x4C;  // 'L'
constexpr uint8_t kMagic1 = 0xDF;
constexpr uint8_t kVersion = 1;
constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kChecksumSize = 4;
constexpr std::size_t kLengthOffset = 20;

// Precise decode outcome at one stream offset. kIncomplete means "valid
// so far, feed me more bytes"; every later value is a hard reject there.
enum class FrameError : uint8_t {
  kOk = 0,
  kIncomplete,
  kBadMagic,
  kBadVersion,
  kBadKind,
  kOversize,           // declared payload length above kMaxFramePayload
  kChecksumMismatch,
  kBadControl,         // end-of-round payload is not exactly 8 bytes
};

}  // namespace

std::size_t EncodedFrameSize(std::size_t payload_size) {
  return kHeaderSize + payload_size + kChecksumSize;
}

Frame MakeDataFrame(uint64_t session_id, uint64_t timestamp,
                    PayloadRef payload) {
  Frame frame;
  frame.session_id = session_id;
  frame.timestamp = timestamp;
  frame.kind = FrameKind::kData;
  frame.payload = std::move(payload);
  return frame;
}

Frame MakeEndRoundFrame(uint64_t session_id, uint64_t timestamp,
                        uint64_t expected_data_frames) {
  Frame frame;
  frame.session_id = session_id;
  frame.timestamp = timestamp;
  frame.kind = FrameKind::kEndRound;
  std::vector<uint8_t> bytes;
  PutU64Le(&bytes, expected_data_frames);
  frame.payload = std::move(bytes);
  return frame;
}

Frame MakePartialSketchFrame(uint64_t session_id, uint64_t timestamp,
                             PayloadRef payload) {
  Frame frame;
  frame.session_id = session_id;
  frame.timestamp = timestamp;
  frame.kind = FrameKind::kPartialSketch;
  frame.payload = std::move(payload);
  return frame;
}

uint64_t EndRoundExpected(const Frame& frame) {
  if (frame.kind != FrameKind::kEndRound || frame.payload.size() != 8) {
    throw std::invalid_argument("not an end-of-round frame");
  }
  return GetU64Le(frame.payload.data());
}

void AppendEncodedFrame(const Frame& frame, std::vector<uint8_t>* out) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw std::invalid_argument("frame payload exceeds kMaxFramePayload");
  }
  // No exact reserve here: it would reallocate on every append and defeat
  // the vector's geometric growth when callers batch many frames.
  const std::size_t start = out->size();
  out->push_back(kMagic0);
  out->push_back(kMagic1);
  out->push_back(kVersion);
  out->push_back(static_cast<uint8_t>(frame.kind));
  PutU64Le(out, frame.session_id);
  PutU64Le(out, frame.timestamp);
  PutU32Le(out, static_cast<uint32_t>(frame.payload.size()));
  out->insert(out->end(), frame.payload.begin(), frame.payload.end());
  PutU32Le(out, WireChecksum(out->data() + start, out->size() - start));
}

namespace {

// Validates the fixed prefix field by field so corruption is detected at
// the earliest byte that can prove it — resync then costs one skip, not a
// wait for bytes that never arrive. On kOk the frame is structurally
// complete ([0, *total) buffered, prefix fields valid); the checksum and
// the control-payload shape are NOT yet checked — they follow in exactly
// that order (a frame failing both counts as a checksum mismatch).
FrameError ParseFrameShape(const uint8_t* data, std::size_t size,
                           std::size_t* total) {
  if (size < 1) return FrameError::kIncomplete;
  if (data[0] != kMagic0) return FrameError::kBadMagic;
  if (size < 2) return FrameError::kIncomplete;
  if (data[1] != kMagic1) return FrameError::kBadMagic;
  if (size < 3) return FrameError::kIncomplete;
  if (data[2] != kVersion) return FrameError::kBadVersion;
  if (size < 4) return FrameError::kIncomplete;
  if (data[3] > static_cast<uint8_t>(FrameKind::kPartialSketch)) {
    return FrameError::kBadKind;
  }
  if (size < kHeaderSize) return FrameError::kIncomplete;
  const uint32_t payload_len = GetU32Le(data + kLengthOffset);
  if (payload_len > kMaxFramePayload) return FrameError::kOversize;
  *total = EncodedFrameSize(payload_len);
  if (size < *total) return FrameError::kIncomplete;
  return FrameError::kOk;
}

bool ChecksumMatches(const uint8_t* data, std::size_t total) {
  return GetU32Le(data + total - kChecksumSize) ==
         WireChecksum(data, total - kChecksumSize);
}

// The checks after a frame's shape, in order: the checksum verdict, then
// the control-payload shape.
FrameError CheckShapedFrame(const uint8_t* data, std::size_t total,
                            bool checksum_ok) {
  if (!checksum_ok) return FrameError::kChecksumMismatch;
  if (data[3] == static_cast<uint8_t>(FrameKind::kEndRound) &&
      total - kHeaderSize - kChecksumSize != 8) {
    return FrameError::kBadControl;
  }
  return FrameError::kOk;
}

void FillFrameHeader(const uint8_t* data, Frame* out) {
  out->session_id = GetU64Le(data + 4);
  out->timestamp = GetU64Le(data + 12);
  out->kind = static_cast<FrameKind>(data[3]);
}

}  // namespace

void FrameDecoder::Append(const uint8_t* data, std::size_t size) {
  // An empty vector's data() may be null, and memcpy from null is undefined
  // even for zero bytes.
  if (size == 0) return;
  std::memcpy(Reserve(size), data, size);
  Commit(size);
}

uint8_t* FrameDecoder::Reserve(std::size_t size) {
  if (block_ == nullptr) {
    block_ = pool_.Get(size);
    pos_ = end_ = 0;
  } else if (block_->size() - end_ < size) {
    const std::size_t unparsed = end_ - pos_;
    if (block_.use_count() == 1 && block_->size() >= unparsed + size) {
      // No payload still references the block: compact in place.
      std::memmove(block_->data(), block_->data() + pos_, unparsed);
    } else {
      // Outstanding payload refs pin the bytes (or the block is simply too
      // small): move the unparsed tail to a fresh pooled block. The old
      // block recycles when its last payload ref drops.
      std::shared_ptr<std::vector<uint8_t>> fresh =
          pool_.Get(unparsed + size);
      std::memcpy(fresh->data(), block_->data() + pos_, unparsed);
      block_ = std::move(fresh);
    }
    pos_ = 0;
    end_ = unparsed;
    cache_valid_ = false;  // offsets moved
  }
  return block_->data() + end_;
}

void FrameDecoder::Commit(std::size_t size) {
  end_ += size;
  cache_valid_ = false;
}

void FrameDecoder::BuildVerifiedRun() {
  verify_datas_.clear();
  verify_sizes_.clear();
  verified_idx_ = 0;
  cache_valid_ = true;
  if (block_ == nullptr) return;
  const uint8_t* base = block_->data();
  std::size_t cursor = pos_;
  while (cursor < end_) {
    std::size_t total = 0;
    if (ParseFrameShape(base + cursor, end_ - cursor, &total) !=
        FrameError::kOk) {
      break;  // incomplete tail or a corrupt byte: the step path takes over
    }
    verify_datas_.push_back(base + cursor);
    verify_sizes_.push_back(total);
    cursor += total;
  }
  if (verify_datas_.empty()) return;
  // resize, not assign: VerifyChecksums writes every verdict slot.
  verify_ok_.resize(verify_datas_.size());
  // One batched checksum pass over the whole run — the same VerifyChecksums
  // entry the arena decoder uses (frame trailer layout matches the wire
  // envelope's: 4 checksum bytes over everything before them).
  VerifyChecksums(verify_datas_.data(), verify_sizes_.data(),
                  verify_datas_.size(), verify_ok_.data());
}

bool FrameDecoder::Next(Frame* out) {
  while (pos_ < end_) {
    if (!cache_valid_) BuildVerifiedRun();
    const uint8_t* data = block_->data() + pos_;
    // Resyncs may have advanced the cursor past cached entries.
    while (verified_idx_ < verify_datas_.size() &&
           verify_datas_[verified_idx_] < data) {
      ++verified_idx_;
    }
    std::size_t total = 0;
    FrameError err = FrameError::kOk;
    if (verified_idx_ < verify_datas_.size() &&
        verify_datas_[verified_idx_] == data) {
      // The batch pass already parsed this frame's shape and checked its
      // checksum.
      total = verify_sizes_[verified_idx_];
      err = CheckShapedFrame(data, total, verify_ok_[verified_idx_] != 0);
      ++verified_idx_;
    } else {
      err = ParseFrameShape(data, end_ - pos_, &total);
      if (err == FrameError::kOk) {
        err = CheckShapedFrame(data, total, ChecksumMatches(data, total));
      }
    }
    if (err == FrameError::kOk) {
      FillFrameHeader(data, out);
      // Zero-copy hand-off: the payload aliases the pooled block and keeps
      // it alive until consumed.
      out->payload = PayloadRef(block_, data + kHeaderSize,
                                total - kHeaderSize - kChecksumSize);
      pos_ += total;
      ++stats_.frames;
      stats_.bytes += total;
      switch (out->kind) {
        case FrameKind::kData: ++stats_.data_frames; break;
        case FrameKind::kEndRound: ++stats_.end_round_frames; break;
        case FrameKind::kPartialSketch:
          ++stats_.partial_sketch_frames;
          break;
      }
      return true;
    }
    if (err == FrameError::kIncomplete) return false;
    // Hard reject at this offset: count the reason, skip one byte, rescan.
    switch (err) {
      case FrameError::kBadMagic: ++stats_.bad_magic; break;
      case FrameError::kBadVersion: ++stats_.bad_version; break;
      case FrameError::kBadKind: ++stats_.bad_kind; break;
      case FrameError::kOversize: ++stats_.oversize; break;
      case FrameError::kChecksumMismatch: ++stats_.checksum_mismatch; break;
      case FrameError::kBadControl: ++stats_.bad_control; break;
      case FrameError::kOk:
      case FrameError::kIncomplete: break;  // unreachable
    }
    ++pos_;
    ++stats_.skipped_bytes;
  }
  return false;
}

}  // namespace ldpids::transport
