// Per-round state on the serving path is sized once, from counts the code
// already holds, so a steady-state round allocates the same number of
// times whatever its size: the RoundBuffer sizes its head rounds from the
// last drained round, and the router sizes its partition slices and the
// shards' nonce sets from the staged batch. The size hint must not let a
// sender that spreads frames across the admission window pin a round's
// worth of memory per frame.
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_count.h"
#include "fo/frequency_oracle.h"
#include "fo/wire.h"
#include "service/ingest.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"

namespace ldpids {
namespace {

using alloc_count::AllocCalls;
using alloc_count::LiveHeapBytes;
using transport::DeliverResult;
using transport::Frame;
using transport::RoundBuffer;

constexpr std::size_t kDomain = 64;
constexpr uint64_t kSession = 1;

std::vector<uint8_t> GrrPacket(uint64_t nonce) {
  return EncodeGrrReport(static_cast<uint32_t>(nonce % kDomain), kDomain,
                         /*timestamp=*/0, nonce);
}

// One round's data frames, distinct nonces, followed by its end marker.
std::vector<Frame> RoundFrames(uint64_t round, std::size_t n) {
  std::vector<Frame> frames;
  frames.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    frames.push_back(transport::MakeDataFrame(kSession, round,
                                              GrrPacket(round * n + i + 1)));
  }
  frames.push_back(transport::MakeEndRoundFrame(kSession, round, n));
  return frames;
}

// Allocations of one buffered round: every Deliver (the marker last), the
// TakeRound, and dropping what it drained. The frames are built by the
// caller, outside the count.
uint64_t DeliverAndTake(RoundBuffer& buffer, uint64_t round,
                        std::vector<Frame> frames) {
  const uint64_t before = AllocCalls();
  for (Frame& frame : frames) buffer.Deliver(std::move(frame));
  const std::size_t drained = buffer.TakeRound(round).size();
  const uint64_t calls = AllocCalls() - before;
  EXPECT_EQ(drained, frames.size() - 1);
  return calls;
}

uint64_t SteadyBufferRoundAllocations(std::size_t n) {
  RoundBuffer buffer;
  DeliverAndTake(buffer, 0, RoundFrames(0, n));  // warm-up: sets the hint
  return DeliverAndTake(buffer, 1, RoundFrames(1, n));
}

TEST(RoundStateTest, BufferRoundAllocatesTheSameAtAnySize) {
  EXPECT_EQ(SteadyBufferRoundAllocations(1000),
            SteadyBufferRoundAllocations(6000));
}

// Allocations of a 2-thread IngestBatch of `n` GRR packets into a fresh
// 2-shard router, after one warm-up round (the pool, the oracle tables).
uint64_t SteadyIngestAllocations(std::size_t n) {
  const FrequencyOracle& fo = GetFrequencyOracle("GRR");
  const FoParams params{1.0, kDomain};
  std::vector<std::vector<uint8_t>> packets;
  packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) packets.push_back(GrrPacket(i + 1));
  service::ReportRouter(fo, params, OracleId::kGrr, 0, 2)
      .IngestBatch(packets, 2);

  service::ReportRouter router(fo, params, OracleId::kGrr, 0, 2);
  const uint64_t before = AllocCalls();
  router.IngestBatch(packets, 2);
  const uint64_t calls = AllocCalls() - before;
  service::IngestStats stats;
  router.Close(&stats);
  EXPECT_EQ(stats.accepted, n);
  return calls;
}

TEST(RoundStateTest, IngestBatchAllocatesTheSameAtAnySize) {
  EXPECT_EQ(SteadyIngestAllocations(1000), SteadyIngestAllocations(6000));
}

TEST(RoundStateTest, FarAheadRoundsPinLittleMemory) {
  // A bd-grr-sized round drains, then one frame lands in every other round
  // of the admission window. Sized like the drained round, each of those
  // rounds would hold ~200 KiB (4,686 payload refs plus an 8,192-slot
  // identity table): ~200 MiB over the window. Only the head round and the
  // one after it take the size hint.
  RoundBuffer buffer;
  DeliverAndTake(buffer, 0, RoundFrames(0, 4686));
  const uint64_t window = transport::RoundBufferOptions{}.max_buffered_rounds;
  std::vector<Frame> spread;
  spread.reserve(window - 1);
  for (uint64_t round = 1; round < window; ++round) {
    spread.push_back(transport::MakeDataFrame(kSession, round,
                                              GrrPacket(1000000 + round)));
  }
  const int64_t before = LiveHeapBytes();
  for (Frame& frame : spread) {
    ASSERT_EQ(buffer.Deliver(std::move(frame)), DeliverResult::kBuffered);
  }
  EXPECT_EQ(buffer.pending_rounds(), window - 1);
  EXPECT_LT(LiveHeapBytes() - before, int64_t{4} << 20);
}

}  // namespace
}  // namespace ldpids
