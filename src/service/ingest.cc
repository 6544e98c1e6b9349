#include "service/ingest.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ldpids::service {

IngestStats& IngestStats::operator+=(const IngestStats& other) {
  accepted += other.accepted;
  malformed += other.malformed;
  wrong_oracle += other.wrong_oracle;
  wrong_timestamp += other.wrong_timestamp;
  duplicate += other.duplicate;
  sketch_rejected += other.sketch_rejected;
  return *this;
}

std::string IngestStats::ToString() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "accepted=%llu malformed=%llu wrong_oracle=%llu "
                "wrong_timestamp=%llu duplicate=%llu sketch_rejected=%llu",
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(malformed),
                static_cast<unsigned long long>(wrong_oracle),
                static_cast<unsigned long long>(wrong_timestamp),
                static_cast<unsigned long long>(duplicate),
                static_cast<unsigned long long>(sketch_rejected));
  return buf;
}

IngestShard::IngestShard(const FrequencyOracle& fo, const FoParams& params)
    : sketch_(fo.CreateSketch(params)) {}

void IngestShard::IngestSlice(const ReportArena& arena,
                              const uint32_t* indices, std::size_t count) {
  if (sketch_ == nullptr) {
    throw std::logic_error("ingest shard already closed");
  }
  const uint64_t* nonces = arena.nonces();
  const uint8_t* in_range = arena.in_range();
  // Clean-stream fast path: while every row is accepted, the accept list
  // is just the input slice (or the identity when indices == nullptr), so
  // nothing is materialized. The first rejected row backfills the accepted
  // prefix into the scratch list and the loop continues in push mode.
  bool rejected = false;
  accept_scratch_.clear();
  seen_.Reserve(seen_.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    const uint32_t row =
        indices != nullptr ? indices[i] : static_cast<uint32_t>(i);
    const uint64_t nonce = nonces[row];
    // A re-delivered nonce is a duplicate even when its payload is out of
    // range, and an out-of-range row does not burn its nonce. An in-range
    // row probes once: Insert fails on a duplicate.
    if (in_range[row] == 0) {
      if (seen_.Contains(nonce)) {
        ++stats_.duplicate;
      } else {
        ++stats_.sketch_rejected;
      }
    } else if (!seen_.Insert(nonce)) {
      ++stats_.duplicate;
    } else {
      if (rejected) accept_scratch_.push_back(row);
      continue;
    }
    if (!rejected) {
      rejected = true;
      accept_scratch_.reserve(count);
      for (std::size_t j = 0; j < i; ++j) {
        accept_scratch_.push_back(
            indices != nullptr ? indices[j] : static_cast<uint32_t>(j));
      }
    }
  }
  if (!rejected) {
    if (count != 0) {
      sketch_->AddReports(ArenaSlice{&arena, indices, count});
      stats_.accepted += count;
    }
  } else if (!accept_scratch_.empty()) {
    sketch_->AddReports(
        ArenaSlice{&arena, accept_scratch_.data(), accept_scratch_.size()});
    stats_.accepted += accept_scratch_.size();
  }
}

ReportRouter::ReportRouter(const FrequencyOracle& fo, const FoParams& params,
                           OracleId oracle, uint32_t timestamp,
                           std::size_t num_shards)
    : params_(params), oracle_(oracle), timestamp_(timestamp) {
  if (num_shards == 0) num_shards = HardwareThreads();
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.emplace_back(fo, params);
  }
}

void ReportRouter::IngestBatch(
    const std::vector<std::vector<uint8_t>>& packets,
    std::size_t num_threads) {
  IngestBatchImpl(packets, num_threads);
}

void ReportRouter::IngestBatch(const std::vector<PayloadRef>& packets,
                               std::size_t num_threads) {
  IngestBatchImpl(packets, num_threads);
}

template <typename Packet>
void ReportRouter::IngestBatchImpl(const std::vector<Packet>& packets,
                                   std::size_t num_threads) {
  if (closed_) throw std::logic_error("router already closed");
  const std::size_t n = packets.size();
  // Minimum packets per decode chunk: below this the pool hand-off costs
  // more than the decode itself.
  constexpr std::size_t kDecodeChunk = 4096;
  // Serial-path staging block: small enough that a block's columns (plus
  // the checksum staging arrays) are still cache-hot when the shard fold
  // re-reads them. Block boundaries never change outcomes — rows keep
  // packet order, duplicate state lives in the shards, and wire-level
  // rejects accumulate across blocks.
  constexpr std::size_t kIngestBlock = 2048;

  // Per-stage wall clock (EnableStageTiming): reads the clock only at the
  // existing decode/fold boundaries, so timing never reorders work.
  uint64_t t0 = timing_ ? obs::NowNs() : 0;

  if (num_threads <= 1) {
    for (std::size_t b = 0; b < n; b += kIngestBlock) {
      arena_.BeginRound(oracle_, timestamp_, params_);
      arena_.AppendRange(packets, b, std::min(n, b + kIngestBlock));
      decode_stats_ += arena_.stats();
      if (timing_) {
        const uint64_t t1 = obs::NowNs();
        stage_nanos_.arena_decode += t1 - t0;
        t0 = t1;
      }
      IngestStaged(num_threads);
      if (timing_) {
        const uint64_t t1 = obs::NowNs();
        stage_nanos_.shard_fold += t1 - t0;
        t0 = t1;
      }
    }
    return;
  }

  // Stage 1: decode and checksum every packet exactly once into the
  // columnar arena. Rows keep global packet order (Concat preserves chunk
  // order), so dedup outcomes do not depend on the chunking.
  arena_.BeginRound(oracle_, timestamp_, params_);
  if (n < 2 * kDecodeChunk) {
    arena_.AppendBatch(packets);
  } else {
    const std::size_t chunks =
        std::min(num_threads, (n + kDecodeChunk - 1) / kDecodeChunk);
    decode_chunks_.resize(chunks);
    const std::size_t per = (n + chunks - 1) / chunks;
    ParallelFor(num_threads, chunks, [&](std::size_t c) {
      ReportArena& chunk = decode_chunks_[c];
      chunk.BeginRound(oracle_, timestamp_, params_);
      chunk.AppendRange(packets, c * per, std::min(n, (c + 1) * per));
    });
    for (const ReportArena& chunk : decode_chunks_) arena_.Concat(chunk);
  }
  decode_stats_ += arena_.stats();
  if (timing_) {
    const uint64_t t1 = obs::NowNs();
    stage_nanos_.arena_decode += t1 - t0;
    t0 = t1;
  }
  IngestStaged(num_threads);
  if (timing_) stage_nanos_.shard_fold += obs::NowNs() - t0;
}

void ReportRouter::IngestStaged(std::size_t num_threads) {
  // Stage 2: deterministic nonce partition straight off the staged nonce
  // column — no second envelope peek. A single shard owns every row in
  // arena order, which the contiguous (nullptr-indices) slice expresses
  // without materializing an identity index array.
  const std::size_t k = shards_.size();
  const std::size_t rows = arena_.size();
  if (k == 1) {
    shards_[0].IngestSlice(arena_, nullptr, rows);
    return;
  }
  // No slice can outgrow the staged row count, so the partition below
  // never reallocates.
  slices_.resize(k);
  for (std::vector<uint32_t>& s : slices_) {
    s.clear();
    s.reserve(rows);
  }
  const uint64_t* nonces = arena_.nonces();
  for (std::size_t i = 0; i < rows; ++i) {
    slices_[static_cast<std::size_t>(Mix64(nonces[i])) % k].push_back(
        static_cast<uint32_t>(i));
  }

  // Stage 3: per-shard dedup + one vectorized fold per shard. A parallel
  // fold also finishes the shard's deferred per-report work (OLH's O(d)
  // support scan, HR's FWHT batch) while it still owns its lane; the
  // serial path calls this once per staging block and leaves that to
  // Close, so HR still transforms once per round.
  ParallelFor(num_threads, k, [&](std::size_t shard) {
    shards_[shard].IngestSlice(arena_, slices_[shard].data(),
                               slices_[shard].size());
    if (num_threads > 1) shards_[shard].sketch().Resolve();
  });
}

std::unique_ptr<FoSketch> ReportRouter::Close(IngestStats* stats) {
  if (closed_) throw std::logic_error("router already closed");
  closed_ = true;
  const uint64_t t0 = timing_ ? obs::NowNs() : 0;
  // Resolve whatever the fold left deferred (a parallel fold leaves
  // nothing), so the reduce below is pure count adds and the session's
  // estimate scans nothing.
  for (IngestShard& shard : shards_) shard.sketch().Resolve();
  std::unique_ptr<FoSketch> merged = shards_[0].TakeSketch();
  if (stats != nullptr) *stats += shards_[0].stats();
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    merged->MergeFrom(shards_[i].sketch());
    if (stats != nullptr) *stats += shards_[i].stats();
  }
  if (stats != nullptr) {
    // Wire-level rejects are counted once at the router: the arena
    // classifies them before rows exist.
    stats->malformed += decode_stats_.malformed;
    stats->wrong_oracle += decode_stats_.wrong_oracle;
    stats->wrong_timestamp += decode_stats_.wrong_timestamp;
  }
  if (timing_) stage_nanos_.merge += obs::NowNs() - t0;
  return merged;
}

}  // namespace ldpids::service
