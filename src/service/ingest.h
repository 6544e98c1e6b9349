// Sharded wire-report ingestion — the server edge of the online serving
// layer.
//
// One FO collection round at one timestamp is ingested by a `ReportRouter`
// holding K `IngestShard`s. `IngestBatch` stages each batch through a
// columnar ReportArena (fo/report_arena.h): every packet is decoded and
// checksummed exactly once, with typed `WireError` results and no
// exceptions on packet content, and malformed/wrong-round packets are
// counted at the router. The surviving rows are partitioned by the staged
// nonce column; each shard deduplicates its rows against its flat nonce
// set and folds the survivors into its own `FoSketch` in one vectorized
// `FoSketch::AddReports` call. Each shard finishes its deferred
// per-report work (`FoSketch::Resolve`: OLH's O(d) support scan, HR's
// FWHT batch) at the end of a parallel fold, on its own pool lane (a
// serial or single-shard fold resolves at close). At timestamp close the
// shards are merged (`FoSketch::MergeFrom`, pure count adds) into one
// sketch whose estimate is bit-identical to single-shard ingestion of the
// same packets — sketch state is additive integer counts, so neither the
// partition nor where the scan ran ever shows.
//
// Thread model: one shard is single-threaded; different shards are
// independent, so `IngestBatch` fans the decode chunks and the K shard
// slices across the shared thread pool (util/thread_pool.h). Rows are
// partitioned by their wire nonce (hash(nonce) mod K) — deterministic, and
// it keeps every copy of one user's report on the same shard, so per-round
// duplicate rejection is exact and merged results are reproducible at
// every shard and thread count.
#ifndef LDPIDS_SERVICE_INGEST_H_
#define LDPIDS_SERVICE_INGEST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fo/frequency_oracle.h"
#include "fo/report_arena.h"
#include "fo/wire.h"
#include "util/u64_set.h"

namespace ldpids::service {

// Per-round acceptance accounting, kept per shard and summed at close.
struct IngestStats {
  uint64_t accepted = 0;
  uint64_t malformed = 0;
  uint64_t wrong_oracle = 0;
  uint64_t wrong_timestamp = 0;
  uint64_t duplicate = 0;
  uint64_t sketch_rejected = 0;

  uint64_t total() const {
    return accepted + malformed + wrong_oracle + wrong_timestamp +
           duplicate + sketch_rejected;
  }
  uint64_t rejected() const { return total() - accepted; }
  IngestStats& operator+=(const IngestStats& other);
  std::string ToString() const;
};

// One shard: nonce dedup in front of a FoSketch. Single-threaded.
class IngestShard {
 public:
  // `params` sizes the sketch (domain) and fixes the per-user budget
  // (epsilon).
  IngestShard(const FrequencyOracle& fo, const FoParams& params);

  IngestShard(IngestShard&&) = default;
  IngestShard& operator=(IngestShard&&) = delete;

  // Deduplicates `indices[0..count)` (rows of `arena`, in order) against
  // this shard's seen nonces, counts out-of-range rows as sketch-rejected,
  // and folds the survivors in one FoSketch::AddReports call. Per row, a
  // duplicate outranks a sketch rejection (a re-delivered nonce is a
  // duplicate even when its payload is out of range), and a nonce is
  // burned only on acceptance (a forged out-of-range row must not lock
  // its user out). The arena rows must already be valid for this round
  // (the arena's decode handles malformed/wrong-oracle/wrong-timestamp
  // classification).
  void IngestSlice(const ReportArena& arena, const uint32_t* indices,
                   std::size_t count);

  const IngestStats& stats() const { return stats_; }
  const FoSketch& sketch() const { return *sketch_; }

  // Releases the shard's sketch for merging; the shard must not ingest
  // afterwards.
  std::unique_ptr<FoSketch> TakeSketch() { return std::move(sketch_); }

 private:
  std::unique_ptr<FoSketch> sketch_;
  IngestStats stats_;
  // Nonces accepted this round: a re-delivered packet (retry, duplicating
  // network, replayed log) must not double-count its user. Each
  // IngestSlice reserves it for the slice's rows up front.
  U64Set seen_;
  // Accepted arena rows of the current IngestSlice call; reused.
  std::vector<uint32_t> accept_scratch_;
};

// Wall-clock nanoseconds the router's batch path spent in each internal
// stage, accumulated across one round's IngestBatch calls (and the merge
// at Close). Only filled after EnableStageTiming(): an unobserved router
// pays zero clock reads. AggregatorNode turns these into the round's
// arena_decode and shard_fold stage events (obs/stage_trace.h) — plain
// integers here keep this header free of obs dependencies.
struct RouterStageNanos {
  uint64_t arena_decode = 0;  // packets -> columnar rows (incl. checksums)
  uint64_t shard_fold = 0;    // nonce partition + per-shard dedup/fold
                              // (+ per-shard Resolve when parallel)
  uint64_t merge = 0;         // Close: leftover Resolve + shard reduce
};

// Routes one round's packets across K shards and shard-reduces at close.
class ReportRouter {
 public:
  // `num_shards == 0` picks the adaptive default: one shard per hardware
  // thread (the knee of bench_service_throughput's shards -> reports/sec
  // curve sits at the core count; beyond it the merge at Close only adds
  // work).
  ReportRouter(const FrequencyOracle& fo, const FoParams& params,
               OracleId oracle, uint32_t timestamp, std::size_t num_shards);

  // Stages the packets through the columnar arena (decoding each exactly
  // once, chunk-parallel for large batches), partitions the
  // staged rows by nonce, and ingests the K shard slices concurrently
  // across up to `num_threads` pool lanes. The assignment is deterministic
  // and order-independent, so results are identical at every thread and
  // shard count. Wire-level rejects (malformed / wrong oracle / wrong
  // timestamp) are accounted at the router and folded into Close()'s
  // stats; per-shard stats carry only row-level outcomes.
  // The PayloadRef overload is the zero-copy transport hand-off
  // (RoundBuffer::TakeRound): the arena decodes the frame payloads in
  // place, straight out of the socket decoders' pooled blocks.
  void IngestBatch(const std::vector<std::vector<uint8_t>>& packets,
                   std::size_t num_threads);
  void IngestBatch(const std::vector<PayloadRef>& packets,
                   std::size_t num_threads);

  // Resolves whatever deferred work the shards still hold (none after a
  // parallel IngestBatch over K > 1 shards, which resolves on the shard
  // lanes), merges the shards into one fully resolved sketch and returns
  // it, accumulating
  // the shards' acceptance stats into `*stats` when non-null. The router
  // is closed afterwards: further IngestBatch or Close calls throw
  // std::logic_error.
  std::unique_ptr<FoSketch> Close(IngestStats* stats = nullptr);

  std::size_t num_shards() const { return shards_.size(); }
  const IngestShard& shard(std::size_t i) const { return shards_[i]; }

  // Opt into per-stage wall-clock accounting (default
  // off). Timing never changes what is ingested — it only reads the clock
  // around existing stage boundaries.
  void EnableStageTiming() { timing_ = true; }
  const RouterStageNanos& stage_nanos() const { return stage_nanos_; }
  // Wire-level reject accounting summed over this round's batches.
  const ArenaDecodeStats& decode_stats() const { return decode_stats_; }

 private:
  // Shared batch body over any packet container exposing data()/size().
  template <typename Packet>
  void IngestBatchImpl(const std::vector<Packet>& packets,
                       std::size_t num_threads);
  // Stages 2+3 over the currently staged arena_: nonce partition and the
  // per-shard dedup + fold. Called once per staged block/batch.
  void IngestStaged(std::size_t num_threads);

  std::vector<IngestShard> shards_;
  // Round configuration, kept so IngestBatch can stage arenas.
  FoParams params_;
  OracleId oracle_;
  uint32_t timestamp_;
  bool closed_ = false;
  // Batch staging state, reused across IngestBatch calls (capacity
  // persists, so steady-state batches do not allocate).
  ReportArena arena_;
  std::vector<ReportArena> decode_chunks_;
  std::vector<std::vector<uint32_t>> slices_;
  // Wire-level rejects summed over this round's batches.
  ArenaDecodeStats decode_stats_;
  // Optional per-stage wall-clock accounting (EnableStageTiming).
  bool timing_ = false;
  RouterStageNanos stage_nanos_;
};

}  // namespace ldpids::service

#endif  // LDPIDS_SERVICE_INGEST_H_
