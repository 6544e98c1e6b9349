// Composable nodes of the distributed aggregation tier.
//
// The session monolith is split at its natural seam: the *ingest half* of
// a round (open a sharded ReportRouter, deliver the cohort's wire packets,
// close into a resolved FoSketch) is an `AggregatorNode`, reusable on its
// own — a leaf process in a merge tree runs one per round and ships the
// resolved sketch upstream as a partial-sketch frame (fo/sketch_wire.h);
// the estimate / post-process / mechanism half stays in MechanismSession,
// which now drives any RoundSource.
//
// `RootSession` composes the two the other way around: a MechanismSession
// whose RoundSource is not local ingestion but an exact merge of K
// children's partial sketches drained from a transport::RoundBuffer.
// Because a partial carries the child's complete additive merge state,
// the root's releases are bit-identical to a single process ingesting the
// union of the children's report slices — the tree changes where folding
// happens, never what is folded.
//
// Topology (K aggregators, one root):
//
//   clients ──packets──> AggregatorNode 0 ─┐
//   clients ──packets──> AggregatorNode 1 ─┼─partial sketches─> RootSession
//   clients ──packets──> ...              ─┘       (RoundBuffer → merge →
//                                                   estimate → mechanism)
//
// Failure semantics at the root reuse the session's burned-round contract:
// a child whose partial never arrives before the round's deadline counts
// as `missing` in SketchMergeStats; if *no* child contributes any users
// the round has zero reports and the session permanently fails (see
// MechanismSession::Advance).
#ifndef LDPIDS_SERVICE_AGGREGATOR_H_
#define LDPIDS_SERVICE_AGGREGATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "fo/frequency_oracle.h"
#include "fo/sketch_wire.h"
#include "service/ingest.h"
#include "service/session.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"

namespace ldpids::obs {
class Counter;
template <typename Stats>
class StatsFeed;
}  // namespace ldpids::obs

namespace ldpids::service {

struct AggregatorOptions {
  // Ingestion shards per round; 0 = adaptive (see ReportRouter).
  std::size_t num_shards = 1;
  // Identity this node stamps into the partials it emits. Must be unique
  // within one merge tree — the root dedups partials by it.
  uint64_t node_id = 0;
  // Observability (optional): registers ldpids_aggregator_* counters and
  // the canonical arena and ingest metrics, labeled {node=metrics_label}
  // (unlabeled when the label is empty). Write-only, like
  // SessionOptions::metrics.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_label;
};

// The ingest half of the session stack as a standalone component: one
// node executes collection rounds against a RoundTransport and produces
// resolved sketches — optionally encoded and shipped upstream as partial
// sketches. Stateless across rounds except for cumulative accounting;
// not thread-safe (one node per ingest thread, like one session).
class AggregatorNode {
 public:
  AggregatorNode(const FrequencyOracle& fo, OracleId oracle,
                 std::size_t domain, AggregatorOptions options = {});
  // Out of line: the feed member's type is incomplete here.
  ~AggregatorNode();

  // Executes one round's ingest: ReportRouter open → `ingest` delivers
  // the packets → close into `out->sketch`, with stats and (when `timed`)
  // stage windows. Exceptions from the transport propagate; `*out` is
  // discarded wholesale by callers on throw.
  void ExecuteRound(const RoundRequest& request, const RoundTransport& ingest,
                    bool timed, RoundOutcome* out);

  // ExecuteRound + partial-sketch encoding: one leaf round of the merge
  // tree. A round that accepted zero reports still encodes a valid
  // (all-zero, num_users = 0) partial — whether the *tree's* round is
  // burned is the root's call, not a leaf's.
  std::vector<uint8_t> RunRoundToPartial(const RoundRequest& request,
                                         const RoundTransport& ingest,
                                         IngestStats* stats = nullptr);

  // RunRoundToPartial + upstream transmission as a kPartialSketch frame.
  void RunRoundUpstream(const RoundRequest& request,
                        const RoundTransport& ingest,
                        transport::FrameSender& upstream,
                        uint64_t session_id);

  uint64_t node_id() const { return options_.node_id; }
  std::size_t domain() const { return domain_; }
  OracleId oracle() const { return oracle_; }
  // Rounds executed and acceptance accounting accumulated across them.
  uint64_t rounds() const { return rounds_; }
  const IngestStats& stats() const { return stats_; }

 private:
  const FrequencyOracle& fo_;
  const OracleId oracle_;
  const std::size_t domain_;
  AggregatorOptions options_;
  uint64_t rounds_ = 0;
  IngestStats stats_;
  // Observability (null when options_.metrics is).
  std::unique_ptr<obs::StatsFeed<IngestStats>> ingest_feed_;
  std::unique_ptr<obs::StatsFeed<ArenaDecodeStats>> arena_feed_;
  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* partials_counter_ = nullptr;
  obs::Counter* partial_bytes_counter_ = nullptr;
};

// Which aggregator a user reports to. Both modes are deterministic pure
// functions of (user, num_nodes[, salt]), so every party — fleet
// simulation, real client, test — computes the same slice without
// coordination, and the union of the slices is exactly the population.
enum class AssignMode : uint8_t {
  // splitmix64(user ^ salt) % num_nodes: stable under population growth
  // (a user's node never depends on num_users) and load-balanced in
  // expectation for arbitrary user-id distributions.
  kStableHash = 0,
  // Contiguous balanced ranges: node = user * num_nodes / num_users.
  // Deterministic equal-size slices (±1), the natural mode for dense
  // 0..n-1 simulated populations and for the pinned exactness tests.
  kRange = 1,
};

// Load-balance policy mapping users onto the tree's aggregators.
class UserAssignment {
 public:
  // `num_users` is the population size range mode slices over (ignored by
  // stable-hash except for Partition's output sizing). Throws
  // std::invalid_argument when num_nodes is 0 or (range mode) num_users
  // is 0.
  UserAssignment(std::size_t num_nodes, uint64_t num_users,
                 AssignMode mode = AssignMode::kRange, uint64_t salt = 0);

  std::size_t num_nodes() const { return num_nodes_; }
  AssignMode mode() const { return mode_; }

  // Node of one user (user < num_users for range mode).
  std::size_t NodeOf(uint32_t user) const;

  // Splits the whole population 0..num_users-1 into per-node cohorts,
  // each in increasing user order.
  std::vector<std::vector<uint32_t>> PartitionAll() const;

  // Splits an explicit cohort into per-node slices, preserving the
  // cohort's order within each slice — so each node's slice is exactly
  // the subsequence of the round's cohort it owns, and the concatenation
  // across nodes is a permutation of the cohort.
  std::vector<std::vector<uint32_t>> Partition(
      const std::vector<uint32_t>& cohort) const;

 private:
  std::size_t num_nodes_;
  uint64_t num_users_;
  AssignMode mode_;
  uint64_t salt_;
};

// A mechanism session whose rounds are collected by a merge tree: the
// root drains K children's partial sketches from `buffer` and folds them
// into the round sketch with full typed rejection accounting
// (sketch_merge_stats()); estimation and the mechanism run untouched.
//
// Round lifecycle: at announce time the root (a) forwards the request to
// the caller's announce hook — which must make the children run the round
// (example_merge_tree pushes round descriptors down pipes) — and (b)
// injects a synthetic end-of-round marker with expected count K into its
// own buffer: children never send markers, because only the root knows
// the tree's fan-in. The RoundBuffer then provides completion, node-level
// dedup (PacketIdentity = emitting node id) and late/duplicate absorption
// exactly as it does for report frames.
class RootSession {
 public:
  // `num_children` is the tree's fan-in K (> 0); `session_id` keys the
  // synthetic markers (must match the id children stamp on their partial
  // frames). `buffer` must outlive the session and its round deadline
  // bounds how long a round waits for slow or dead children.
  RootSession(std::unique_ptr<StreamMechanism> mechanism, std::size_t domain,
              SessionOptions options, std::size_t num_children,
              uint64_t session_id, transport::RoundBuffer& buffer,
              RoundAnnounce announce = nullptr);

  // See MechanismSession::Advance — identical contract, including the
  // zero-report burn (here: no child contributed any users) and permanent
  // failure semantics.
  StepResult Advance() { return session_->Advance(); }
  bool failed() const { return session_->failed(); }

  MechanismSession& session() { return *session_; }
  const MechanismSession& session() const { return *session_; }
  const SketchMergeStats& merge_stats() const {
    return session_->sketch_merge_stats();
  }
  std::size_t num_children() const { return num_children_; }

 private:
  void MergeRound(const RoundRequest& request, bool timed, RoundOutcome* out);

  const FrequencyOracle& fo_;
  const OracleId oracle_;
  const std::size_t num_children_;
  const uint64_t session_id_;
  transport::RoundBuffer& buffer_;
  std::unique_ptr<MechanismSession> session_;
};

}  // namespace ldpids::service

#endif  // LDPIDS_SERVICE_AGGREGATOR_H_
