#include "service/session.h"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/collector.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "obs/stats_feed.h"
#include "service/aggregator.h"
#include "transport/round_buffer.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids::service {

// Implements the mechanism-facing CollectorContext by opening one sharded
// ingestion round per Collect call.
//
// Serial mode (pipeline_depth == 1): each round is announced, ingested
// and estimated synchronously inside Collect.
//
// Pipelined mode (pipeline_depth > 1): a round becomes a RoundJob. Its
// announce half fires on the session thread the moment the round is
// opened; its ingest half (transport -> shard fold -> merge) runs on one
// dedicated worker thread that executes jobs strictly in round_index
// order (RoundBuffer::TakeRound requires in-order draining). When the
// mechanism pre-declares its next round via PlanNextCollect, that round
// is announced while the current round is still folding or estimating —
// the announce/ingest stage of round r+1 overlaps the estimate stage of
// round r. Claiming (waiting for a job, accumulating its stats, running
// EstimateInto) always happens on the session thread in round order, so
// results and accounting are bit-identical to the serial path.
class MechanismSession::WireCollector final : public CollectorContext {
 public:
  WireCollector(MechanismSession& session, const std::string& fo,
                std::size_t domain, uint64_t num_users)
      : session_(session),
        fo_(GetFrequencyOracle(fo)),
        oracle_(OracleIdFromName(fo)),
        domain_(domain),
        num_users_(num_users),
        pipelined_(session.options_.pipeline_depth > 1) {
    if (pipelined_) {
      worker_ = std::thread([this] { WorkerLoop(); });
    }
  }

  ~WireCollector() override {
    if (!pipelined_) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    // The worker drains every queued job before exiting: each was already
    // announced, so its frames must leave the RoundBuffer deterministically
    // (bounded by the buffer's round deadline if the packets never come).
    worker_.join();
  }

  std::size_t domain() const override { return domain_; }
  uint64_t num_users() const override { return num_users_; }

  // Users perturb on their own devices, so the mechanism's RNG is unused.
  void Collect(std::size_t t, double epsilon,
               const std::vector<uint32_t>* subset, Rng& /*rng*/,
               uint64_t* n_out, Histogram* out) override {
    JobPtr job;
    if (!prefetched_.empty()) {
      // The mechanism planned this round and it is already announced (and
      // possibly folded). A plan is a budget commitment, so the call must
      // match it exactly.
      job = std::move(prefetched_.front());
      prefetched_.pop_front();
      if (job->request.timestamp != t || job->request.epsilon != epsilon ||
          subset != nullptr) {
        throw std::logic_error(
            "mechanism broke its pipelined round plan: the announced round "
            "does not match this Collect call");
      }
    } else {
      job = EnqueueRound(t, epsilon, subset);
    }
    // Announce the mechanism's next planned round (if any) before blocking:
    // its ingestion proceeds while this round is estimated.
    FlushPendingPlan();

    if (pipelined_) {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return job->done; });
    }
    if (job->error) std::rethrow_exception(job->error);
    RoundOutcome& outcome = job->outcome;
    const uint64_t round = job->request.round_index;
    session_.stats_ += outcome.stats;  // claim order == round order
    session_.sketch_merges_ += outcome.sketch_merges;
    if (session_.ingest_feed_) session_.ingest_feed_->Add(outcome.stats);
    if (session_.arena_feed_) session_.arena_feed_->Add(outcome.decode_stats);
    if (session_.sketch_merge_feed_) {
      session_.sketch_merge_feed_->Add(outcome.sketch_merges);
    }
    // The source's stage events, emitted once the round is claimed; the
    // round's in-flight mark (see RunJob) ends here too.
    obs::StageSink& sink = session_.sink_;
    for (const obs::StageEvent& event : outcome.events) sink.Emit(event);
    sink.End(obs::Stage::kTransportRtt);
    last_round_index_ = round;
    if (outcome.sketch->num_users() == 0) {
      throw std::runtime_error("collection round accepted zero reports");
    }
    if (n_out != nullptr) *n_out = outcome.sketch->num_users();
    if (!sink.enabled()) {
      outcome.sketch->EstimateInto(out);
      return;
    }
    const uint64_t t0 = obs::NowNs();
    outcome.sketch->EstimateInto(out);
    step_estimate_end_ns_ = obs::NowNs();
    sink.Emit({obs::Stage::kEstimate, round, t0, step_estimate_end_ns_});
  }

  double MeanVariance(double epsilon, uint64_t n) const override {
    return fo_.MeanVariance(epsilon, n, domain_);
  }

  // End of the latest EstimateInto in the current step, 0 when no round
  // has been consumed since the last call. Advance() uses it to time the
  // post-process stage (mechanism logic after its last estimate).
  uint64_t TakeStepEstimateEnd() {
    const uint64_t t = step_estimate_end_ns_;
    step_estimate_end_ns_ = 0;
    return t;
  }

  // Round index of the newest consumed round (Advance tags the
  // post-process event with it).
  uint64_t last_round_index() const { return last_round_index_; }

  void PlanNextCollect(std::size_t t, double epsilon) override {
    if (!pipelined_) return;  // serial collectors ignore the hint
    if (has_plan_) {
      throw std::logic_error(
          "mechanism planned two rounds without collecting in between");
    }
    has_plan_ = true;
    plan_t_ = t;
    plan_epsilon_ = epsilon;
  }

  // Announces the pending plan once pipeline_depth allows another round in
  // flight. Called inside Collect and again at the end of Advance (a step
  // that ends without a publication plans its next round after its last
  // Collect returned).
  void FlushPendingPlan() {
    if (!has_plan_) return;
    if (prefetched_.size() + 1 >= session_.options_.pipeline_depth) return;
    has_plan_ = false;
    prefetched_.push_back(EnqueueRound(plan_t_, plan_epsilon_, nullptr));
  }

 private:
  // One FO collection round in flight. `request.cohort` (when non-null)
  // points at the calling mechanism's cohort vector, which outlives the
  // job because Collect blocks until the job is done; planned rounds are
  // always whole-population.
  struct RoundJob {
    RoundRequest request;
    // Sketch + accounting + stage events, filled by RunJob (possibly on
    // the ingest worker) through the session's RoundSource and read by the
    // session thread strictly after the `done` handshake — the mutex
    // hand-off orders these plain fields, so every event is emitted on
    // the session thread.
    RoundOutcome outcome;
    std::exception_ptr error;
    bool done = false;
  };
  using JobPtr = std::shared_ptr<RoundJob>;

  // Session thread only: assigns the round index, fires the announce half
  // and hands the ingest half to the worker (or runs it inline when
  // serial).
  JobPtr EnqueueRound(std::size_t t, double epsilon,
                      const std::vector<uint32_t>* cohort) {
    if (t > std::numeric_limits<uint32_t>::max()) {
      throw std::invalid_argument("timestamp does not fit the wire");
    }
    auto job = std::make_shared<RoundJob>();
    job->request.timestamp = t;
    job->request.epsilon = epsilon;
    job->request.domain = domain_;
    job->request.oracle = oracle_;
    job->request.cohort = cohort;
    job->request.round_index = session_.rounds_++;
    if (session_.rounds_counter_ != nullptr) session_.rounds_counter_->Add(1);
    // Every announced round gets its announce event now, including a
    // prefetched round the mechanism may never claim.
    obs::StageSink& sink = session_.sink_;
    if (sink.enabled()) {
      const uint64_t t0 = obs::NowNs();
      if (session_.announce_) session_.announce_(job->request);
      sink.Emit({obs::Stage::kAnnounce, job->request.round_index, t0,
                 obs::NowNs()});
    } else if (session_.announce_) {
      session_.announce_(job->request);
    }
    if (pipelined_) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(job);
      }
      work_cv_.notify_all();
    } else {
      RunJob(*job);
      job->done = true;
    }
    return job;
  }

  // The ingest stage of one round, delegated to the session's RoundSource
  // (local sharded ingestion via an AggregatorNode, or a root's
  // partial-sketch merge).
  void RunJob(RoundJob& job) {
    obs::StageSink& sink = session_.sink_;
    // In-flight mark: the health model sees this round's ingest as begun
    // until the session thread claims the round (or the End below on the
    // error path).
    sink.Begin(obs::Stage::kTransportRtt, job.request.round_index);
    try {
      session_.source_(job.request, sink.enabled(), &job.outcome);
    } catch (...) {
      job.error = std::current_exception();
      sink.End(obs::Stage::kTransportRtt);
    }
  }

  void WorkerLoop() {
    for (;;) {
      JobPtr job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop requested and fully drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      RunJob(*job);
      {
        std::lock_guard<std::mutex> lock(mu_);
        job->done = true;
      }
      done_cv_.notify_all();
    }
  }

  MechanismSession& session_;
  const FrequencyOracle& fo_;
  const OracleId oracle_;
  const std::size_t domain_;
  const uint64_t num_users_;
  const bool pipelined_;

  // Session-thread state: the mechanism's recorded-but-unannounced plan
  // and the announced-but-unclaimed rounds, in round order.
  uint64_t step_estimate_end_ns_ = 0;  // see TakeStepEstimateEnd
  uint64_t last_round_index_ = 0;      // newest consumed round
  bool has_plan_ = false;
  std::size_t plan_t_ = 0;
  double plan_epsilon_ = 0.0;
  std::deque<JobPtr> prefetched_;

  // Worker handoff (pipelined mode only).
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<JobPtr> queue_;
  bool stop_ = false;
  std::thread worker_;
};

MechanismSession::MechanismSession(
    std::unique_ptr<StreamMechanism> mechanism, std::size_t domain,
    SessionOptions options, RoundTransport transport)
    : MechanismSession(std::move(mechanism), domain, options,
                       SplitRoundTransport{nullptr, std::move(transport)}) {}

MechanismSession::MechanismSession(
    std::unique_ptr<StreamMechanism> mechanism, std::size_t domain,
    SessionOptions options, SplitRoundTransport transport)
    : MechanismSession(std::move(mechanism), domain, options,
                       std::move(transport.announce),
                       /*merge_source=*/false) {
  if (!transport.ingest) {
    throw std::invalid_argument("session needs a transport");
  }
  AggregatorOptions agg;
  agg.num_shards = options_.num_shards;
  aggregator_ = std::make_unique<AggregatorNode>(
      GetFrequencyOracle(mechanism_->config().fo),
      OracleIdFromName(mechanism_->config().fo), domain, agg);
  source_ = [this, ingest = std::move(transport.ingest)](
                const RoundRequest& request, bool timed,
                RoundOutcome* out) {
    aggregator_->ExecuteRound(request, ingest, timed, out);
  };
}

MechanismSession::MechanismSession(
    std::unique_ptr<StreamMechanism> mechanism, std::size_t domain,
    SessionOptions options, RoundAnnounce announce, RoundSource source)
    : MechanismSession(std::move(mechanism), domain, options,
                       std::move(announce), /*merge_source=*/true) {
  if (!source) {
    throw std::invalid_argument("session needs a round source");
  }
  source_ = std::move(source);
}

namespace {

// Rejects a malformed session before any member registers metrics or a
// recorder track, so a refused session leaves nothing behind.
SessionOptions ValidatedOptions(const StreamMechanism* mechanism,
                                std::size_t domain, SessionOptions options) {
  if (mechanism == nullptr) {
    throw std::invalid_argument("session needs a mechanism");
  }
  if (domain < 2) {
    throw std::invalid_argument("session domain must have >= 2 values");
  }
  if (options.num_threads == 0) {
    throw std::invalid_argument("session threads must be >= 1");
  }
  if (options.pipeline_depth == 0) {
    throw std::invalid_argument("session pipeline depth must be >= 1");
  }
  return options;
}

}  // namespace

MechanismSession::MechanismSession(
    std::unique_ptr<StreamMechanism> mechanism, std::size_t domain,
    SessionOptions options, RoundAnnounce announce, bool merge_source)
    : mechanism_(std::move(mechanism)),
      options_(ValidatedOptions(mechanism_.get(), domain, std::move(options))),
      sink_(options_.metrics, options_.metrics_label, options_.recorder),
      announce_(std::move(announce)) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    obs::Labels labels;
    if (!options_.metrics_label.empty()) {
      labels.emplace_back("session", options_.metrics_label);
    }
    ingest_feed_ = std::make_unique<obs::StatsFeed<IngestStats>>(&reg, labels);
    arena_feed_ =
        std::make_unique<obs::StatsFeed<ArenaDecodeStats>>(&reg, labels);
    if (merge_source) {
      sketch_merge_feed_ =
          std::make_unique<obs::StatsFeed<SketchMergeStats>>(&reg, labels);
    }
    rounds_counter_ = &reg.GetCounter("ldpids_session_rounds_total", labels);
    advances_counter_ =
        &reg.GetCounter("ldpids_session_advances_total", labels);
    // Static descriptors for /statusz: which mechanism/oracle/topology
    // this session label maps to.
    obs::Labels info = labels;
    info.emplace_back("mechanism", mechanism_->name());
    info.emplace_back("fo", mechanism_->config().fo);
    info.emplace_back("pipeline", std::to_string(options_.pipeline_depth));
    info.emplace_back("shards", std::to_string(options_.num_shards));
    reg.GetGauge("ldpids_session_info", info).Set(1);
  }
  collector_ = std::make_unique<WireCollector>(
      *this, mechanism_->config().fo, domain, mechanism_->num_users());
}

MechanismSession::~MechanismSession() {
  // Join the ingest worker before anything else dies: a prefetched round
  // may still be running against source_/aggregator_ (and the mechanism's
  // oracle), which are destroyed after collector_ in member order. Then
  // nothing touches the track again, and sink_'s destructor closes it, so
  // the health model reads this session's silence as "finished", not
  // stalled.
  collector_.reset();
}

std::size_t MechanismSession::domain() const { return collector_->domain(); }

StepResult MechanismSession::Advance() {
  if (failed_) {
    throw std::logic_error(
        "session failed in an earlier round; its w-event accounting is "
        "unrecoverable — create a fresh session");
  }
  try {
    StepResult result = mechanism_->Step(*collector_, next_t_);
    // Post-process: mechanism work after its last estimate of the step
    // (smoothing, budget bookkeeping, release assembly). The estimate end
    // is 0 when the sink is inert.
    const uint64_t estimate_end = collector_->TakeStepEstimateEnd();
    if (estimate_end != 0) {
      sink_.Emit({obs::Stage::kPostProcess, collector_->last_round_index(),
                  estimate_end, obs::NowNs()});
    }
    if (advances_counter_ != nullptr) advances_counter_->Add(1);
    // A step that ends without a publication records its plan after its
    // last Collect returned; announce it now so the next timestamp's round
    // is in flight before Advance returns.
    collector_->FlushPendingPlan();
    ++next_t_;
    return result;
  } catch (...) {
    failed_ = true;
    // A failed session will never progress again by contract; close its
    // track immediately so the watchdog reports the failure as "session
    // gone", not as a permanently-stalled round.
    sink_.Close();
    throw;
  }
}

RoundTransport MakeBufferedTransport(transport::RoundBuffer& buffer,
                                     RoundAnnounce announce,
                                     std::size_t num_threads) {
  return [&buffer, announce = std::move(announce), num_threads](
             const RoundRequest& request, ReportRouter& router) {
    if (announce) announce(request);
    router.IngestBatch(buffer.TakeRound(request.round_index), num_threads);
  };
}

SplitRoundTransport MakeBufferedSplitTransport(transport::RoundBuffer& buffer,
                                               RoundAnnounce announce,
                                               std::size_t num_threads) {
  SplitRoundTransport split;
  split.announce = std::move(announce);
  split.ingest = [&buffer, num_threads](const RoundRequest& request,
                                        ReportRouter& router) {
    router.IngestBatch(buffer.TakeRound(request.round_index), num_threads);
  };
  return split;
}

}  // namespace ldpids::service
