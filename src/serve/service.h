// The match-serving core: a bounded admission-controlled request queue in
// front of a micro-batcher that scores candidate pairs through the current
// hot-swappable model snapshot (swap.h) on the deterministic parallel pool.
//
// Execution model: the service itself is single-threaded — Submit()
// enqueues, PumpOne() coalesces queued requests into one batch and scores
// it with TrainedModel::ScoreBatch (whose ParallelFor is the only
// parallelism, keeping scores bit-identical at any thread count). The
// loopback server (server.h) pumps between socket events; tests pump
// directly. Admission control rejects at Submit time: a full queue returns
// ResourceExhausted, an oversized request InvalidArgument, and a request
// whose deadline lapses while queued is answered with DeadlineExceeded
// instead of being scored.
//
// Layered on the base queue (all opt-in, defaults preserve the plain
// single-queue service):
//
//   * Per-tenant admission (admission.h): requests carry a tenant id;
//     token-bucket quotas reject over-quota tenants with ResourceExhausted
//     and a Retry-After hint, and each tenant gets its own FIFO so the
//     micro-batcher round-robins fairly across tenants instead of letting
//     one flood starve the rest.
//   * Tiered load-shedding (shed.h): a hysteresis controller over queue
//     fill and rolling p99 degrades requests to the linear fallback model
//     (bit-identical to running that scorer directly), then to rejection.
//   * Shadow promotion (shadow.h): a candidate snapshot shadow-scores a
//     deterministic sample of full-tier traffic; the service promotes it
//     via hot-swap when the agreement/latency gates pass and rolls it back
//     on divergence or any shadow fault.
//
// Failpoints: serve/queue/full (forced admission rejection),
// serve/deadline (forced expiry at pump time), serve/worker/fault
// (per-request scoring failure — the request errors, the batch and the
// process live on), serve/shadow/score (shadow divergence). Metrics:
// serve/requests, serve/rejected, serve/deadline_expired,
// serve/worker_faults, serve/batches, serve/pairs_scored, serve/swaps,
// serve/quota/rejected, serve/shed/*, serve/shadow/*; histograms
// serve/latency_ms, serve/queue_wait_ms, serve/batch_pairs.
#ifndef RLBENCH_SRC_SERVE_SERVICE_H_
#define RLBENCH_SRC_SERVE_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "drift/tracker.h"
#include "matchers/context.h"
#include "matchers/trained_model.h"
#include "ml/metrics.h"
#include "serve/admission.h"
#include "serve/shadow.h"
#include "serve/shed.h"
#include "serve/snapshot.h"
#include "serve/swap.h"

namespace rlbench::serve {

struct MatchServiceOptions {
  /// Admission bound: total candidate pairs that may wait in the queue.
  size_t queue_capacity_pairs = 512;
  /// Micro-batch bound: pairs coalesced into one ScoreBatch dispatch; also
  /// the largest single request the service admits.
  size_t max_batch_pairs = 256;
  /// Deadline applied to Submit() (not SubmitWithDeadline); 0 = none.
  double default_deadline_ms = 0.0;
  /// Enable the tiered shed controller (off = every request is full tier,
  /// the pre-shedding behaviour).
  bool shed_enabled = false;
  ShedOptions shed;
  /// Retry-After hint attached to shed rejections (ms).
  double shed_retry_after_ms = 50.0;
  /// Enable difficulty-drift monitoring (src/drift/). The RLBENCH_DRIFT
  /// environment variable force-enables it process-wide; when neither is
  /// set the service holds no tracker and serving is byte-identical to
  /// the pre-drift behaviour (the hook is one null check).
  bool drift_enabled = false;
  drift::DriftTrackerOptions drift;
};

/// \brief Score + decision for one requested pair.
struct PairScore {
  double score = 0.0;
  uint8_t decision = 0;
};

/// \brief Terminal result of one queued request.
struct RequestOutcome {
  uint64_t request_id = 0;
  Status status;                   ///< per-request error, e.g. DeadlineExceeded
  ShedTier tier = ShedTier::kFull; ///< which model tier scored it
  std::vector<PairScore> results;  ///< one per requested pair when ok()
};

using ResponseCallback = std::function<void(const RequestOutcome&)>;

/// \brief Per-request admission parameters beyond the pairs themselves.
struct SubmitOptions {
  std::string tenant;       ///< "" = the anonymous tenant
  double deadline_ms = 0.0; ///< 0 = no deadline
};

/// \brief Served evaluation of the task's test split.
struct AssessResult {
  std::string matcher_name;
  size_t pairs = 0;
  size_t batches = 0;
  ml::Confusion confusion;
  double f1 = 0.0;
};

/// \brief What happened to the active shadow window, for the server to
/// surface (served-model identity, logs) after it pumps.
struct ShadowEvent {
  enum class Kind : uint8_t { kNone = 0, kPromoted = 1, kRolledBack = 2 };
  Kind kind = Kind::kNone;
  SnapshotMetadata metadata;
  ShadowStats stats;
};

/// \brief Plain-number view of the drift loop for the server's stats op
/// and manifests; keeps drift types out of server.cc (lint rule `drift`).
struct DriftStatus {
  bool enabled = false;
  std::string state;  ///< "stable" / "watch" / "triggered"
  uint64_t windows = 0;
  uint64_t transitions = 0;
  uint64_t triggers = 0;
  uint64_t sampled_pairs = 0;
  size_t window_pairs = 0;
  bool has_measures = false;
  double best_linear_f1 = 0.0;
  double complexity_avg = 0.0;
  double nlb = 0.0;
  double lbm = 0.0;
};

/// \brief Batched, admission-controlled scorer over one MatchingContext.
///
/// Not thread-safe: all members must be called from one thread (the
/// server's event loop). Parallelism happens inside ScoreBatch only.
class MatchService {
 public:
  explicit MatchService(const matchers::MatchingContext* context,
                        MatchServiceOptions options = {});

  const MatchServiceOptions& options() const { return options_; }

  /// Validate `snapshot` against the served dataset and make its model
  /// current (readers of an in-flight batch keep the old snapshot).
  [[nodiscard]] Status InstallSnapshot(const Snapshot& snapshot);

  /// Install a model directly (tests, in-process serving). Prepares the
  /// context for the model's feature family (TrainedModel::PrepareContext).
  [[nodiscard]] Status SwapModel(std::shared_ptr<const matchers::TrainedModel> model);

  /// The currently served model; null before the first install.
  std::shared_ptr<const matchers::TrainedModel> CurrentModel() const {
    return model_.Acquire();
  }

  /// Install the cheap linear scorer the degraded tier falls back to.
  /// Prepares the context for both models; preparing never rebuilds a
  /// built column, so installing a fallback never changes primary scores.
  [[nodiscard]] Status SetFallbackModel(
      std::shared_ptr<const matchers::TrainedModel> model);
  std::shared_ptr<const matchers::TrainedModel> FallbackModel() const {
    return fallback_;
  }

  /// Configure per-tenant quotas from the admission.h spec grammar.
  /// InvalidArgument on a malformed spec.
  [[nodiscard]] Status SetQuotas(const std::string& spec);

  /// Enqueue one request under the default deadline. Returns the request
  /// id, or: FailedPrecondition (no model), InvalidArgument (bad indices /
  /// empty / oversized request), ResourceExhausted (queue full, tenant
  /// over quota, or shed rejection). `done` fires exactly once, from
  /// PumpOne or Drain, never from Submit.
  [[nodiscard]] Result<uint64_t> Submit(std::vector<data::LabeledPair> pairs,
                          ResponseCallback done);
  [[nodiscard]] Result<uint64_t> SubmitWithDeadline(std::vector<data::LabeledPair> pairs,
                                      double deadline_ms,
                                      ResponseCallback done);
  /// Full-control variant: tenant-attributed, quota-metered, tier-stamped.
  [[nodiscard]] Result<uint64_t> SubmitRequest(
      std::vector<data::LabeledPair> pairs, const SubmitOptions& submit,
      ResponseCallback done);

  /// Retry-After hint (ms) of the most recent ResourceExhausted rejection
  /// (quota refill time, or the configured shed hint). 0 when the last
  /// rejection carried no hint.
  double LastRetryAfterMs() const { return last_retry_after_ms_; }

  /// Coalesce up to max_batch_pairs queued pairs into one scored batch and
  /// answer their requests. Requests are taken round-robin across tenant
  /// queues (FIFO within a tenant); one batch holds one tier only, since a
  /// batch is scored by exactly one model. Returns the number of requests
  /// answered (0 when idle). Coalescing never changes scores: each pair's
  /// score is a pure function of (model, context, pair).
  size_t PumpOne();

  /// Pump until the queue is empty (graceful shutdown path); every queued
  /// request is answered — scored or expired, never dropped.
  size_t Drain();

  size_t QueueDepth() const { return queue_depth_; }
  size_t QueuedPairs() const { return queued_pairs_; }

  /// Current shed tier (kFull when shedding is disabled).
  ShedTier CurrentTier() const { return shed_.tier(); }
  uint64_t ShedTransitions() const { return shed_.transitions(); }
  /// Requests admitted per tier + shed rejections, since construction.
  uint64_t TierCount(ShedTier tier) const {
    return tier_counts_[static_cast<size_t>(tier)];
  }

  /// p99 over the most recent served-request latencies (0 until the first
  /// response). Also the latency signal the shed controller sees.
  double RollingP99Ms() const;

  /// Begin a shadow window for `candidate` against CURRENT. Fails when no
  /// primary model is installed, a shadow is already active, or the
  /// candidate does not fit the dataset. Prepares the context for both
  /// models (primary scores are unchanged).
  [[nodiscard]] Status StartShadow(
      std::shared_ptr<const matchers::TrainedModel> candidate,
      SnapshotMetadata metadata, ShadowOptions options = {});
  /// The active shadow window, if any.
  const ShadowEvaluator* Shadow() const { return shadow_.get(); }
  /// Abort the active window without promoting. False when none is active.
  bool CancelShadow();
  /// The latest promotion/rollback outcome, cleared by this call.
  ShadowEvent ConsumeShadowEvent();

  /// The drift tracker, if monitoring is enabled (null otherwise). The
  /// serve hook itself lives in PumpOne; everything else (arming the
  /// zero-shot arm, consuming events) goes through the tracker directly.
  drift::DriftTracker* Drift() { return drift_.get(); }
  const drift::DriftTracker* Drift() const { return drift_.get(); }

  /// Plain-number drift summary for stats surfaces (empty-state defaults
  /// when monitoring is disabled).
  DriftStatus DriftSnapshot() const;

  /// Train a servable matcher against the served context mid-serve (the
  /// drift reaction path), then prepares the context again for every
  /// installed model and the new one; already-served scores are unchanged
  /// (the store's columns are never rebuilt). The returned
  /// model is ready for StartShadow. Must not be called while a batch is
  /// in flight (single-threaded service: call between pumps).
  [[nodiscard]] Result<std::shared_ptr<const matchers::TrainedModel>>
  RetrainMatcher(const std::string& name, uint64_t seed = 17);

  /// True exactly once per drift episode: the controller entered
  /// kTriggered. Fills `status` with the triggering window's summary.
  /// The caller reacts (retrain → publish → StartShadow) and then calls
  /// RearmDrift() once the episode is resolved.
  bool TakeDriftTrigger(DriftStatus* status);
  void RearmDrift();

  /// Score the task's entire test split through the served model in
  /// max_batch_pairs chunks and evaluate against ground truth. Optionally
  /// copies out the raw scores / decisions (test order).
  [[nodiscard]] Result<AssessResult> AssessDataset(std::vector<double>* scores_out = nullptr,
                                     std::vector<uint8_t>* decisions_out =
                                         nullptr);

 private:
  struct Pending {
    uint64_t id = 0;
    std::vector<data::LabeledPair> pairs;
    double deadline_ms = 0.0;
    ShedTier tier = ShedTier::kFull;
    Stopwatch age;  ///< runs from admission; queue wait and latency source
    ResponseCallback done;
  };

  /// Record latency and fire the callback.
  void Respond(Pending* request, RequestOutcome outcome);

  /// Prepare the context for every installed model (primary, fallback,
  /// shadow candidate) and `extra`. Preparing is idempotent and additive:
  /// built columns are never rebuilt, so scores stay bit-identical.
  void RewarmAll(const matchers::TrainedModel* extra);

  /// Take one batch of same-tier requests, round-robin across tenants.
  std::vector<Pending> TakeBatch(size_t* batch_pairs, ShedTier* batch_tier);

  /// Feed the shed controller one observation (no-op when disabled).
  void ObservePressure();

  const matchers::MatchingContext* context_;
  MatchServiceOptions options_;
  HotSwappable<matchers::TrainedModel> model_;
  std::shared_ptr<const matchers::TrainedModel> fallback_;
  AdmissionController admission_;
  ShedController shed_;
  std::unique_ptr<ShadowEvaluator> shadow_;
  ShadowEvent shadow_event_;
  std::unique_ptr<drift::DriftTracker> drift_;
  /// Per-tenant FIFOs (ordered map: deterministic rotation order) and the
  /// round-robin cursor (last tenant served).
  std::map<std::string, std::deque<Pending>> queues_;
  std::string cursor_;
  size_t queue_depth_ = 0;
  size_t queued_pairs_ = 0;
  uint64_t next_request_id_ = 1;
  uint64_t tier_counts_[3] = {0, 0, 0};
  double last_retry_after_ms_ = 0.0;
  /// Ring of recent request latencies feeding RollingP99Ms.
  std::vector<double> latency_ring_;
  size_t latency_next_ = 0;
  size_t latency_count_ = 0;
  Stopwatch uptime_;  ///< monotonic now_ms source for the token buckets
};

}  // namespace rlbench::serve

#endif  // RLBENCH_SRC_SERVE_SERVICE_H_
