#include "serve/service.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "fault/failpoint.h"
#include "matchers/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlbench::serve {

namespace {

// Shared histogram shapes. Latency/wait cover 10us .. ~5s; batch sizes
// cover 1 .. 2048 pairs.
const std::vector<double>& LatencyBoundsMs() {
  static const std::vector<double> bounds =
      obs::ExponentialBounds(0.01, 2.0, 20);
  return bounds;
}

const std::vector<double>& BatchPairBounds() {
  static const std::vector<double> bounds = obs::ExponentialBounds(1.0, 2.0, 12);
  return bounds;
}

// Size of the rolling latency window behind RollingP99Ms; big enough for a
// stable tail estimate, small enough that the shed controller reacts to
// the last few hundred requests, not ancient history.
constexpr size_t kLatencyRingSize = 512;

}  // namespace

MatchService::MatchService(const matchers::MatchingContext* context,
                           MatchServiceOptions options)
    : context_(context), options_(options), shed_(options.shed) {
  RLBENCH_CHECK(context_ != nullptr);
  RLBENCH_CHECK(options_.max_batch_pairs > 0);
  RLBENCH_CHECK(options_.queue_capacity_pairs >= options_.max_batch_pairs);
  latency_ring_.resize(kLatencyRingSize, 0.0);
  // Drift monitoring: opt-in per service, or force-enabled process-wide
  // via RLBENCH_DRIFT. Off means no tracker — the PumpOne hook is a null
  // check and serving is byte-identical to the pre-drift behaviour.
  if (options_.drift_enabled || drift::DriftEnvEnabled()) {
    drift_ = std::make_unique<drift::DriftTracker>(context_, options_.drift);
  }
}

Status MatchService::InstallSnapshot(const Snapshot& snapshot) {
  if (snapshot.model == nullptr) {
    return Status::InvalidArgument("serve: snapshot has no model");
  }
  if (snapshot.metadata.dataset_id != context_->task().name()) {
    return Status::FailedPrecondition(
        "serve: snapshot trained on \"" + snapshot.metadata.dataset_id +
        "\" but serving \"" + context_->task().name() + "\"");
  }
  return SwapModel(snapshot.model);
}

void MatchService::RewarmAll(const matchers::TrainedModel* extra) {
  // Different model families read different lazy store columns (q-gram
  // pools, or nothing beyond the token columns); PrepareContext is
  // idempotent, so preparing every installed model builds the union.
  // No batch is in flight here: the service is single-threaded and
  // ScoreBatch's parallel region always completes before PumpOne returns.
  std::shared_ptr<const matchers::TrainedModel> primary = model_.Acquire();
  const matchers::TrainedModel* models[] = {
      primary.get(), fallback_.get(),
      shadow_ != nullptr ? shadow_->candidate().get() : nullptr, extra};
  for (const matchers::TrainedModel* model : models) {
    if (model != nullptr) model->PrepareContext(*context_);
  }
}

Status MatchService::SwapModel(
    std::shared_ptr<const matchers::TrainedModel> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("serve: cannot install a null model");
  }
  size_t attrs = context_->task().left().schema().num_attributes();
  if (model->num_attrs() != attrs) {
    return Status::FailedPrecondition(
        "serve: model expects " + std::to_string(model->num_attrs()) +
        " attributes, dataset has " + std::to_string(attrs));
  }
  RLBENCH_TRACE_SPAN("serve/swap");
  RewarmAll(model.get());
  model_.Swap(std::move(model));
  RLBENCH_COUNTER_INC("serve/swaps");
  return Status::OK();
}

Status MatchService::SetFallbackModel(
    std::shared_ptr<const matchers::TrainedModel> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("serve: cannot install a null fallback");
  }
  size_t attrs = context_->task().left().schema().num_attributes();
  if (model->num_attrs() != attrs) {
    return Status::FailedPrecondition(
        "serve: fallback expects " + std::to_string(model->num_attrs()) +
        " attributes, dataset has " + std::to_string(attrs));
  }
  fallback_ = std::move(model);
  RewarmAll(nullptr);
  return Status::OK();
}

Status MatchService::SetQuotas(const std::string& spec) {
  RLBENCH_ASSIGN_OR_RETURN(admission_, AdmissionController::Parse(spec));
  return Status::OK();
}

Result<uint64_t> MatchService::Submit(std::vector<data::LabeledPair> pairs,
                                      ResponseCallback done) {
  return SubmitWithDeadline(std::move(pairs), options_.default_deadline_ms,
                            std::move(done));
}

Result<uint64_t> MatchService::SubmitWithDeadline(
    std::vector<data::LabeledPair> pairs, double deadline_ms,
    ResponseCallback done) {
  SubmitOptions submit;
  submit.deadline_ms = deadline_ms;
  return SubmitRequest(std::move(pairs), submit, std::move(done));
}

void MatchService::ObservePressure() {
  if (!options_.shed_enabled) return;
  double fill = options_.queue_capacity_pairs == 0
                    ? 0.0
                    : static_cast<double>(queued_pairs_) /
                          static_cast<double>(options_.queue_capacity_pairs);
  shed_.Observe(fill, RollingP99Ms());
}

Result<uint64_t> MatchService::SubmitRequest(
    std::vector<data::LabeledPair> pairs, const SubmitOptions& submit,
    ResponseCallback done) {
  RLBENCH_COUNTER_INC("serve/requests");
  last_retry_after_ms_ = 0.0;
  if (model_.Empty()) {
    RLBENCH_COUNTER_INC("serve/rejected");
    return Status::FailedPrecondition("serve: no model installed");
  }
  if (pairs.empty()) {
    RLBENCH_COUNTER_INC("serve/rejected");
    return Status::InvalidArgument("serve: empty request");
  }
  if (pairs.size() > options_.max_batch_pairs) {
    RLBENCH_COUNTER_INC("serve/rejected");
    return Status::InvalidArgument(
        "serve: request of " + std::to_string(pairs.size()) +
        " pairs exceeds max batch of " +
        std::to_string(options_.max_batch_pairs));
  }
  const size_t left_size = context_->task().left().size();
  const size_t right_size = context_->task().right().size();
  for (const data::LabeledPair& pair : pairs) {
    if (pair.left >= left_size || pair.right >= right_size) {
      RLBENCH_COUNTER_INC("serve/rejected");
      return Status::InvalidArgument(
          "serve: pair (" + std::to_string(pair.left) + ", " +
          std::to_string(pair.right) + ") out of range");
    }
  }
  if (!admission_.Unmetered()) {
    double now_ms = uptime_.ElapsedMillis();
    if (!admission_.Admit(submit.tenant, now_ms)) {
      RLBENCH_COUNTER_INC("serve/rejected");
      last_retry_after_ms_ = admission_.RetryAfterMs(submit.tenant, now_ms);
      return Status::ResourceExhausted("serve: tenant \"" + submit.tenant +
                                       "\" over quota");
    }
  }
  if (auto hit = RLBENCH_FAULT_POINT("serve/queue/full")) {
    RLBENCH_COUNTER_INC("serve/rejected");
    return Status::ResourceExhausted("injected: queue full");
  }
  if (queued_pairs_ + pairs.size() > options_.queue_capacity_pairs) {
    RLBENCH_COUNTER_INC("serve/rejected");
    return Status::ResourceExhausted(
        "serve: queue full (" + std::to_string(queued_pairs_) +
        " pairs pending, capacity " +
        std::to_string(options_.queue_capacity_pairs) + ")");
  }
  ObservePressure();
  ShedTier tier = options_.shed_enabled ? shed_.tier() : ShedTier::kFull;
  if (tier == ShedTier::kReject) {
    ++tier_counts_[static_cast<size_t>(ShedTier::kReject)];
    RLBENCH_COUNTER_INC("serve/shed/rejected");
    RLBENCH_COUNTER_INC("serve/rejected");
    last_retry_after_ms_ = options_.shed_retry_after_ms;
    return Status::ResourceExhausted(
        "serve: shedding load, retry after " +
        std::to_string(options_.shed_retry_after_ms) + " ms");
  }
  if (tier == ShedTier::kDegraded && fallback_ == nullptr) {
    // Degradation needs a fallback scorer; without one the request is
    // served at full tier — the ladder simply has no middle rung.
    tier = ShedTier::kFull;
  }
  ++tier_counts_[static_cast<size_t>(tier)];
  if (options_.shed_enabled) {
    RLBENCH_COUNTER_INC(tier == ShedTier::kDegraded ? "serve/shed/degraded"
                                                    : "serve/shed/full");
  }
  Pending request;
  request.id = next_request_id_++;
  request.deadline_ms = submit.deadline_ms;
  request.tier = tier;
  request.done = std::move(done);
  queued_pairs_ += pairs.size();
  ++queue_depth_;
  request.pairs = std::move(pairs);
  uint64_t id = request.id;
  queues_[submit.tenant].push_back(std::move(request));
  RLBENCH_GAUGE_OBSERVE("serve/queue_pairs",
                        static_cast<double>(queued_pairs_));
  return id;
}

void MatchService::Respond(Pending* request, RequestOutcome outcome) {
  double latency_ms = request->age.ElapsedMillis();
  RLBENCH_HISTOGRAM_RECORD("serve/latency_ms", LatencyBoundsMs(), latency_ms);
  latency_ring_[latency_next_] = latency_ms;
  latency_next_ = (latency_next_ + 1) % latency_ring_.size();
  latency_count_ = std::min(latency_count_ + 1, latency_ring_.size());
  if (request->done) {
    outcome.request_id = request->id;
    outcome.tier = request->tier;
    request->done(outcome);
  }
}

double MatchService::RollingP99Ms() const {
  if (latency_count_ == 0) return 0.0;
  std::vector<double> window(latency_ring_.begin(),
                             latency_ring_.begin() + latency_count_);
  size_t rank = (window.size() * 99) / 100;
  if (rank >= window.size()) rank = window.size() - 1;
  std::nth_element(window.begin(), window.begin() + rank, window.end());
  return window[rank];
}

std::vector<MatchService::Pending> MatchService::TakeBatch(
    size_t* batch_pairs, ShedTier* batch_tier) {
  // Rotation order: tenants after the cursor first, then wrap. The cursor
  // advances to the last tenant served, so a steady flood from one tenant
  // cannot shut out the others — each pump visits every tenant before
  // revisiting. One batch carries one tier only (one model scores it); a
  // tenant whose head is the other tier just waits for the next pump.
  std::vector<std::string> rotation;
  rotation.reserve(queues_.size());
  for (auto it = queues_.upper_bound(cursor_); it != queues_.end(); ++it) {
    rotation.push_back(it->first);
  }
  for (auto it = queues_.begin();
       it != queues_.end() && it->first <= cursor_; ++it) {
    rotation.push_back(it->first);
  }
  std::vector<Pending> taken;
  bool progress = true;
  while (progress && *batch_pairs < options_.max_batch_pairs) {
    progress = false;
    for (const std::string& tenant : rotation) {
      auto it = queues_.find(tenant);
      if (it == queues_.end() || it->second.empty()) continue;
      Pending& head = it->second.front();
      if (taken.empty()) {
        *batch_tier = head.tier;
      } else if (head.tier != *batch_tier ||
                 *batch_pairs + head.pairs.size() >
                     options_.max_batch_pairs) {
        continue;
      }
      *batch_pairs += head.pairs.size();
      queued_pairs_ -= head.pairs.size();
      --queue_depth_;
      taken.push_back(std::move(head));
      it->second.pop_front();
      if (it->second.empty()) queues_.erase(it);
      cursor_ = tenant;
      progress = true;
      if (*batch_pairs >= options_.max_batch_pairs) break;
    }
  }
  return taken;
}

size_t MatchService::PumpOne() {
  if (queue_depth_ == 0) return 0;
  RLBENCH_TRACE_SPAN("serve/pump");
  size_t batch_pairs = 0;
  ShedTier batch_tier = ShedTier::kFull;
  std::vector<Pending> taken = TakeBatch(&batch_pairs, &batch_tier);

  // Pin the scoring model for the whole batch: the primary snapshot for
  // full tier (a concurrent publisher swapping the slot cannot pull it out
  // from under us), the linear fallback for degraded tier.
  std::shared_ptr<const matchers::TrainedModel> model =
      batch_tier == ShedTier::kDegraded ? fallback_ : model_.Acquire();
  RLBENCH_CHECK(model != nullptr);  // Submit rejects before the first install

  // Per-request admission at pump time: expired deadlines and injected
  // worker faults are answered with an error; the rest are scored in one
  // ScoreBatch dispatch. A fault degrades that one request, never the
  // batch or the process.
  std::vector<size_t> live;
  std::vector<data::LabeledPair> flat;
  live.reserve(taken.size());
  flat.reserve(batch_pairs);
  for (size_t i = 0; i < taken.size(); ++i) {
    Pending& request = taken[i];
    RLBENCH_HISTOGRAM_RECORD("serve/queue_wait_ms", LatencyBoundsMs(),
                             request.age.ElapsedMillis());
    bool expired = request.deadline_ms > 0.0 &&
                   request.age.ElapsedMillis() > request.deadline_ms;
    if (auto hit = RLBENCH_FAULT_POINT("serve/deadline")) expired = true;
    if (expired) {
      RLBENCH_COUNTER_INC("serve/deadline_expired");
      RequestOutcome outcome;
      outcome.status = Status::DeadlineExceeded(
          "serve: request expired after " +
          std::to_string(request.age.ElapsedMillis()) + " ms in queue");
      Respond(&request, std::move(outcome));
      continue;
    }
    if (auto hit = RLBENCH_FAULT_POINT("serve/worker/fault")) {
      RLBENCH_COUNTER_INC("serve/worker_faults");
      RequestOutcome outcome;
      outcome.status = Status::Internal("injected: worker fault");
      Respond(&request, std::move(outcome));
      continue;
    }
    live.push_back(i);
    flat.insert(flat.end(), request.pairs.begin(), request.pairs.end());
  }

  if (!flat.empty()) {
    std::vector<double> scores(flat.size());
    std::vector<uint8_t> decisions(flat.size());
    Status scored;
    Stopwatch batch_clock;
    {
      RLBENCH_TRACE_SPAN("serve/batch");
      scored = model->ScoreBatch(*context_, flat, scores, decisions);
    }
    double primary_ms = batch_clock.ElapsedMillis();
    RLBENCH_COUNTER_INC("serve/batches");
    RLBENCH_COUNTER_ADD("serve/pairs_scored", flat.size());
    RLBENCH_HISTOGRAM_RECORD("serve/batch_pairs", BatchPairBounds(),
                             static_cast<double>(flat.size()));
    size_t offset = 0;
    for (size_t i : live) {
      Pending& request = taken[i];
      RequestOutcome outcome;
      outcome.status = scored;
      if (scored.ok()) {
        outcome.results.resize(request.pairs.size());
        for (size_t j = 0; j < request.pairs.size(); ++j) {
          outcome.results[j].score = scores[offset + j];
          outcome.results[j].decision = decisions[offset + j];
        }
      }
      offset += request.pairs.size();
      Respond(&request, std::move(outcome));
    }
    // Shadow-score after the batch is answered, on full-tier live traffic
    // only: the candidate sees what CURRENT served, and the response path
    // never waits on it.
    if (shadow_ != nullptr && batch_tier == ShedTier::kFull && scored.ok()) {
      ShadowEvaluator::Verdict verdict =
          shadow_->RecordBatch(*context_, flat, decisions, primary_ms);
      if (verdict == ShadowEvaluator::Verdict::kPromote) {
        shadow_event_.kind = ShadowEvent::Kind::kPromoted;
        shadow_event_.metadata = shadow_->metadata();
        shadow_event_.stats = shadow_->stats();
        std::shared_ptr<const matchers::TrainedModel> candidate =
            shadow_->candidate();
        shadow_.reset();
        // The swap cannot fail: StartShadow already validated the
        // candidate against this dataset.
        Status promoted = SwapModel(std::move(candidate));
        RLBENCH_CHECK(promoted.ok());
        RLBENCH_COUNTER_INC("serve/shadow/promoted");
      } else if (verdict == ShadowEvaluator::Verdict::kRollback) {
        shadow_event_.kind = ShadowEvent::Kind::kRolledBack;
        shadow_event_.metadata = shadow_->metadata();
        shadow_event_.stats = shadow_->stats();
        shadow_.reset();
        RLBENCH_COUNTER_INC("serve/shadow/rolled_back");
      }
    }
    // Difficulty-drift sampling rides the same full-tier choke point: the
    // tracker sees exactly what CURRENT answered, in serve order, after
    // the responses went out. This is the only serve-path drift hook
    // (lint rule `drift`); with monitoring off it costs one null check.
    if (drift_ != nullptr && batch_tier == ShedTier::kFull && scored.ok()) {
      drift_->RecordBatch(flat, scores, decisions);
    }
  }
  return taken.size();
}

DriftStatus MatchService::DriftSnapshot() const {
  DriftStatus status;
  if (drift_ == nullptr) return status;
  status.enabled = true;
  status.state = drift::DriftStateName(drift_->state());
  status.windows = drift_->reservoir().windows_completed();
  status.transitions = drift_->controller().transitions();
  status.triggers = drift_->controller().triggers();
  status.sampled_pairs = drift_->reservoir().sampled();
  status.window_pairs = drift_->reservoir().window_pairs();
  status.has_measures = drift_->has_measures();
  if (drift_->has_measures()) {
    const drift::WindowMeasures& latest = drift_->latest();
    status.best_linear_f1 = latest.best_linear_f1;
    status.complexity_avg = latest.complexity_avg;
    status.nlb = latest.nlb;
    status.lbm = latest.lbm;
  }
  return status;
}

bool MatchService::TakeDriftTrigger(DriftStatus* status) {
  if (drift_ == nullptr) return false;
  drift::DriftEvent event = drift_->ConsumeEvent();
  if (event.kind != drift::DriftEvent::Kind::kTriggered) return false;
  if (status != nullptr) *status = DriftSnapshot();
  return true;
}

void MatchService::RearmDrift() {
  if (drift_ != nullptr) drift_->Rearm();
}

Result<std::shared_ptr<const matchers::TrainedModel>>
MatchService::RetrainMatcher(const std::string& name, uint64_t seed) {
  RLBENCH_TRACE_SPAN("serve/retrain");
  RLBENCH_COUNTER_INC("serve/retrains");
  // Training builds what it reads; afterwards every installed family and
  // the new model are prepared again so the next batch only reads.
  auto model = matchers::TrainServableMatcher(name, *context_, seed);
  RewarmAll(model.ok() ? model->get() : nullptr);
  if (!model.ok()) {
    RLBENCH_COUNTER_INC("serve/retrain_failures");
    return model.status();
  }
  return std::shared_ptr<const matchers::TrainedModel>(std::move(*model));
}

size_t MatchService::Drain() {
  RLBENCH_TRACE_SPAN("serve/drain");
  size_t answered = 0;
  while (queue_depth_ > 0) answered += PumpOne();
  return answered;
}

Status MatchService::StartShadow(
    std::shared_ptr<const matchers::TrainedModel> candidate,
    SnapshotMetadata metadata, ShadowOptions options) {
  if (candidate == nullptr) {
    return Status::InvalidArgument("serve: cannot shadow a null model");
  }
  if (model_.Empty()) {
    return Status::FailedPrecondition(
        "serve: no primary model to shadow against");
  }
  if (shadow_ != nullptr) {
    return Status::FailedPrecondition(
        "serve: a shadow window is already active (" +
        shadow_->metadata().matcher_name + ")");
  }
  size_t attrs = context_->task().left().schema().num_attributes();
  if (candidate->num_attrs() != attrs) {
    return Status::FailedPrecondition(
        "serve: shadow candidate expects " +
        std::to_string(candidate->num_attrs()) + " attributes, dataset has " +
        std::to_string(attrs));
  }
  shadow_ = std::make_unique<ShadowEvaluator>(std::move(candidate),
                                              std::move(metadata), options);
  RewarmAll(nullptr);
  RLBENCH_COUNTER_INC("serve/shadow/started");
  return Status::OK();
}

bool MatchService::CancelShadow() {
  if (shadow_ == nullptr) return false;
  shadow_.reset();
  RLBENCH_COUNTER_INC("serve/shadow/cancelled");
  return true;
}

ShadowEvent MatchService::ConsumeShadowEvent() {
  ShadowEvent event = std::move(shadow_event_);
  shadow_event_ = ShadowEvent();
  return event;
}

Result<AssessResult> MatchService::AssessDataset(
    std::vector<double>* scores_out, std::vector<uint8_t>* decisions_out) {
  RLBENCH_TRACE_SPAN("serve/assess");
  std::shared_ptr<const matchers::TrainedModel> model = model_.Acquire();
  if (model == nullptr) {
    return Status::FailedPrecondition("serve: no model installed");
  }
  const std::vector<data::LabeledPair>& test = context_->task().test();
  std::vector<double> scores(test.size());
  std::vector<uint8_t> decisions(test.size());
  AssessResult result;
  result.matcher_name = model->matcher_name();
  result.pairs = test.size();
  for (size_t begin = 0; begin < test.size();
       begin += options_.max_batch_pairs) {
    size_t count = std::min(options_.max_batch_pairs, test.size() - begin);
    RLBENCH_RETURN_NOT_OK(model->ScoreBatch(
        *context_, std::span<const data::LabeledPair>(&test[begin], count),
        std::span<double>(scores).subspan(begin, count),
        std::span<uint8_t>(decisions).subspan(begin, count)));
    ++result.batches;
    RLBENCH_COUNTER_INC("serve/batches");
    RLBENCH_COUNTER_ADD("serve/pairs_scored", count);
    RLBENCH_HISTOGRAM_RECORD("serve/batch_pairs", BatchPairBounds(),
                             static_cast<double>(count));
  }
  std::vector<uint8_t> truth(test.size());
  for (size_t i = 0; i < test.size(); ++i) {
    truth[i] = test[i].is_match ? 1 : 0;
  }
  result.confusion = ml::Evaluate(truth, decisions);
  result.f1 = result.confusion.F1();
  if (scores_out != nullptr) *scores_out = std::move(scores);
  if (decisions_out != nullptr) *decisions_out = std::move(decisions);
  return result;
}

}  // namespace rlbench::serve
