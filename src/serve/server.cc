#include "serve/server.h"

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/wire.h"

namespace rlbench::serve {

namespace {

// `retry_after_ms` > 0 attaches the Retry-After hint a quota or shed
// rejection carries, so clients can back off instead of hammering.
std::string ErrorResponse(const Status& status, double retry_after_ms = 0.0) {
  std::string out = std::string("{\"ok\":false,\"code\":") +
                    obs::JsonString(StatusCodeName(status.code())) +
                    ",\"error\":" + obs::JsonString(status.message());
  if (status.code() == StatusCode::kResourceExhausted &&
      retry_after_ms > 0.0) {
    out += ",\"retry_after_ms\":" + obs::JsonNumber(retry_after_ms);
  }
  return out + "}";
}

// Record indices arrive as JSON numbers; anything negative, fractional or
// beyond uint32 is a protocol error, not a cast.
Result<uint32_t> ToIndex(double value) {
  if (!(value >= 0.0) || value > 4294967295.0 || value != std::floor(value)) {
    return Status::InvalidArgument("wire: record index must be a uint32");
  }
  return static_cast<uint32_t>(value);
}

Result<std::vector<data::LabeledPair>> ParsePairs(const JsonValue& request) {
  std::vector<data::LabeledPair> pairs;
  if (request.GetString("op") == "match_pair") {
    RLBENCH_ASSIGN_OR_RETURN(double left, RequireNumber(request, "left"));
    RLBENCH_ASSIGN_OR_RETURN(double right, RequireNumber(request, "right"));
    data::LabeledPair pair;
    RLBENCH_ASSIGN_OR_RETURN(pair.left, ToIndex(left));
    RLBENCH_ASSIGN_OR_RETURN(pair.right, ToIndex(right));
    pairs.push_back(pair);
    return pairs;
  }
  RLBENCH_ASSIGN_OR_RETURN(const JsonValue* array,
                           RequireArray(request, "pairs"));
  pairs.reserve(array->AsArray().size());
  for (const JsonValue& item : array->AsArray()) {
    if (!item.is_array() || item.AsArray().size() != 2) {
      return Status::InvalidArgument(
          "wire: each pair must be a [left, right] array");
    }
    data::LabeledPair pair;
    const JsonValue& left = item.AsArray()[0];
    const JsonValue& right = item.AsArray()[1];
    // AsNumber() reads a string, bool or null as 0.0; only a number is an
    // index.
    if (!left.is_number() || !right.is_number()) {
      return Status::InvalidArgument("wire: record index must be a uint32");
    }
    RLBENCH_ASSIGN_OR_RETURN(pair.left, ToIndex(left.AsNumber()));
    RLBENCH_ASSIGN_OR_RETURN(pair.right, ToIndex(right.AsNumber()));
    pairs.push_back(pair);
  }
  return pairs;
}

std::string MatchResponse(bool single, const RequestOutcome& outcome) {
  if (!outcome.status.ok()) return ErrorResponse(outcome.status);
  std::string tier =
      std::string(",\"tier\":") + obs::JsonString(ShedTierName(outcome.tier));
  if (single) {
    const PairScore& r = outcome.results[0];
    return "{\"ok\":true,\"score\":" + obs::JsonNumber(r.score) +
           ",\"decision\":" + (r.decision ? "1" : "0") + tier + "}";
  }
  std::string scores = "[";
  std::string decisions = "[";
  for (size_t i = 0; i < outcome.results.size(); ++i) {
    if (i > 0) {
      scores += ",";
      decisions += ",";
    }
    scores += obs::JsonNumber(outcome.results[i].score);
    decisions += outcome.results[i].decision ? "1" : "0";
  }
  return "{\"ok\":true,\"scores\":" + scores + "],\"decisions\":" + decisions +
         "]" + tier + "}";
}

const char* ShadowVerdictName(ShadowEvaluator::Verdict verdict) {
  switch (verdict) {
    case ShadowEvaluator::Verdict::kPending:
      return "pending";
    case ShadowEvaluator::Verdict::kPromote:
      return "promote";
    case ShadowEvaluator::Verdict::kRollback:
      return "rollback";
  }
  return "unknown";
}

}  // namespace

MatchServer::MatchServer(const matchers::MatchingContext* context,
                         MatchServerOptions options)
    : context_(context),
      options_(std::move(options)),
      service_(context, options_.service),
      loop_(options_.loop) {
  if (!options_.repository_root.empty()) {
    repository_.emplace(options_.repository_root);
  }
}

Status MatchServer::Start() {
  if (listening_) return Status::OK();
  RLBENCH_RETURN_NOT_OK(loop_.Listen(options_.port, &port_));
  listening_ = true;
  return Status::OK();
}

void MatchServer::AbsorbShadowEvent() {
  ShadowEvent event = service_.ConsumeShadowEvent();
  if (event.kind == ShadowEvent::Kind::kPromoted) {
    served_ = event.metadata;
  }
  if (event.kind != ShadowEvent::Kind::kNone && drift_candidate_active_) {
    // The drift-triggered candidate resolved (landed or rolled back);
    // either way the episode is over — re-arm the controller so the next
    // drifted window can open a fresh one.
    drift_candidate_active_ = false;
    service_.RearmDrift();
  }
}

void MatchServer::AbsorbDriftTrigger() {
  // While the promotion ladder is busy the trigger stays pending in the
  // tracker; we react on the first pump after the ladder frees up.
  if (service_.Shadow() != nullptr) return;
  DriftStatus trigger;
  if (!service_.TakeDriftTrigger(&trigger)) return;
  std::string name = options_.drift_retrain_matcher;
  if (name.empty() && served_.has_value()) name = served_->matcher_name;
  if (name.empty()) name = "EnsembleLink";
  auto candidate = service_.RetrainMatcher(name);
  if (!candidate.ok() && name != "EnsembleLink") {
    // The zero-shot fallback arm needs no labels and always trains.
    name = "EnsembleLink";
    candidate = service_.RetrainMatcher(name);
  }
  if (!candidate.ok()) {
    RLBENCH_COUNTER_INC("drift/reaction_failures");
    service_.RearmDrift();
    return;
  }
  SnapshotMetadata metadata;
  metadata.matcher_name = name;
  metadata.dataset_id = context_->task().name();
  metadata.num_attrs = context_->task().left().schema().num_attributes();
  if (repository_.has_value()) {
    auto version = repository_->Publish(metadata, **candidate);
    if (version.ok()) metadata.version = *version;
  }
  Status started =
      service_.StartShadow(*candidate, metadata, options_.drift_shadow);
  if (!started.ok()) {
    RLBENCH_COUNTER_INC("drift/reaction_failures");
    service_.RearmDrift();
    return;
  }
  RLBENCH_COUNTER_INC("drift/reactions");
  drift_candidate_active_ = true;
}

std::string MatchServer::HandleRequest(const std::string& payload) {
  ++requests_served_;
  auto parsed = ParseJson(payload);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const JsonValue& request = *parsed;
  const std::string op = request.GetString("op");

  if (op == "match_pair" || op == "match_batch") {
    auto pairs = ParsePairs(request);
    if (!pairs.ok()) return ErrorResponse(pairs.status());
    const bool single = op == "match_pair";
    SubmitOptions submit;
    submit.tenant = request.GetString("tenant");
    submit.deadline_ms = request.GetNumber(
        "deadline_ms", service_.options().default_deadline_ms);
    std::string response;
    auto submitted = service_.SubmitRequest(
        std::move(*pairs), submit,
        [single, &response](const RequestOutcome& outcome) {
          response = MatchResponse(single, outcome);
        });
    if (!submitted.ok()) {
      return ErrorResponse(submitted.status(), service_.LastRetryAfterMs());
    }
    service_.Drain();
    AbsorbShadowEvent();
    AbsorbDriftTrigger();
    return response;
  }

  if (op == "ping") {
    std::string out = "{\"ok\":true,\"dataset\":" +
                      obs::JsonString(context_->task().name());
    if (served_.has_value()) {
      out += ",\"matcher\":" + obs::JsonString(served_->matcher_name) +
             ",\"version\":" + std::to_string(served_->version);
    } else {
      out += ",\"matcher\":null";
    }
    return out + "}";
  }

  if (op == "assess") {
    auto result = service_.AssessDataset();
    if (!result.ok()) return ErrorResponse(result.status());
    return "{\"ok\":true,\"matcher\":" + obs::JsonString(result->matcher_name) +
           ",\"pairs\":" + std::to_string(result->pairs) +
           ",\"batches\":" + std::to_string(result->batches) +
           ",\"f1\":" + obs::JsonNumber(result->f1) +
           ",\"precision\":" + obs::JsonNumber(result->confusion.Precision()) +
           ",\"recall\":" + obs::JsonNumber(result->confusion.Recall()) + "}";
  }

  if (op == "stats") {
    std::string out =
        "{\"ok\":true,\"queue_depth\":" + std::to_string(service_.QueueDepth()) +
        ",\"queued_pairs\":" + std::to_string(service_.QueuedPairs()) +
        ",\"requests_served\":" + std::to_string(requests_served_) +
        ",\"connections\":" + std::to_string(loop_.ActiveConnections()) +
        ",\"tier\":" + obs::JsonString(ShedTierName(service_.CurrentTier())) +
        ",\"shed_transitions\":" + std::to_string(service_.ShedTransitions()) +
        ",\"tier_full\":" +
        std::to_string(service_.TierCount(ShedTier::kFull)) +
        ",\"tier_degraded\":" +
        std::to_string(service_.TierCount(ShedTier::kDegraded)) +
        ",\"tier_rejected\":" +
        std::to_string(service_.TierCount(ShedTier::kReject)) +
        ",\"p99_ms\":" + obs::JsonNumber(service_.RollingP99Ms()) +
        ",\"shadow_active\":" +
        (service_.Shadow() != nullptr ? "true" : "false") +
        ",\"dataset\":" + obs::JsonString(context_->task().name());
    DriftStatus drift = service_.DriftSnapshot();
    out += std::string(",\"drift_enabled\":") +
           (drift.enabled ? "true" : "false");
    if (drift.enabled) {
      out += ",\"drift\":{\"state\":" + obs::JsonString(drift.state) +
             ",\"window_pairs\":" + std::to_string(drift.window_pairs) +
             ",\"windows\":" + std::to_string(drift.windows) +
             ",\"transitions\":" + std::to_string(drift.transitions) +
             ",\"triggers\":" + std::to_string(drift.triggers) +
             ",\"sampled_pairs\":" + std::to_string(drift.sampled_pairs) +
             ",\"best_linear_f1\":" + obs::JsonNumber(drift.best_linear_f1) +
             ",\"complexity_avg\":" + obs::JsonNumber(drift.complexity_avg) +
             ",\"nlb\":" + obs::JsonNumber(drift.nlb) +
             ",\"lbm\":" + obs::JsonNumber(drift.lbm) + "}";
    }
    if (served_.has_value()) {
      out += ",\"matcher\":" + obs::JsonString(served_->matcher_name) +
             ",\"version\":" + std::to_string(served_->version);
    } else {
      out += ",\"matcher\":null";
    }
    return out + "}";
  }

  if (op == "reload") {
    if (!repository_.has_value()) {
      return ErrorResponse(Status::FailedPrecondition(
          "serve: no model repository configured"));
    }
    auto matcher = RequireString(request, "matcher");
    if (!matcher.ok()) return ErrorResponse(matcher.status());
    double version = request.GetNumber("version", 0.0);
    auto snapshot = version > 0.0
                        ? repository_->Load(*matcher,
                                            static_cast<uint64_t>(version))
                        : repository_->LoadCurrent(*matcher);
    if (!snapshot.ok()) return ErrorResponse(snapshot.status());
    Status installed = service_.InstallSnapshot(*snapshot);
    if (!installed.ok()) return ErrorResponse(installed);
    served_ = snapshot->metadata;
    return "{\"ok\":true,\"matcher\":" +
           obs::JsonString(snapshot->metadata.matcher_name) +
           ",\"version\":" + std::to_string(snapshot->metadata.version) + "}";
  }

  if (op == "shadow_start") {
    if (!repository_.has_value()) {
      return ErrorResponse(Status::FailedPrecondition(
          "serve: no model repository configured"));
    }
    auto matcher = RequireString(request, "matcher");
    if (!matcher.ok()) return ErrorResponse(matcher.status());
    double version = request.GetNumber("version", 0.0);
    auto snapshot = version > 0.0
                        ? repository_->Load(*matcher,
                                            static_cast<uint64_t>(version))
                        : repository_->LoadCurrent(*matcher);
    if (!snapshot.ok()) return ErrorResponse(snapshot.status());
    ShadowOptions shadow;
    shadow.sample_fraction =
        request.GetNumber("sample_fraction", shadow.sample_fraction);
    shadow.min_samples = static_cast<size_t>(
        request.GetNumber("min_samples",
                          static_cast<double>(shadow.min_samples)));
    shadow.target_samples = static_cast<size_t>(
        request.GetNumber("target_samples",
                          static_cast<double>(shadow.target_samples)));
    shadow.min_agreement =
        request.GetNumber("min_agreement", shadow.min_agreement);
    shadow.max_latency_ratio =
        request.GetNumber("max_latency_ratio", shadow.max_latency_ratio);
    shadow.seed = static_cast<uint64_t>(
        request.GetNumber("seed", static_cast<double>(shadow.seed)));
    Status started = service_.StartShadow(snapshot->model,
                                          snapshot->metadata, shadow);
    if (!started.ok()) return ErrorResponse(started);
    return "{\"ok\":true,\"matcher\":" +
           obs::JsonString(snapshot->metadata.matcher_name) +
           ",\"version\":" + std::to_string(snapshot->metadata.version) + "}";
  }

  if (op == "shadow_status") {
    const ShadowEvaluator* shadow = service_.Shadow();
    std::string out = std::string("{\"ok\":true,\"active\":") +
                      (shadow != nullptr ? "true" : "false");
    if (shadow != nullptr) {
      const ShadowStats& stats = shadow->stats();
      out += ",\"matcher\":" +
             obs::JsonString(shadow->metadata().matcher_name) +
             ",\"version\":" + std::to_string(shadow->metadata().version) +
             ",\"sampled\":" + std::to_string(stats.sampled_pairs) +
             ",\"agreed\":" + std::to_string(stats.agreed_pairs) +
             ",\"agreement\":" + obs::JsonNumber(stats.Agreement()) +
             ",\"latency_ratio\":" + obs::JsonNumber(stats.LatencyRatio()) +
             ",\"faults\":" + std::to_string(stats.faults) + ",\"verdict\":" +
             obs::JsonString(ShadowVerdictName(shadow->CurrentVerdict()));
    }
    return out + "}";
  }

  if (op == "shadow_cancel") {
    bool cancelled = service_.CancelShadow();
    return std::string("{\"ok\":true,\"cancelled\":") +
           (cancelled ? "true" : "false") + "}";
  }

  if (op == "shutdown") {
    // Everything already queued is answered before the acknowledgement
    // goes out: a shutdown never drops accepted work.
    size_t drained = service_.Drain();
    AbsorbShadowEvent();
    AbsorbDriftTrigger();
    shutdown_ = true;
    return "{\"ok\":true,\"drained\":" + std::to_string(drained) + "}";
  }

  return ErrorResponse(
      Status::InvalidArgument("wire: unknown op \"" + op + "\""));
}

void MatchServer::OnFrame(uint64_t conn_id, std::string payload) {
  auto slot = std::make_shared<Slot>();
  slots_[conn_id].push_back(slot);
  if (shutdown_) {
    // Late frame during drain: a clean error beats silence or a hang.
    slot->response = ErrorResponse(
        Status::FailedPrecondition("serve: shutting down"));
    slot->ready = true;
    return;
  }
  auto parsed = ParseJson(payload);
  const std::string op = parsed.ok() ? parsed->GetString("op") : std::string();
  if (parsed.ok() && (op == "match_pair" || op == "match_batch")) {
    ++requests_served_;
    auto pairs = ParsePairs(*parsed);
    if (!pairs.ok()) {
      slot->response = ErrorResponse(pairs.status());
      slot->ready = true;
      return;
    }
    const bool single = op == "match_pair";
    SubmitOptions submit;
    submit.tenant = parsed->GetString("tenant");
    submit.deadline_ms = parsed->GetNumber(
        "deadline_ms", service_.options().default_deadline_ms);
    // The callback owns a reference to the slot: even if the connection is
    // evicted before the service answers, the write lands in a live slot
    // (and FlushReadySlots simply drops slots of dead connections).
    auto submitted = service_.SubmitRequest(
        std::move(*pairs), submit,
        [single, slot](const RequestOutcome& outcome) {
          slot->response = MatchResponse(single, outcome);
          slot->ready = true;
        });
    if (!submitted.ok()) {
      slot->response =
          ErrorResponse(submitted.status(), service_.LastRetryAfterMs());
      slot->ready = true;
    }
    return;
  }
  // Sync op (or parse error): drain first so its answer reflects every
  // match op that arrived before it, then answer inline.
  service_.Drain();
  AbsorbShadowEvent();
  AbsorbDriftTrigger();
  slot->response = HandleRequest(payload);
  slot->ready = true;
}

void MatchServer::FlushReadySlots() {
  for (auto it = slots_.begin(); it != slots_.end();) {
    std::deque<std::shared_ptr<Slot>>& queue = it->second;
    while (!queue.empty() && queue.front()->ready) {
      loop_.Respond(it->first, queue.front()->response);
      queue.pop_front();
    }
    if (queue.empty() || !loop_.HasConnection(it->first)) {
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t MatchServer::PendingSlots() const {
  size_t pending = 0;
  for (const auto& [conn_id, queue] : slots_) pending += queue.size();
  return pending;
}

Status MatchServer::Serve() {
  RLBENCH_RETURN_NOT_OK(Start());
  RLBENCH_TRACE_SPAN("serve/loop");
  int quiet_ticks = 0;
  while (true) {
    // Short ticks once draining: shutdown latency is bounded by a few of
    // these, not by the idle poll timeout.
    const int timeout_ms = shutdown_ ? 5 : options_.tick_timeout_ms;
    auto frames = loop_.Tick(
        timeout_ms, [this](uint64_t conn_id, std::string payload) {
          OnFrame(conn_id, std::move(payload));
        });
    if (!frames.ok()) return frames.status();
    // Answer everything the tick submitted, then emit responses in
    // per-connection request order.
    service_.Drain();
    AbsorbShadowEvent();
    AbsorbDriftTrigger();
    FlushReadySlots();
    if (shutdown_) {
      if (!loop_.draining()) loop_.BeginDrain();
      const bool idle =
          *frames == 0 && PendingSlots() == 0 && loop_.AllFlushed();
      quiet_ticks = idle ? quiet_ticks + 1 : 0;
      // A couple of quiet ticks give frames already in kernel buffers a
      // chance to arrive and be answered with the shutdown error.
      if (quiet_ticks >= 2) break;
    }
  }
  service_.Drain();
  return Status::OK();
}

}  // namespace rlbench::serve
