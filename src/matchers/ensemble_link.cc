#include "matchers/ensemble_link.h"

#include <cmath>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "data/columnar.h"
#include "matchers/features.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/kernels.h"

namespace rlbench::matchers {

namespace {

/// The nine ensemble signals of one pair, in the order documented in
/// ensemble_link.h. Reads only the columnar store (token-id spans are
/// built by the MatchingContext constructor; MagellanFeaturesColumnar is
/// the bit-exact hot path of the Magellan family), so live and snapshot
/// scoring share this single implementation.
void EnsembleSignals(const MatchingContext& context,
                     const data::LabeledPair& pair, size_t num_attrs,
                     std::span<double> out) {
  const data::ColumnarStore& store = context.columnar();
  text::kernels::SetSims sims = text::kernels::SetFamilySortedU32(
      store.TokenIdsAll(data::ColumnarStore::kLeft, pair.left),
      store.TokenIdsAll(data::ColumnarStore::kRight, pair.right));
  out[0] = sims.cosine;
  out[1] = sims.dice;
  out[2] = sims.jaccard;
  // Six Magellan families averaged across attributes, in their canonical
  // per-attribute order (attr-jaccard, levenshtein, jaro-winkler,
  // monge-elkan, numeric, exact). Serial fixed-order accumulation keeps
  // the means bit-identical at any thread count.
  std::vector<float> features(num_attrs * kMagellanFeaturesPerAttr);
  MagellanFeaturesColumnar(store, pair, features);
  for (size_t f = 0; f < kMagellanFeaturesPerAttr; ++f) {
    double sum = 0.0;
    for (size_t attr = 0; attr < num_attrs; ++attr) {
      sum += static_cast<double>(features[attr * kMagellanFeaturesPerAttr + f]);
    }
    out[3 + f] = sum / static_cast<double>(num_attrs);
  }
}

/// Weighted Borda vote share of one pair under the ensemble config.
double EnsembleScore(const MatchingContext& context,
                     const data::LabeledPair& pair, size_t num_attrs,
                     const EnsembleLinkOptions& options) {
  double signals[kEnsembleSignals];
  EnsembleSignals(context, pair, num_attrs, signals);
  double votes = 0.0;
  double total = 0.0;
  for (size_t s = 0; s < kEnsembleSignals; ++s) {
    total += options.weights[s];
    if (signals[s] >= options.thresholds[s]) votes += options.weights[s];
  }
  return votes / total;
}

class TrainedEnsembleLinkModel final : public TrainedModel {
 public:
  TrainedEnsembleLinkModel(EnsembleLinkOptions options, size_t num_attrs)
      : options_(std::move(options)), num_attrs_(num_attrs) {}

  TrainedModelKind kind() const override {
    return TrainedModelKind::kEnsembleLink;
  }
  std::string matcher_name() const override { return "EnsembleLink"; }
  size_t num_attrs() const override { return num_attrs_; }

  double ScorePair(const MatchingContext& context,
                   const data::LabeledPair& pair) const override {
    return EnsembleScore(context, pair, num_attrs_, options_);
  }

  bool DecideFromScore(double score) const override {
    return score >= options_.vote_fraction;
  }
  double decision_threshold() const override { return options_.vote_fraction; }

  Status ScoreBatch(const MatchingContext& context,
                    std::span<const data::LabeledPair> pairs,
                    std::span<double> scores,
                    std::span<uint8_t> decisions) const override {
    RLBENCH_TRACE_SPAN("ensemble/score_batch");
    RLBENCH_COUNTER_ADD("matchers/ensemble/pairs_scored", pairs.size());
    return TrainedModel::ScoreBatch(context, pairs, scores, decisions);
  }

  void SerializePayload(BlobWriter* writer) const override {
    writer->WriteU64(static_cast<uint64_t>(num_attrs_));
    writer->WriteDouble(options_.vote_fraction);
    writer->WriteU64(options_.seed);
    std::vector<double> thresholds(options_.thresholds.begin(),
                                   options_.thresholds.end());
    std::vector<double> weights(options_.weights.begin(),
                                options_.weights.end());
    writer->WriteDoubleVec(thresholds);
    writer->WriteDoubleVec(weights);
  }

 private:
  EnsembleLinkOptions options_;
  size_t num_attrs_;
};

}  // namespace

EnsembleLinkMatcher::EnsembleLinkMatcher(EnsembleLinkOptions options)
    : options_(options) {
  RLBENCH_CHECK(options_.vote_fraction >= 0.0 &&
                options_.vote_fraction <= 1.0);
}

Result<std::unique_ptr<TrainedModel>> EnsembleLinkMatcher::TrainModel(
    const MatchingContext& context) {
  // Training-free: the model is the configuration. Not a single train or
  // valid pair is read, which is exactly what makes this the zero-shot
  // fallback arm the drift loop can always reach for.
  RLBENCH_COUNTER_INC("matchers/ensemble/models_built");
  size_t num_attrs = context.task().left().schema().num_attributes();
  return std::unique_ptr<TrainedModel>(
      std::make_unique<TrainedEnsembleLinkModel>(options_, num_attrs));
}

std::vector<uint8_t> EnsembleLinkMatcher::Run(const MatchingContext& context) {
  RLBENCH_TRACE_SPAN("ensemble/run");
  RLBENCH_COUNTER_INC("matchers/ensemble/runs");
  auto model = TrainModel(context);
  RLBENCH_CHECK(model.ok());

  const auto& test = context.task().test();
  std::vector<double> scores(test.size());
  std::vector<uint8_t> predictions(test.size());
  Status scored = (*model)->ScoreBatch(context, test, scores, predictions);
  RLBENCH_CHECK(scored.ok());
  return predictions;
}

Result<std::unique_ptr<TrainedModel>> DeserializeEnsembleLinkModel(
    BlobReader* reader) {
  RLBENCH_ASSIGN_OR_RETURN(uint64_t num_attrs, reader->ReadU64());
  EnsembleLinkOptions options;
  RLBENCH_ASSIGN_OR_RETURN(options.vote_fraction, reader->ReadDouble());
  RLBENCH_ASSIGN_OR_RETURN(options.seed, reader->ReadU64());
  RLBENCH_ASSIGN_OR_RETURN(std::vector<double> thresholds,
                           reader->ReadDoubleVec());
  RLBENCH_ASSIGN_OR_RETURN(std::vector<double> weights,
                           reader->ReadDoubleVec());
  if (num_attrs == 0 || num_attrs > (1U << 16)) {
    return Status::IOError("ensemble model: implausible attribute count");
  }
  if (!(options.vote_fraction >= 0.0 && options.vote_fraction <= 1.0)) {
    return Status::IOError("ensemble model: vote fraction out of [0, 1]");
  }
  if (thresholds.size() != kEnsembleSignals ||
      weights.size() != kEnsembleSignals) {
    return Status::IOError("ensemble model: wrong signal count");
  }
  double weight_sum = 0.0;
  for (size_t s = 0; s < kEnsembleSignals; ++s) {
    if (!(thresholds[s] >= 0.0 && thresholds[s] <= 1.0)) {
      return Status::IOError("ensemble model: threshold out of [0, 1]");
    }
    if (!std::isfinite(weights[s]) || weights[s] < 0.0) {
      return Status::IOError("ensemble model: negative or non-finite weight");
    }
    options.thresholds[s] = thresholds[s];
    options.weights[s] = weights[s];
    weight_sum += weights[s];
  }
  if (weight_sum <= 0.0) {
    return Status::IOError("ensemble model: zero total vote weight");
  }
  return std::unique_ptr<TrainedModel>(std::make_unique<TrainedEnsembleLinkModel>(
      options, static_cast<size_t>(num_attrs)));
}

}  // namespace rlbench::matchers
