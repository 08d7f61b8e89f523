#include "matchers/zeroer.h"

#include <memory>
#include <span>
#include <utility>

#include "matchers/features.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlbench::matchers {

std::vector<float> ZeroErSelectFeatures(std::span<const float> magellan_row) {
  std::vector<float> out;
  out.reserve(magellan_row.size() / kMagellanFeaturesPerAttr * 2);
  for (size_t base = 0; base + kMagellanFeaturesPerAttr <= magellan_row.size();
       base += kMagellanFeaturesPerAttr) {
    out.push_back(magellan_row[base]);      // Jaccard
    out.push_back(magellan_row[base + 3]);  // Monge-Elkan
  }
  return out;
}

namespace {

/// \brief Snapshot form of a fitted ZeroER mixture.
///
/// Scoring recomputes the pair's Magellan features, applies ZeroER's
/// feature selection, and reads the posterior of the match component —
/// the same float pipeline the matcher's Run() predicts through.
class TrainedZeroErModel final : public TrainedModel {
 public:
  TrainedZeroErModel(size_t num_attrs, ml::GaussianMixtureMatcher gmm)
      : num_attrs_(num_attrs), gmm_(std::move(gmm)) {}

  TrainedModelKind kind() const override { return TrainedModelKind::kZeroEr; }
  std::string matcher_name() const override { return "ZeroER"; }
  size_t num_attrs() const override { return num_attrs_; }
  const ml::GaussianMixtureMatcher& gmm() const { return gmm_; }

  double ScorePair(const MatchingContext& context,
                   const data::LabeledPair& pair) const override {
    std::vector<float> features(num_attrs_ * kMagellanFeaturesPerAttr);
    MagellanFeaturesColumnar(context.columnar(), pair, features);
    return gmm_.PredictScore(ZeroErSelectFeatures(features));
  }

  // The default DecideFromScore (score >= 0.5) is exactly
  // GaussianMixtureMatcher::Predict.

  void SerializePayload(BlobWriter* writer) const override {
    writer->WriteU64(num_attrs_);
    gmm_.Save(writer);
  }

 private:
  size_t num_attrs_;
  ml::GaussianMixtureMatcher gmm_;
};

}  // namespace

Result<std::unique_ptr<TrainedModel>> ZeroErMatcher::TrainModel(
    const MatchingContext& context) {
  // Pool all candidate pairs' features; labels carried by the datasets are
  // never read by the mixture model.
  const ml::Dataset& train = context.MagellanTrain();
  const ml::Dataset& valid = context.MagellanValid();
  const ml::Dataset& test = context.MagellanTest();

  size_t dim =
      ZeroErSelectFeatures(train.empty() ? test.row(0) : train.row(0)).size();
  ml::Dataset all(dim);
  all.Reserve(train.size() + valid.size() + test.size());
  for (const ml::Dataset* part : {&train, &valid, &test}) {
    for (size_t i = 0; i < part->size(); ++i) {
      all.Add(ZeroErSelectFeatures(part->row(i)), false);
    }
  }

  ml::GaussianMixtureMatcher gmm(options_.gmm);
  {
    RLBENCH_TRACE_SPAN("zeroer/fit");
    gmm.Fit(all);
  }
  size_t num_attrs = context.task().left().schema().num_attributes();
  return std::unique_ptr<TrainedModel>(
      std::make_unique<TrainedZeroErModel>(num_attrs, std::move(gmm)));
}

std::vector<uint8_t> ZeroErMatcher::Run(const MatchingContext& context) {
  RLBENCH_TRACE_SPAN("zeroer/run");
  RLBENCH_COUNTER_INC("matchers/zeroer/runs");
  auto model = TrainModel(context);
  RLBENCH_CHECK(model.ok());

  RLBENCH_TRACE_SPAN("zeroer/predict");
  const auto& trained = static_cast<const TrainedZeroErModel&>(**model);
  const ml::Dataset& test = context.MagellanTest();
  std::vector<uint8_t> predictions;
  predictions.reserve(test.size());
  for (size_t i = 0; i < test.size(); ++i) {
    predictions.push_back(
        trained.gmm().Predict(ZeroErSelectFeatures(test.row(i))) ? 1 : 0);
  }
  return predictions;
}

Result<std::unique_ptr<TrainedModel>> DeserializeZeroErModel(
    BlobReader* reader) {
  RLBENCH_ASSIGN_OR_RETURN(uint64_t num_attrs, reader->ReadU64());
  if (num_attrs == 0 || num_attrs > (1U << 16)) {
    return Status::IOError("zeroer model: implausible attribute count");
  }
  ml::GaussianMixtureMatcher gmm;
  RLBENCH_RETURN_NOT_OK(gmm.Load(reader));
  if (gmm.dim() != static_cast<size_t>(num_attrs) * 2) {
    return Status::IOError("zeroer model: mixture arity does not match schema");
  }
  return std::unique_ptr<TrainedModel>(std::make_unique<TrainedZeroErModel>(
      static_cast<size_t>(num_attrs), std::move(gmm)));
}

}  // namespace rlbench::matchers
