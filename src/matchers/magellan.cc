#include "matchers/magellan.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/parallel.h"
#include "matchers/features.h"
#include "ml/decision_tree.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlbench::matchers {

namespace {

// Chunk of candidate pairs per dispatch when scoring a served batch.
constexpr size_t kPairGrain = 256;

const char* ClassifierRowName(MagellanClassifier classifier) {
  switch (classifier) {
    case MagellanClassifier::kDecisionTree:
      return "Magellan-DT";
    case MagellanClassifier::kLogisticRegression:
      return "Magellan-LR";
    case MagellanClassifier::kRandomForest:
      return "Magellan-RF";
    case MagellanClassifier::kLinearSvm:
      return "Magellan-SVM";
  }
  return "Magellan";
}

std::unique_ptr<ml::Classifier> BuildClassifier(MagellanClassifier classifier,
                                                uint64_t seed) {
  switch (classifier) {
    case MagellanClassifier::kDecisionTree: {
      ml::DecisionTreeOptions options;
      options.seed = seed;
      return std::make_unique<ml::DecisionTree>(options);
    }
    case MagellanClassifier::kLogisticRegression: {
      ml::LogisticRegressionOptions options;
      options.seed = seed;
      return std::make_unique<ml::LogisticRegression>(options);
    }
    case MagellanClassifier::kRandomForest: {
      ml::RandomForestOptions options;
      options.seed = seed;
      return std::make_unique<ml::RandomForest>(options);
    }
    case MagellanClassifier::kLinearSvm: {
      ml::LinearSvmOptions options;
      options.seed = seed;
      return std::make_unique<ml::LinearSvm>(options);
    }
  }
  return nullptr;
}

/// \brief Snapshot form of a fitted Magellan classifier.
///
/// Scoring recomputes MagellanFeatures for the requested pairs through the
/// same ml::Dataset::BuildParallel fill that MatchingContext uses for its
/// cached feature datasets, so a served row carries the identical bits the
/// classifier saw during Run(). Decisions come from the classifier's own
/// Predict (the SVM thresholds its raw margin, not the sigmoid score).
class TrainedMagellanModel final : public TrainedModel {
 public:
  TrainedMagellanModel(MagellanClassifier classifier, uint64_t seed,
                       size_t num_attrs,
                       std::unique_ptr<ml::Classifier> model)
      : classifier_(classifier),
        seed_(seed),
        num_attrs_(num_attrs),
        model_(std::move(model)) {}

  TrainedModelKind kind() const override {
    return TrainedModelKind::kMagellan;
  }
  std::string matcher_name() const override {
    return ClassifierRowName(classifier_);
  }
  size_t num_attrs() const override { return num_attrs_; }
  const ml::Classifier& classifier() const { return *model_; }

  double ScorePair(const MatchingContext& context,
                   const data::LabeledPair& pair) const override {
    std::vector<float> features(num_attrs_ * kMagellanFeaturesPerAttr);
    MagellanFeaturesColumnar(context.columnar(), pair, features);
    return model_->PredictScore(features);
  }

  Status ScoreBatch(const MatchingContext& context,
                    std::span<const data::LabeledPair> pairs,
                    std::span<double> scores,
                    std::span<uint8_t> decisions) const override {
    if (scores.size() != pairs.size() || decisions.size() != pairs.size()) {
      return Status::InvalidArgument(
          "ScoreBatch: output spans must match the pair count");
    }
    size_t dim = num_attrs_ * kMagellanFeaturesPerAttr;
    RLBENCH_ASSIGN_OR_RETURN(
        ml::Dataset rows,
        ml::Dataset::BuildParallel(
            dim, pairs.size(), [&](size_t i, std::span<float> row) {
              MagellanFeaturesColumnar(context.columnar(), pairs[i], row);
              return pairs[i].is_match;
            }));
    ParallelFor(0, pairs.size(), kPairGrain, [&](size_t i) {
      scores[i] = model_->PredictScore(rows.row(i));
      decisions[i] = model_->Predict(rows.row(i)) ? 1 : 0;
    });
    return Status::OK();
  }

  void SerializePayload(BlobWriter* writer) const override {
    writer->WriteU8(static_cast<uint8_t>(classifier_));
    writer->WriteU64(seed_);
    writer->WriteU64(num_attrs_);
    switch (classifier_) {
      case MagellanClassifier::kDecisionTree:
        static_cast<const ml::DecisionTree&>(*model_).Save(writer);
        break;
      case MagellanClassifier::kLogisticRegression:
        static_cast<const ml::LogisticRegression&>(*model_).Save(writer);
        break;
      case MagellanClassifier::kRandomForest:
        static_cast<const ml::RandomForest&>(*model_).Save(writer);
        break;
      case MagellanClassifier::kLinearSvm:
        static_cast<const ml::LinearSvm&>(*model_).Save(writer);
        break;
    }
  }

 private:
  MagellanClassifier classifier_;
  uint64_t seed_;
  size_t num_attrs_;
  std::unique_ptr<ml::Classifier> model_;
};

}  // namespace

std::string MagellanMatcher::name() const {
  return ClassifierRowName(classifier_);
}

Result<std::unique_ptr<TrainedModel>> MagellanMatcher::TrainModel(
    const MatchingContext& context) {
  auto model = BuildClassifier(classifier_, options_.seed);
  RLBENCH_COUNTER_INC("matchers/magellan/runs");
  {
    RLBENCH_TRACE_SPAN("magellan/fit");
    model->Fit(context.MagellanTrain(), context.MagellanValid());
  }
  size_t num_attrs = context.task().left().schema().num_attributes();
  return std::unique_ptr<TrainedModel>(std::make_unique<TrainedMagellanModel>(
      classifier_, options_.seed, num_attrs, std::move(model)));
}

std::vector<uint8_t> MagellanMatcher::Run(const MatchingContext& context) {
  auto model = TrainModel(context);
  RLBENCH_CHECK(model.ok());
  RLBENCH_TRACE_SPAN("magellan/predict");
  // The context's cached test-feature dataset carries the same bits a
  // served batch recomputes; predicting it directly skips one extraction.
  const auto& trained = static_cast<const TrainedMagellanModel&>(**model);
  return trained.classifier().PredictAll(context.MagellanTest());
}

Result<std::unique_ptr<TrainedModel>> DeserializeMagellanModel(
    BlobReader* reader) {
  RLBENCH_ASSIGN_OR_RETURN(uint8_t classifier_tag, reader->ReadU8());
  if (classifier_tag > static_cast<uint8_t>(MagellanClassifier::kLinearSvm)) {
    return Status::IOError("magellan model: unknown classifier tag");
  }
  auto classifier = static_cast<MagellanClassifier>(classifier_tag);
  RLBENCH_ASSIGN_OR_RETURN(uint64_t seed, reader->ReadU64());
  RLBENCH_ASSIGN_OR_RETURN(uint64_t num_attrs, reader->ReadU64());
  if (num_attrs == 0 || num_attrs > (1U << 16)) {
    return Status::IOError("magellan model: implausible attribute count");
  }
  size_t num_features =
      static_cast<size_t>(num_attrs) * kMagellanFeaturesPerAttr;
  std::unique_ptr<ml::Classifier> model;
  switch (classifier) {
    case MagellanClassifier::kDecisionTree: {
      auto tree = std::make_unique<ml::DecisionTree>();
      RLBENCH_RETURN_NOT_OK(tree->Load(reader, num_features));
      model = std::move(tree);
      break;
    }
    case MagellanClassifier::kLogisticRegression: {
      auto lr = std::make_unique<ml::LogisticRegression>();
      RLBENCH_RETURN_NOT_OK(lr->Load(reader, num_features));
      model = std::move(lr);
      break;
    }
    case MagellanClassifier::kRandomForest: {
      auto forest = std::make_unique<ml::RandomForest>();
      RLBENCH_RETURN_NOT_OK(forest->Load(reader, num_features));
      model = std::move(forest);
      break;
    }
    case MagellanClassifier::kLinearSvm: {
      auto svm = std::make_unique<ml::LinearSvm>();
      RLBENCH_RETURN_NOT_OK(svm->Load(reader, num_features));
      model = std::move(svm);
      break;
    }
  }
  return std::unique_ptr<TrainedModel>(std::make_unique<TrainedMagellanModel>(
      classifier, seed, static_cast<size_t>(num_attrs), std::move(model)));
}

}  // namespace rlbench::matchers
