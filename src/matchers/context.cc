#include "matchers/context.h"

#include <utility>

#include "common/check.h"
#include "matchers/features.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlbench::matchers {

MatchingContext::MatchingContext(const data::MatchingTask* task)
    : task_(task), columnar_(task->left(), task->right()) {}

const text::TfIdfModel& MatchingContext::tfidf() const {
  std::call_once(tfidf_once_, [this] {
    RLBENCH_TRACE_SPAN("context/tfidf");
    text::TfIdfModel model;
    for (size_t side :
         {data::ColumnarStore::kLeft, data::ColumnarStore::kRight}) {
      for (size_t r = 0; r < columnar_.num_records(side); ++r) {
        model.AddDocument(columnar_.TokenSeqAll(side, r));
      }
    }
    model.Finalize();
    tfidf_.emplace(std::move(model));
  });
  return *tfidf_;
}

void MatchingContext::EnsureMagellan() const {
  std::call_once(magellan_once_, [this] { BuildMagellan(); });
}

void MatchingContext::BuildMagellan() const {
  RLBENCH_TRACE_SPAN("context/magellan_features");
  size_t dim = task_->left().schema().num_attributes() *
               kMagellanFeaturesPerAttr;
  auto build = [&](const std::vector<data::LabeledPair>& pairs) {
    // dim > 0 is an invariant here: every task reaching a matcher went
    // through schema validation (>= 1 attribute) at build or import time.
    // Rows are extracted through the columnar kernels straight into the
    // dataset row, with no per-pair allocation.
    auto dataset = ml::Dataset::BuildParallel(
        dim, pairs.size(), [&](size_t i, std::span<float> row) {
          MagellanFeaturesColumnar(columnar_, pairs[i], row);
          return pairs[i].is_match;
        });
    RLBENCH_CHECK(dataset.ok());
    return std::move(dataset).value();
  };
  magellan_train_ = build(task_->train());
  magellan_valid_ = build(task_->valid());
  magellan_test_ = build(task_->test());
  RLBENCH_COUNTER_ADD("matchers/magellan/feature_rows",
                      task_->train().size() + task_->valid().size() +
                          task_->test().size());
}

const ml::Dataset& MatchingContext::MagellanTrain() const {
  EnsureMagellan();
  return *magellan_train_;
}

const ml::Dataset& MatchingContext::MagellanValid() const {
  EnsureMagellan();
  return *magellan_valid_;
}

const ml::Dataset& MatchingContext::MagellanTest() const {
  EnsureMagellan();
  return *magellan_test_;
}

}  // namespace rlbench::matchers
