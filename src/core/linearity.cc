#include "core/linearity.h"

#include "common/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ml/metrics.h"
#include "text/kernels.h"

namespace rlbench::core {

namespace {
// A token-set similarity costs a few hundred ns; chunks of pairs this size
// amortise pool dispatch while leaving enough chunks to balance.
constexpr size_t kPairGrain = 512;

constexpr size_t kL = data::ColumnarStore::kLeft;
constexpr size_t kR = data::ColumnarStore::kRight;
}  // namespace

std::vector<FeaturePoint> PairFeaturePoints(
    const matchers::MatchingContext& context) {
  RLBENCH_TRACE_SPAN("linearity/pair_features");
  auto all = context.task().AllPairs();
  RLBENCH_COUNTER_ADD("linearity/pairs_scored", all.size());
  std::vector<FeaturePoint> points(all.size());
  const data::ColumnarStore& store = context.columnar();
  ParallelFor(0, all.size(), kPairGrain, [&](size_t i) {
    auto a = store.TokenIdsAll(kL, all[i].left);
    auto b = store.TokenIdsAll(kR, all[i].right);
    size_t inter = text::kernels::IntersectSortedU32(a, b);
    points[i] = {text::kernels::CosineFromCounts(inter, a.size(), b.size()),
                 text::kernels::JaccardFromCounts(inter, a.size(), b.size()),
                 all[i].is_match};
    RLBENCH_DCHECK_PROB(points[i].cs);
    RLBENCH_DCHECK_PROB(points[i].js);
  });
  return points;
}

std::vector<LinearityResult> ComputeLinearityPerAttribute(
    const matchers::MatchingContext& context) {
  RLBENCH_TRACE_SPAN("linearity/per_attribute");
  size_t num_attrs = context.task().left().schema().num_attributes();
  auto all = context.task().AllPairs();
  std::vector<uint8_t> labels;
  labels.reserve(all.size());
  for (const auto& pair : all) labels.push_back(pair.is_match ? 1 : 0);

  std::vector<LinearityResult> results;
  results.reserve(num_attrs);
  std::vector<double> cosine(all.size());
  std::vector<double> jaccard(all.size());
  const data::ColumnarStore& store = context.columnar();
  for (size_t a = 0; a < num_attrs; ++a) {
    ParallelFor(0, all.size(), kPairGrain, [&](size_t i) {
      auto left = store.TokenIdsAttr(kL, all[i].left, a);
      auto right = store.TokenIdsAttr(kR, all[i].right, a);
      size_t inter = text::kernels::IntersectSortedU32(left, right);
      cosine[i] =
          text::kernels::CosineFromCounts(inter, left.size(), right.size());
      jaccard[i] =
          text::kernels::JaccardFromCounts(inter, left.size(), right.size());
    });
    auto cs = ml::SweepThresholds(cosine, labels);
    auto js = ml::SweepThresholds(jaccard, labels);
    results.push_back(
        {cs.best_f1, cs.best_threshold, js.best_f1, js.best_threshold});
  }
  return results;
}

LinearityResult ComputeLinearity(const matchers::MatchingContext& context) {
  RLBENCH_TRACE_SPAN("linearity/compute");
  auto points = PairFeaturePoints(context);
  std::vector<double> cosine(points.size());
  std::vector<double> jaccard(points.size());
  std::vector<uint8_t> labels(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    cosine[i] = points[i].cs;
    jaccard[i] = points[i].js;
    labels[i] = points[i].is_match ? 1 : 0;
  }
  auto cs = ml::SweepThresholds(cosine, labels);
  auto js = ml::SweepThresholds(jaccard, labels);
  RLBENCH_CHECK_PROB(cs.best_f1);
  RLBENCH_CHECK_PROB(js.best_f1);
  return {cs.best_f1, cs.best_threshold, js.best_f1, js.best_threshold};
}

}  // namespace rlbench::core
