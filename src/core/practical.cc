#include "core/practical.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlbench::core {

PracticalMeasures ComputePractical(const std::vector<MatcherScore>& scores) {
  PracticalMeasures out;
  double best_any = 0.0;
  for (const auto& score : scores) {
    // Matcher F1s feed directly into NLB/LBM; an out-of-range score means
    // the matcher (not this aggregation) is broken.
    RLBENCH_CHECK_PROB(score.f1);
    // Zero-shot rows (EnsembleLink) train on no labels: they are neither
    // the linear anchor nor a learning-based ceiling, so they feed into
    // neither NLB bucket nor LBM. Reported alongside, never aggregated.
    if (score.group == matchers::MatcherGroup::kZeroShot) continue;
    best_any = std::max(best_any, score.f1);
    if (score.group == matchers::MatcherGroup::kLinear) {
      out.best_linear_f1 = std::max(out.best_linear_f1, score.f1);
    } else {
      out.best_nonlinear_f1 = std::max(out.best_nonlinear_f1, score.f1);
    }
  }
  out.non_linear_boost = out.best_nonlinear_f1 - out.best_linear_f1;
  out.learning_based_margin = 1.0 - best_any;
  RLBENCH_CHECK_FINITE(out.non_linear_boost);
  RLBENCH_CHECK_PROB(out.learning_based_margin);
  return out;
}

namespace {

// Dispatch order of the line-up: the DL simulators first, the higher epoch
// budget first, then every other entry in line-up order. The key is fixed
// by the line-up itself, never by runtime timings, and it only decides
// when an entry starts: each entry's score is the same in any order.
std::vector<size_t> LongestFirst(
    const std::vector<matchers::RegisteredMatcher>& lineup) {
  auto rank = [&lineup](size_t i) {
    return lineup[i].group == matchers::MatcherGroup::kDeepLearning
               ? lineup[i].epochs
               : -1;
  };
  std::vector<size_t> order(lineup.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&rank](size_t a, size_t b) { return rank(a) > rank(b); });
  return order;
}

}  // namespace

std::vector<MatcherScore> ScoreLineup(
    const matchers::MatchingContext& context,
    std::vector<matchers::RegisteredMatcher>* lineup) {
  std::vector<MatcherScore> scores(lineup->size());
  std::vector<size_t> order = LongestFirst(*lineup);
  // One chunk per entry; each writes only its own line-up slot, so the
  // output order is the line-up's whatever the width.
  ParallelFor(0, order.size(), 1, [&](size_t k) {
    auto& entry = (*lineup)[order[k]];
    MatcherScore& score = scores[order[k]];
    score.name = entry.matcher->name();
    score.group = entry.group;
    // Span named after the matcher so lineup sweeps read directly off the
    // trace; the label string outlives the span (required by TraceSpan).
    std::string span_name = "matcher/" + score.name;
    RLBENCH_TRACE_SPAN(span_name.c_str());
    score.f1 = entry.matcher->TestF1(context);
    RLBENCH_COUNTER_INC("matchers/scored");
  });
  return scores;
}

}  // namespace rlbench::core
