// The two a-posteriori (practical) difficulty measures of Section III-C:
// non-linear boost (NLB) and learning-based margin (LBM), aggregated from
// per-matcher F1 scores.
#ifndef RLBENCH_SRC_CORE_PRACTICAL_H_
#define RLBENCH_SRC_CORE_PRACTICAL_H_

#include <string>
#include <vector>

#include "matchers/registry.h"

namespace rlbench::core {

/// One matcher's result on one benchmark.
struct MatcherScore {
  std::string name;
  matchers::MatcherGroup group;
  double f1 = 0.0;
};

struct PracticalMeasures {
  /// NLB = max F1 of non-linear (DL + classic ML) matchers minus max F1 of
  /// the linear (ESDE) matchers. MatcherGroup::kZeroShot rows are excluded
  /// from every field here: a training-free matcher is neither the linear
  /// anchor nor learning-based, so counting it would corrupt NLB and LBM.
  double non_linear_boost = 0.0;
  /// LBM = 1 - max F1 over every learning-based matcher.
  double learning_based_margin = 0.0;
  double best_nonlinear_f1 = 0.0;
  double best_linear_f1 = 0.0;
};

PracticalMeasures ComputePractical(const std::vector<MatcherScore>& scores);

/// Run every matcher of the line-up on the task and collect the scores, in
/// line-up order. Each entry is one pool chunk, dispatched longest-first
/// (DL rows, higher epoch count first); scores are identical at any width.
/// The first exception thrown by any entry is rethrown here after the
/// entries in flight finish.
std::vector<MatcherScore> ScoreLineup(
    const matchers::MatchingContext& context,
    std::vector<matchers::RegisteredMatcher>* lineup);

}  // namespace rlbench::core

#endif  // RLBENCH_SRC_CORE_PRACTICAL_H_
