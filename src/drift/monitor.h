// The measurement half of the drift loop: recompute the paper's
// difficulty measures — degree of linearity (Algorithm 1), the complexity
// average (Table I), and the practical NLB/LBM aggregation — over one
// completed reservoir window of live traffic.
//
// Live proxy semantics: wire traffic carries no ground truth, so by
// default the served decisions act as the window's labels. Under
// self-labels the measures answer "how linearly reproducible is what the
// served model is currently doing?" — a drop in the window's best linear
// F1 (equivalently a rise in nlb) means the decision boundary wandered
// into territory a threshold rule cannot mimic, the paper's definition of
// a harder workload. Streams that do carry labels (benches, tests) can
// set MonitorOptions::use_truth_labels to get the real measures.
//
// Runs on the existing parallel pool (ParallelFor feature extraction +
// the seeded subsample inside ComputeComplexity), bit-identical at any
// thread count for a fixed window.
#ifndef RLBENCH_SRC_DRIFT_MONITOR_H_
#define RLBENCH_SRC_DRIFT_MONITOR_H_

#include <cstdint>
#include <span>

#include "core/complexity.h"
#include "drift/reservoir.h"
#include "matchers/context.h"
#include "matchers/trained_model.h"

namespace rlbench::drift {

struct MonitorOptions {
  /// Options for the Table I complexity measures (seeded subsample keeps
  /// them deterministic at any thread count).
  core::ComplexityOptions complexity;
  /// Label source: false = served decisions (the live self-label proxy),
  /// true = the ground-truth labels carried on the sampled pairs.
  bool use_truth_labels = false;
};

/// The paper's difficulty measures over one window.
struct WindowMeasures {
  size_t pairs = 0;
  size_t positives = 0;  // positive labels under the active label source
  // Degree of linearity: best single-threshold F1 per similarity.
  double f1_cs = 0.0;
  double threshold_cs = 0.0;
  double f1_js = 0.0;
  double threshold_js = 0.0;
  double best_linear_f1 = 0.0;  // max(f1_cs, f1_js)
  // Mean of the 17 Table I complexity measures on the [CS, JS] points.
  double complexity_avg = 0.0;
  // F1 of the served decisions against the labels (1.0 under self-labels).
  double served_f1 = 0.0;
  // core::ComputePractical over {served, window-linear} (+ the zero-shot
  // arm, which it excludes by group): nlb = served_f1 - best_linear_f1.
  double nlb = 0.0;
  double lbm = 0.0;
  // F1 of the zero-shot arm against the labels; -1 when no arm was given.
  double zero_shot_f1 = -1.0;
};

/// Recompute the measures over `window`. [CS, JS] come from the columnar
/// token-id spans (always built by the MatchingContext constructor).
/// `zero_shot_arm`, when given, is scored over the window as an extra
/// lineup row; the context must already be prepared for it
/// (TrainedModel::PrepareContext).
WindowMeasures ComputeWindowMeasures(
    const matchers::MatchingContext& context,
    std::span<const ScoredSample> window, const MonitorOptions& options = {},
    const matchers::TrainedModel* zero_shot_arm = nullptr);

}  // namespace rlbench::drift

#endif  // RLBENCH_SRC_DRIFT_MONITOR_H_
