// Builds the matcher line-ups used by the evaluation tables: the DL group
// with its two epoch settings, the Magellan group, ZeroER, the six linear
// ESDE matchers — the exact row set of Tables IV and VI — plus the
// training-free EnsembleLink as an extra zero-shot section.
#ifndef RLBENCH_SRC_MATCHERS_REGISTRY_H_
#define RLBENCH_SRC_MATCHERS_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "matchers/matcher.h"

namespace rlbench::matchers {

/// Which matcher families (table sections) to instantiate.
struct RegistryOptions {
  bool dl = true;        // section (a): DL-based matchers, 2 epoch settings
  bool classic = true;   // section (b): Magellan x4 + ZeroER
  bool linear = true;    // section (c): the 6 ESDE variants
  bool zero_shot = true; // section (d): training-free EnsembleLink
  /// Epoch budget scale for quick runs (1.0 = the paper's settings).
  double epoch_scale = 1.0;
  uint64_t seed = 17;
};

/// The section a matcher belongs to, for table grouping and the practical
/// measures: NLB contrasts kNonLinear (a+b) with kLinear (c). kZeroShot
/// rows (trained on no labels at all) are reported alongside but excluded
/// from the learning-based practical measures — see core/practical.h.
enum class MatcherGroup { kDeepLearning, kClassicMl, kLinear, kZeroShot };

struct RegisteredMatcher {
  std::unique_ptr<Matcher> matcher;
  MatcherGroup group;
  /// Training epochs of a DL row (0 for the other families): the fixed
  /// longest-first key core::ScoreLineup dispatches the line-up by.
  int epochs = 0;
};

/// Instantiate the full line-up.
std::vector<RegisteredMatcher> BuildMatcherLineup(
    const RegistryOptions& options = {});

/// Row names of the matchers that can be trained into servable snapshot
/// models (src/serve/): the Magellan group, ZeroER, the six ESDE
/// variants, and the training-free EnsembleLink. The simulated DL
/// matchers have no portable fitted state.
std::vector<std::string> ServableMatcherNames();

/// Construct the named servable matcher with the same per-family seed
/// derivation as BuildMatcherLineup (so a served model reproduces the
/// table row bit-for-bit) and train it on the context. NotFound for names
/// outside ServableMatcherNames().
[[nodiscard]] Result<std::unique_ptr<TrainedModel>> TrainServableMatcher(
    const std::string& name, const MatchingContext& context,
    uint64_t seed = 17);

}  // namespace rlbench::matchers

#endif  // RLBENCH_SRC_MATCHERS_REGISTRY_H_
