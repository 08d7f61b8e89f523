#include "matchers/registry.h"

#include <algorithm>

#include "matchers/dl_sims.h"
#include "matchers/ensemble_link.h"
#include "matchers/esde.h"
#include "matchers/magellan.h"
#include "matchers/zeroer.h"

namespace rlbench::matchers {

namespace {

constexpr MagellanClassifier kMagellanClassifiers[] = {
    MagellanClassifier::kDecisionTree, MagellanClassifier::kLogisticRegression,
    MagellanClassifier::kRandomForest, MagellanClassifier::kLinearSvm};

constexpr EsdeVariant kEsdeVariants[] = {
    EsdeVariant::kSchemaAgnostic,     EsdeVariant::kSchemaAgnosticQgram,
    EsdeVariant::kSchemaAgnosticSent, EsdeVariant::kSchemaBased,
    EsdeVariant::kSchemaBasedQgram,   EsdeVariant::kSchemaBasedSent};

/// The named servable matcher under the lineup's per-family seed
/// derivation, or nullptr for unknown (or non-servable) names.
std::unique_ptr<Matcher> MakeServableMatcher(const std::string& name,
                                             uint64_t seed) {
  MagellanOptions mg_options;
  mg_options.seed = seed ^ 0x3117ULL;
  for (auto classifier : kMagellanClassifiers) {
    auto matcher = std::make_unique<MagellanMatcher>(classifier, mg_options);
    if (matcher->name() == name) return matcher;
  }
  if (name == "ZeroER") return std::make_unique<ZeroErMatcher>();
  if (name == "EnsembleLink") {
    EnsembleLinkOptions el_options;
    el_options.seed = seed ^ 0x2E17ULL;
    return std::make_unique<EnsembleLinkMatcher>(el_options);
  }
  EsdeOptions esde_options;
  esde_options.seed = seed ^ 0xE5DEULL;
  for (auto variant : kEsdeVariants) {
    if (EsdeVariantName(variant) == name) {
      return std::make_unique<EsdeMatcher>(variant, esde_options);
    }
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> ServableMatcherNames() {
  std::vector<std::string> names;
  for (auto classifier : kMagellanClassifiers) {
    names.push_back(MagellanMatcher(classifier).name());
  }
  names.push_back("ZeroER");
  for (auto variant : kEsdeVariants) {
    names.push_back(EsdeVariantName(variant));
  }
  names.push_back("EnsembleLink");
  return names;
}

Result<std::unique_ptr<TrainedModel>> TrainServableMatcher(
    const std::string& name, const MatchingContext& context, uint64_t seed) {
  auto matcher = MakeServableMatcher(name, seed);
  if (matcher == nullptr) {
    return Status::NotFound("no servable matcher named \"" + name + "\"");
  }
  return matcher->TrainModel(context);
}

std::vector<RegisteredMatcher> BuildMatcherLineup(
    const RegistryOptions& options) {
  std::vector<RegisteredMatcher> lineup;
  auto scaled = [&options](int epochs) {
    return std::max(1, static_cast<int>(epochs * options.epoch_scale));
  };

  if (options.dl) {
    DlOptions dl_options;
    dl_options.seed = options.seed;
    auto add_dl = [&](DlMethod method, int epochs) {
      lineup.push_back({std::make_unique<DlMatcher>(method, scaled(epochs),
                                                    dl_options),
                        MatcherGroup::kDeepLearning, scaled(epochs)});
    };
    // The epoch pairs follow Table IV: default-from-paper and 40 (10/40 for
    // GNEM and HierMatcher).
    add_dl(DlMethod::kDeepMatcher, 15);
    add_dl(DlMethod::kDeepMatcher, 40);
    add_dl(DlMethod::kDitto, 15);
    add_dl(DlMethod::kDitto, 40);
    add_dl(DlMethod::kEmTransformerB, 15);
    add_dl(DlMethod::kEmTransformerB, 40);
    add_dl(DlMethod::kEmTransformerR, 15);
    add_dl(DlMethod::kEmTransformerR, 40);
    add_dl(DlMethod::kGnem, 10);
    add_dl(DlMethod::kGnem, 40);
    add_dl(DlMethod::kHierMatcher, 10);
    add_dl(DlMethod::kHierMatcher, 40);
  }

  if (options.classic) {
    MagellanOptions mg_options;
    mg_options.seed = options.seed ^ 0x3117ULL;
    for (auto classifier :
         {MagellanClassifier::kDecisionTree,
          MagellanClassifier::kLogisticRegression,
          MagellanClassifier::kRandomForest, MagellanClassifier::kLinearSvm}) {
      lineup.push_back({std::make_unique<MagellanMatcher>(classifier,
                                                          mg_options),
                        MatcherGroup::kClassicMl});
    }
    lineup.push_back(
        {std::make_unique<ZeroErMatcher>(), MatcherGroup::kClassicMl});
  }

  if (options.linear) {
    EsdeOptions esde_options;
    esde_options.seed = options.seed ^ 0xE5DEULL;
    for (auto variant :
         {EsdeVariant::kSchemaAgnostic, EsdeVariant::kSchemaAgnosticQgram,
          EsdeVariant::kSchemaAgnosticSent, EsdeVariant::kSchemaBased,
          EsdeVariant::kSchemaBasedQgram, EsdeVariant::kSchemaBasedSent}) {
      lineup.push_back({std::make_unique<EsdeMatcher>(variant, esde_options),
                        MatcherGroup::kLinear});
    }
  }

  if (options.zero_shot) {
    EnsembleLinkOptions el_options;
    el_options.seed = options.seed ^ 0x2E17ULL;
    lineup.push_back({std::make_unique<EnsembleLinkMatcher>(el_options),
                      MatcherGroup::kZeroShot});
  }
  return lineup;
}

}  // namespace rlbench::matchers
