// Pair-level feature extractors: the Magellan-style per-attribute classical
// similarity features and the ESDE feature families of Algorithm 2.
#ifndef RLBENCH_SRC_MATCHERS_FEATURES_H_
#define RLBENCH_SRC_MATCHERS_FEATURES_H_

#include <span>
#include <string>
#include <vector>

#include "data/columnar.h"
#include "data/task.h"

namespace rlbench::matchers {

/// Number of Magellan features per attribute (Jaccard, Levenshtein,
/// Jaro-Winkler, Monge-Elkan, numeric, exact).
inline constexpr size_t kMagellanFeaturesPerAttr = 6;

/// Long values are truncated before the O(n^2) string measures; mirrors
/// the attribute-value summarisation every practical EM system applies.
inline constexpr size_t kMaxCharsForEditSims = 48;
inline constexpr size_t kMaxTokensForMongeElkan = 12;

/// Magellan feature vector of one candidate pair (one block of
/// kMagellanFeaturesPerAttr values per attribute), written straight into
/// `out` (size num_attrs * kMagellanFeaturesPerAttr) with no per-pair
/// allocation. The scalar reference it must equal bit for bit is
/// oracle::MagellanFeatures in tests/support/row_oracle.h.
void MagellanFeaturesColumnar(const data::ColumnarStore& store,
                              const data::LabeledPair& pair,
                              std::span<float> out);

/// The six ESDE feature families of Section IV-C.
enum class EsdeVariant {
  kSchemaAgnostic,        // SA-ESDE: [CS, DS, JS] over all tokens
  kSchemaBased,           // SB-ESDE: [CS, DS, JS] per attribute
  kSchemaAgnosticQgram,   // SAQ-ESDE: [CS, DS, JS] per q in [2,10]
  kSchemaBasedQgram,      // SBQ-ESDE: [CS, DS, JS] per q per attribute
  kSchemaAgnosticSent,    // SAS-ESDE: [CS, ES, WS] of record embeddings
  kSchemaBasedSent,       // SBS-ESDE: [CS, ES, WS] per attribute embedding
};

const char* EsdeVariantName(EsdeVariant variant);

/// Dimensionality |F| of the variant's feature vector for a schema with
/// `num_attrs` attributes.
size_t EsdeFeatureCount(EsdeVariant variant, size_t num_attrs);

}  // namespace rlbench::matchers

#endif  // RLBENCH_SRC_MATCHERS_FEATURES_H_
