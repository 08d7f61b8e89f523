#include "matchers/features.h"

#include <algorithm>

#include "common/check.h"
#include "text/kernels.h"

namespace rlbench::matchers {

void MagellanFeaturesColumnar(const data::ColumnarStore& store,
                              const data::LabeledPair& pair,
                              std::span<float> out) {
  namespace k = text::kernels;
  constexpr size_t kL = data::ColumnarStore::kLeft;
  constexpr size_t kR = data::ColumnarStore::kRight;
  size_t num_attrs = store.num_attrs();
  RLBENCH_DCHECK_EQ(out.size(), num_attrs * kMagellanFeaturesPerAttr);
  for (size_t a = 0; a < num_attrs; ++a) {
    std::string_view lv = store.Value(kL, pair.left, a);
    std::string_view rv = store.Value(kR, pair.right, a);
    std::string_view lt = lv.substr(0, std::min(lv.size(), kMaxCharsForEditSims));
    std::string_view rt = rv.substr(0, std::min(rv.size(), kMaxCharsForEditSims));
    auto seq_l = store.TokenSeqAttr(kL, pair.left, a);
    auto seq_r = store.TokenSeqAttr(kR, pair.right, a);
    float* f = out.data() + a * kMagellanFeaturesPerAttr;
    f[0] = static_cast<float>(
        k::JaccardSortedU32(store.TokenIdsAttr(kL, pair.left, a),
                            store.TokenIdsAttr(kR, pair.right, a)));
    f[1] = static_cast<float>(k::LevenshteinSimilarityBanded(lt, rt));
    f[2] = static_cast<float>(k::JaroWinklerKernel(lt, rt));
    f[3] = static_cast<float>(k::MongeElkanKernel(
        seq_l.first(std::min(seq_l.size(), kMaxTokensForMongeElkan)),
        seq_r.first(std::min(seq_r.size(), kMaxTokensForMongeElkan))));
    f[4] = static_cast<float>(k::NumericFromParsed(
        store.NumericOk(kL, pair.left, a), store.NumericValue(kL, pair.left, a),
        store.NumericOk(kR, pair.right, a),
        store.NumericValue(kR, pair.right, a)));
    f[5] = static_cast<float>(
        k::ExactMatchLowered(store.LoweredValue(kL, pair.left, a),
                             store.LoweredValue(kR, pair.right, a)));
  }
}

const char* EsdeVariantName(EsdeVariant variant) {
  switch (variant) {
    case EsdeVariant::kSchemaAgnostic:
      return "SA-ESDE";
    case EsdeVariant::kSchemaBased:
      return "SB-ESDE";
    case EsdeVariant::kSchemaAgnosticQgram:
      return "SAQ-ESDE";
    case EsdeVariant::kSchemaBasedQgram:
      return "SBQ-ESDE";
    case EsdeVariant::kSchemaAgnosticSent:
      return "SAS-ESDE";
    case EsdeVariant::kSchemaBasedSent:
      return "SBS-ESDE";
  }
  return "ESDE";
}

size_t EsdeFeatureCount(EsdeVariant variant, size_t num_attrs) {
  constexpr size_t kNumQ = data::ColumnarStore::kNumQ;
  switch (variant) {
    case EsdeVariant::kSchemaAgnostic:
    case EsdeVariant::kSchemaAgnosticSent:
      return 3;
    case EsdeVariant::kSchemaBased:
    case EsdeVariant::kSchemaBasedSent:
      return 3 * num_attrs;
    case EsdeVariant::kSchemaAgnosticQgram:
      return 3 * kNumQ;
    case EsdeVariant::kSchemaBasedQgram:
      return 3 * kNumQ * num_attrs;
  }
  return 0;
}

}  // namespace rlbench::matchers
