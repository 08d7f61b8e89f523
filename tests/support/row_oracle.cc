#include "support/row_oracle.h"

#include <string_view>

#include "data/columnar.h"
#include "matchers/features.h"
#include "text/qgrams.h"
#include "text/similarity.h"

namespace rlbench::oracle {

namespace {

constexpr size_t kCap = data::ColumnarStore::kQGramCharCap;

std::string_view Truncated(const std::string& value, size_t max_chars) {
  return std::string_view(value).substr(0, max_chars);
}

std::vector<std::string> CapTokens(std::vector<std::string> tokens,
                                   size_t max_tokens) {
  if (tokens.size() > max_tokens) tokens.resize(max_tokens);
  return tokens;
}

}  // namespace

text::TokenSet TokenSetAll(const data::Record& record) {
  return text::TokenSet(text::TokenizeAll(record.values));
}

text::TokenSet TokenSetAttr(const data::Record& record, size_t attr) {
  return text::TokenSet(text::Tokenize(record.values[attr]));
}

text::TokenSet QGramSetAll(const data::Record& record, int q) {
  std::string text = record.ConcatenatedValues();
  if (text.size() > kCap) text.resize(kCap);
  return text::QGramSet(text, q);
}

text::TokenSet QGramSetAttr(const data::Record& record, size_t attr, int q) {
  return text::QGramSet(Truncated(record.values[attr], kCap), q);
}

std::vector<float> MagellanFeatures(const data::Table& left,
                                    const data::Table& right,
                                    const data::LabeledPair& pair) {
  using matchers::kMaxCharsForEditSims;
  using matchers::kMaxTokensForMongeElkan;
  const data::Record& l = left.record(pair.left);
  const data::Record& r = right.record(pair.right);
  size_t num_attrs = left.schema().num_attributes();

  std::vector<float> features;
  features.reserve(num_attrs * matchers::kMagellanFeaturesPerAttr);
  for (size_t a = 0; a < num_attrs; ++a) {
    const std::string& lv = l.values[a];
    const std::string& rv = r.values[a];
    features.push_back(static_cast<float>(
        text::JaccardSimilarity(TokenSetAttr(l, a), TokenSetAttr(r, a))));
    features.push_back(static_cast<float>(text::LevenshteinSimilarity(
        Truncated(lv, kMaxCharsForEditSims),
        Truncated(rv, kMaxCharsForEditSims))));
    features.push_back(static_cast<float>(text::JaroWinklerSimilarity(
        Truncated(lv, kMaxCharsForEditSims),
        Truncated(rv, kMaxCharsForEditSims))));
    features.push_back(static_cast<float>(text::MongeElkanSimilarity(
        CapTokens(text::Tokenize(lv), kMaxTokensForMongeElkan),
        CapTokens(text::Tokenize(rv), kMaxTokensForMongeElkan))));
    features.push_back(static_cast<float>(text::NumericSimilarity(lv, rv)));
    features.push_back(static_cast<float>(text::ExactMatchSimilarity(lv, rv)));
  }
  return features;
}

}  // namespace rlbench::oracle
