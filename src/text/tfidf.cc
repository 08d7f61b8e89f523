#include "text/tfidf.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "text/normalize.h"
#include "text/similarity.h"

namespace rlbench::text {

void TfIdfModel::AddDocument(const std::vector<std::string>& tokens) {
  std::vector<std::string_view> views(tokens.begin(), tokens.end());
  AddDocument(views);
}

void TfIdfModel::AddDocument(std::span<const std::string_view> tokens) {
  RLBENCH_CHECK_MSG(!finalized_,
                    "AddDocument after Finalize would corrupt IDF weights");
  std::unordered_set<std::string_view> distinct(tokens.begin(), tokens.end());
  for (std::string_view token : distinct) {
    ++document_frequency_[std::string(token)];
  }
  ++num_documents_;
}

void TfIdfModel::Finalize() { finalized_ = true; }

double TfIdfModel::Idf(const std::string& token) const {
  auto it = document_frequency_.find(token);
  size_t df = it == document_frequency_.end() ? 0 : it->second;
  return std::log(1.0 + static_cast<double>(num_documents_) /
                            (1.0 + static_cast<double>(df)));
}

namespace {

std::unordered_map<std::string, double> WeightVector(
    const TfIdfModel& model, const std::vector<std::string>& tokens) {
  std::unordered_map<std::string, double> tf;
  for (const auto& token : tokens) tf[token] += 1.0;
  for (auto& [token, weight] : tf) weight *= model.Idf(token);
  return tf;
}

double L2(const std::unordered_map<std::string, double>& weights) {
  double sum = 0.0;
  for (const auto& [token, weight] : weights) sum += weight * weight;
  return std::sqrt(sum);
}

}  // namespace

double TfIdfModel::WeightedCosine(const std::vector<std::string>& a,
                                  const std::vector<std::string>& b) const {
  if (a.empty() || b.empty()) return 0.0;
  auto wa = WeightVector(*this, a);
  auto wb = WeightVector(*this, b);
  double dot = 0.0;
  for (const auto& [token, weight] : wa) {
    auto it = wb.find(token);
    if (it != wb.end()) dot += weight * it->second;
  }
  double denom = L2(wa) * L2(wb);
  return denom > 0.0 ? dot / denom : 0.0;
}

double TfIdfModel::SoftTfIdf(const std::vector<std::string>& a,
                             const std::vector<std::string>& b,
                             double jw_threshold) const {
  if (a.empty() || b.empty()) return 0.0;
  auto wa = WeightVector(*this, a);
  auto wb = WeightVector(*this, b);
  double dot = 0.0;
  for (const auto& [token_a, weight_a] : wa) {
    // Best approximate counterpart in b.
    double best_sim = 0.0;
    double best_weight = 0.0;
    for (const auto& [token_b, weight_b] : wb) {
      double sim = token_a == token_b
                       ? 1.0
                       : JaroWinklerSimilarity(token_a, token_b);
      if (sim >= jw_threshold && sim > best_sim) {
        best_sim = sim;
        best_weight = weight_b;
      }
    }
    dot += weight_a * best_weight * best_sim;
  }
  double denom = L2(wa) * L2(wb);
  return denom > 0.0 ? std::min(1.0, dot / denom) : 0.0;
}

std::vector<std::string> TfIdfModel::Summarize(
    const std::vector<std::string>& tokens, size_t max_tokens) const {
  if (tokens.size() <= max_tokens) return tokens;

  // Term frequency within this token sequence.
  std::unordered_map<std::string, double> tf;
  for (const auto& token : tokens) tf[token] += 1.0;

  struct Scored {
    size_t position;
    double weight;
  };
  std::vector<Scored> scored;
  scored.reserve(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    double weight =
        IsStopWord(tokens[i]) ? -1.0 : tf[tokens[i]] * Idf(tokens[i]);
    scored.push_back({i, weight});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.weight > b.weight;
                   });
  scored.resize(std::min(max_tokens, scored.size()));
  std::vector<size_t> keep;
  keep.reserve(scored.size());
  for (const auto& s : scored) keep.push_back(s.position);
  std::sort(keep.begin(), keep.end());

  std::vector<std::string> out;
  out.reserve(keep.size());
  for (size_t pos : keep) out.push_back(tokens[pos]);
  return out;
}

}  // namespace rlbench::text
