// Corpus-level TF-IDF model. Used by the DITTO-style matcher to summarise
// long attribute values (keep the highest-TF-IDF non-stop-word tokens) and
// by the dynamic context encoder to weight token importance.
#ifndef RLBENCH_SRC_TEXT_TFIDF_H_
#define RLBENCH_SRC_TEXT_TFIDF_H_

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rlbench::text {

/// \brief Document-frequency statistics over a token corpus.
///
/// Build once from all records of a task, then query IDF weights and
/// summarise token sequences.
class TfIdfModel {
 public:
  TfIdfModel() = default;

  /// Add one document's tokens (each distinct token counted once).
  void AddDocument(const std::vector<std::string>& tokens);
  void AddDocument(std::span<const std::string_view> tokens);

  /// Finish building; must be called before queries.
  void Finalize();

  size_t num_documents() const { return num_documents_; }

  /// Smoothed inverse document frequency: log(1 + N / (1 + df)).
  double Idf(const std::string& token) const;

  /// TF-IDF-weighted cosine similarity between two token multisets: each
  /// token weighted by tf * idf; 0 when either side is empty.
  double WeightedCosine(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) const;

  /// Soft TF-IDF (Cohen et al.): like WeightedCosine but tokens also match
  /// approximately via Jaro-Winkler above `jw_threshold`, weighted by the
  /// string similarity.
  double SoftTfIdf(const std::vector<std::string>& a,
                   const std::vector<std::string>& b,
                   double jw_threshold = 0.9) const;

  /// Keep the max_tokens tokens with the highest TF-IDF weight (ties broken
  /// by original position), preserving the original order. Stop-words are
  /// dropped first, mirroring DITTO's summarisation of long values.
  std::vector<std::string> Summarize(const std::vector<std::string>& tokens,
                                     size_t max_tokens) const;

 private:
  std::unordered_map<std::string, size_t> document_frequency_;
  size_t num_documents_ = 0;
  bool finalized_ = false;
};

}  // namespace rlbench::text

#endif  // RLBENCH_SRC_TEXT_TFIDF_H_
