// Efficient Supervised Difficulty Estimation (ESDE), Algorithm 2 of the
// paper: the family of linear matchers that anchor the non-linear boost
// measure. Training picks the best (feature, threshold) per feature on the
// training set, validation selects the single best feature, and testing
// applies that one feature with its threshold.
#ifndef RLBENCH_SRC_MATCHERS_ESDE_H_
#define RLBENCH_SRC_MATCHERS_ESDE_H_

#include <cstdint>
#include <span>
#include <utility>

#include "data/columnar.h"
#include "embed/sentence_encoder.h"
#include "matchers/features.h"
#include "matchers/matcher.h"

namespace rlbench::matchers {

struct EsdeOptions {
  /// Embedding dimensionality for the sentence-encoder variants.
  size_t sentence_dim = 64;
  uint64_t seed = 7;
};

/// \brief One of the six ESDE variants.
class EsdeMatcher : public Matcher {
 public:
  explicit EsdeMatcher(EsdeVariant variant, EsdeOptions options = {});

  std::string name() const override { return EsdeVariantName(variant_); }
  std::vector<uint8_t> Run(const MatchingContext& context) override;

  /// Train threshold + feature selection and export the fitted rule as a
  /// servable model. Run() == TrainModel() + applying the rule to the test
  /// pairs; the serve tests pin the bit-exact equivalence.
  [[nodiscard]] Result<std::unique_ptr<TrainedModel>> TrainModel(
      const MatchingContext& context) override;

  /// Diagnostics after Run: the selected feature index, its threshold, and
  /// the validation F1 that selected it.
  int best_feature() const { return best_feature_; }
  double best_threshold() const { return best_threshold_; }
  double best_valid_f1() const { return best_valid_f1_; }

 private:
  /// Full feature vector of one pair under this variant.
  std::vector<double> Features(const MatchingContext& context,
                               const data::LabeledPair& pair);
  /// Only the selected feature (testing phase of Algorithm 2).
  double SingleFeature(const MatchingContext& context,
                       const data::LabeledPair& pair, int feature);

  /// Embedding of one record under the packed cache: (row, sorted row)
  /// views for the vectorized similarity kernels. PrepareFeatures must
  /// have filled the pack for this variant first.
  std::pair<std::span<const float>, std::span<const float>> RecordSpans(
      bool left_side, uint32_t record, int attr) const;

  /// Build what this variant reads beyond the token columns (q-gram pools
  /// or record vectors) so the batch loops in Run() only read.
  void PrepareFeatures(const MatchingContext& context);

  /// Encode every record vector of the SAS/SBS variants into vec_pack_.
  void EncodeSentenceVectors(const MatchingContext& context);

  EsdeVariant variant_;
  EsdeOptions options_;
  embed::SentenceEncoder encoder_;
  // Packed row-major embeddings, slot [side * (num_attrs + 1) + attr + 1];
  // slot offset 0 is the schema-agnostic whole-record embedding. Each
  // matrix carries a coordinate-sorted shadow for the Wasserstein kernel.
  std::vector<data::PackedMatrix> vec_pack_;
  size_t vec_slots_per_side_ = 0;
  int best_feature_ = -1;
  double best_threshold_ = 0.0;
  double best_valid_f1_ = 0.0;
};

}  // namespace rlbench::matchers

#endif  // RLBENCH_SRC_MATCHERS_ESDE_H_
