// The trained, servable form of a matcher. A Matcher's Run() couples
// training and test-set prediction into one call that dies with the
// process; TrainedModel splits out the fitted state (ESDE's selected
// feature + threshold, Magellan's fitted classifier, ZeroER's mixture
// parameters) so it can be serialized into a snapshot (src/serve/), loaded
// once, and asked to score arbitrary record pairs many times.
//
// Equivalence contract: for any pair, ScorePair/ScoreBatch produce the
// same bits as the feature extraction inside the matcher's own Run() —
// both paths flow through the identical feature code (esde.cc shares one
// helper; Magellan and ZeroER recompute MagellanFeaturesColumnar, a pure
// function of the columnar store). The serve tests pin this down per
// matcher family at 1/2/7 threads.
#ifndef RLBENCH_SRC_MATCHERS_TRAINED_MODEL_H_
#define RLBENCH_SRC_MATCHERS_TRAINED_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/status.h"
#include "matchers/context.h"

namespace rlbench::matchers {

/// Serialized type tag of a trained model (stable across versions; never
/// renumber).
enum class TrainedModelKind : uint8_t {
  kEsde = 1,
  kMagellan = 2,
  kZeroEr = 3,
  kEnsembleLink = 4,
};

/// \brief An immutable fitted matcher that scores record pairs.
///
/// Thread-safety: all scoring methods are const and safe to call
/// concurrently once PrepareContext() has built what the model reads
/// beyond the context's token columns.
class TrainedModel {
 public:
  virtual ~TrainedModel() = default;

  virtual TrainedModelKind kind() const = 0;

  /// Table-row name of the matcher this model was trained as ("SA-ESDE",
  /// "Magellan-RF", "ZeroER", ...).
  virtual std::string matcher_name() const = 0;

  /// Attribute count of the schema the model was trained on; serving
  /// validates it against the live dataset before installing a snapshot.
  virtual size_t num_attrs() const = 0;

  /// Match score of one candidate pair (higher = more likely a match).
  /// ESDE reports the selected raw feature value; the others report a
  /// probability-like score in [0, 1].
  virtual double ScorePair(const MatchingContext& context,
                           const data::LabeledPair& pair) const = 0;

  /// The matcher family's exact decision rule applied to a ScorePair
  /// value. Defaults to score >= 0.5; ESDE overrides with its trained
  /// threshold.
  virtual bool DecideFromScore(double score) const { return score >= 0.5; }

  /// Decision boundary reported in serve responses / snapshots metadata.
  virtual double decision_threshold() const { return 0.5; }

  /// \brief Score a batch of pairs into index-addressed slots on the
  /// parallel pool — bit-identical at any thread count.
  ///
  /// `scores` and `decisions` must have pairs.size() entries. The default
  /// runs ScorePair per pair under ParallelFor; Magellan overrides it to
  /// assemble the feature matrix via ml::Dataset::BuildParallel first.
  /// Requires PrepareContext() to have been called on `context`.
  [[nodiscard]] virtual Status ScoreBatch(const MatchingContext& context,
                            std::span<const data::LabeledPair> pairs,
                            std::span<double> scores,
                            std::span<uint8_t> decisions) const;

  /// Build the lazy store columns this model's feature family reads (the
  /// q-gram pools for the q-gram ESDE variants; nothing for the others).
  /// Idempotent; must not run concurrently with scoring on `context`.
  virtual void PrepareContext(const MatchingContext& /*context*/) const {}

  /// Append the model's payload (everything after the kind tag).
  virtual void SerializePayload(BlobWriter* writer) const = 0;
};

/// Append `kind tag + payload` to `writer`.
void SerializeTrainedModel(const TrainedModel& model, BlobWriter* writer);

/// Decode a model written by SerializeTrainedModel. IOError on a
/// truncated or corrupt payload, InvalidArgument on an unknown kind tag.
[[nodiscard]] Result<std::unique_ptr<TrainedModel>> DeserializeTrainedModel(
    BlobReader* reader);

/// Per-family payload decoders, implemented next to their matchers
/// (esde.cc / magellan.cc / zeroer.cc) so each shares feature code with
/// the matcher that trains it. DeserializeTrainedModel dispatches here.
[[nodiscard]] Result<std::unique_ptr<TrainedModel>> DeserializeEsdeModel(BlobReader* reader);
Result<std::unique_ptr<TrainedModel>> DeserializeMagellanModel(
    BlobReader* reader);
[[nodiscard]] Result<std::unique_ptr<TrainedModel>> DeserializeZeroErModel(
    BlobReader* reader);
[[nodiscard]] Result<std::unique_ptr<TrainedModel>> DeserializeEnsembleLinkModel(
    BlobReader* reader);

}  // namespace rlbench::matchers

#endif  // RLBENCH_SRC_MATCHERS_TRAINED_MODEL_H_
