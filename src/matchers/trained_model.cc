#include "matchers/trained_model.h"

#include <string>

#include "common/parallel.h"

namespace rlbench::matchers {

namespace {
// Chunk of pairs per dispatch when scoring a batch; matches the matchers'
// own extraction grain so serve-path chunking stays deterministic.
constexpr size_t kPairGrain = 256;
}  // namespace

Status TrainedModel::ScoreBatch(const MatchingContext& context,
                                std::span<const data::LabeledPair> pairs,
                                std::span<double> scores,
                                std::span<uint8_t> decisions) const {
  if (scores.size() != pairs.size() || decisions.size() != pairs.size()) {
    return Status::InvalidArgument(
        "ScoreBatch: output spans must match the pair count");
  }
  ParallelFor(0, pairs.size(), kPairGrain, [&](size_t i) {
    double score = ScorePair(context, pairs[i]);
    scores[i] = score;
    decisions[i] = DecideFromScore(score) ? 1 : 0;
  });
  return Status::OK();
}

void SerializeTrainedModel(const TrainedModel& model, BlobWriter* writer) {
  writer->WriteU8(static_cast<uint8_t>(model.kind()));
  model.SerializePayload(writer);
}

Result<std::unique_ptr<TrainedModel>> DeserializeTrainedModel(
    BlobReader* reader) {
  RLBENCH_ASSIGN_OR_RETURN(uint8_t tag, reader->ReadU8());
  switch (static_cast<TrainedModelKind>(tag)) {
    case TrainedModelKind::kEsde:
      return DeserializeEsdeModel(reader);
    case TrainedModelKind::kMagellan:
      return DeserializeMagellanModel(reader);
    case TrainedModelKind::kZeroEr:
      return DeserializeZeroErModel(reader);
    case TrainedModelKind::kEnsembleLink:
      return DeserializeEnsembleLinkModel(reader);
  }
  return Status::InvalidArgument("trained model: unknown kind tag " +
                                 std::to_string(static_cast<int>(tag)));
}

}  // namespace rlbench::matchers
