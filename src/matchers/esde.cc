#include "matchers/esde.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/parallel.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/kernels.h"

namespace rlbench::matchers {

namespace {

constexpr int kMinQ = data::ColumnarStore::kMinQ;
constexpr int kMaxQ = data::ColumnarStore::kMaxQ;

// Chunk of candidate pairs per dispatch in the batch-extraction loops.
constexpr size_t kPairGrain = 256;

constexpr const char* kNeedsQGramPools =
    "q-gram ESDE features need the store's q-gram pools "
    "(TrainedModel::PrepareContext)";

bool IsQGramVariant(EsdeVariant variant) {
  return variant == EsdeVariant::kSchemaAgnosticQgram ||
         variant == EsdeVariant::kSchemaBasedQgram;
}

// The (Cosine, Dice, Jaccard) triple of one set pair, computed from ONE
// merge scan.
void PushSetSims(text::kernels::SetSims sims, std::vector<double>* out) {
  out->push_back(sims.cosine);
  out->push_back(sims.dice);
  out->push_back(sims.jaccard);
}

// (vec, sorted-vec) pairs feed the span kernels; the Wasserstein sort is
// hoisted out of the pair loop into the record-level caches.
void PushVecSims(std::span<const float> a, std::span<const float> b,
                 std::span<const float> sorted_a,
                 std::span<const float> sorted_b, std::vector<double>* out) {
  out->push_back(text::kernels::CosineSimilarity01Span(a, b));
  out->push_back(text::kernels::EuclideanSimilaritySpan(a, b));
  out->push_back(text::kernels::WassersteinFromSorted(sorted_a, sorted_b));
}

// Feature extraction shared by the live matcher (cached record vectors)
// and its trained snapshot form (stateless re-encoding). There is exactly
// one copy of the feature definitions, parameterised on the record-vector
// provider, which is what makes the two paths bit-identical — the
// sentence encoder is pure, so a cached vector and a re-encoded one carry
// the same bits.
template <typename VecProvider>
std::vector<double> EsdeFeaturesWith(const MatchingContext& context,
                                     EsdeVariant variant,
                                     const data::LabeledPair& pair,
                                     VecProvider&& vec) {
  namespace k = text::kernels;
  constexpr size_t kL = data::ColumnarStore::kLeft;
  constexpr size_t kR = data::ColumnarStore::kRight;
  const data::ColumnarStore& store = context.columnar();
  size_t num_attrs = context.task().left().schema().num_attributes();
  std::vector<double> features;
  switch (variant) {
    case EsdeVariant::kSchemaAgnostic:
      PushSetSims(k::SetFamilySortedU32(store.TokenIdsAll(kL, pair.left),
                                        store.TokenIdsAll(kR, pair.right)),
                  &features);
      break;
    case EsdeVariant::kSchemaBased:
      for (size_t a = 0; a < num_attrs; ++a) {
        PushSetSims(
            k::SetFamilySortedU32(store.TokenIdsAttr(kL, pair.left, a),
                                  store.TokenIdsAttr(kR, pair.right, a)),
            &features);
      }
      break;
    case EsdeVariant::kSchemaAgnosticQgram:
      RLBENCH_CHECK_MSG(store.qgrams_built(), kNeedsQGramPools);
      for (int q = kMinQ; q <= kMaxQ; ++q) {
        PushSetSims(k::SetFamilySortedU64(store.QGramAll(kL, pair.left, q),
                                          store.QGramAll(kR, pair.right, q)),
                    &features);
      }
      break;
    case EsdeVariant::kSchemaBasedQgram:
      RLBENCH_CHECK_MSG(store.qgrams_built(), kNeedsQGramPools);
      for (size_t a = 0; a < num_attrs; ++a) {
        for (int q = kMinQ; q <= kMaxQ; ++q) {
          PushSetSims(
              k::SetFamilySortedU64(store.QGramAttr(kL, pair.left, a, q),
                                    store.QGramAttr(kR, pair.right, a, q)),
              &features);
        }
      }
      break;
    case EsdeVariant::kSchemaAgnosticSent: {
      auto l = vec(true, pair.left, -1);
      auto r = vec(false, pair.right, -1);
      PushVecSims(l.first, r.first, l.second, r.second, &features);
      break;
    }
    case EsdeVariant::kSchemaBasedSent:
      for (size_t a = 0; a < num_attrs; ++a) {
        auto l = vec(true, pair.left, static_cast<int>(a));
        auto r = vec(false, pair.right, static_cast<int>(a));
        PushVecSims(l.first, r.first, l.second, r.second, &features);
      }
      break;
  }
  return features;
}

/// \brief Snapshot form of a trained ESDE rule: the variant, the encoder
/// configuration, and the selected (feature, threshold) pair.
///
/// Unlike the live matcher it holds no per-record vector cache — the
/// sentence variants re-encode on demand, which is deterministic and keeps
/// the model immutable (safe for concurrent ScoreBatch).
class TrainedEsdeModel final : public TrainedModel {
 public:
  TrainedEsdeModel(EsdeVariant variant, EsdeOptions options, size_t num_attrs,
                   int best_feature, double best_threshold,
                   double best_valid_f1)
      : variant_(variant),
        options_(options),
        encoder_(options.sentence_dim, options.seed),
        num_attrs_(num_attrs),
        best_feature_(best_feature),
        best_threshold_(best_threshold),
        best_valid_f1_(best_valid_f1) {}

  TrainedModelKind kind() const override { return TrainedModelKind::kEsde; }
  std::string matcher_name() const override {
    return EsdeVariantName(variant_);
  }
  size_t num_attrs() const override { return num_attrs_; }
  double decision_threshold() const override { return best_threshold_; }
  bool DecideFromScore(double score) const override {
    // Same comparison orientation as the testing phase of Algorithm 2.
    return best_threshold_ <= score;
  }

  double ScorePair(const MatchingContext& context,
                   const data::LabeledPair& pair) const override {
    // The lambda returns an owned (vec, sorted-vec) pair; EsdeFeaturesWith
    // keeps it alive across the span kernels.
    auto features = EsdeFeaturesWith(
        context, variant_, pair, [&](bool left_side, uint32_t record,
                                     int attr) {
          return EncodeRecord(context, left_side, record, attr);
        });
    return features[static_cast<size_t>(best_feature_)];
  }

  void PrepareContext(const MatchingContext& context) const override {
    if (IsQGramVariant(variant_)) context.columnar().EnsureQGrams();
  }

  void SerializePayload(BlobWriter* writer) const override {
    writer->WriteU8(static_cast<uint8_t>(variant_));
    writer->WriteU64(options_.sentence_dim);
    writer->WriteU64(options_.seed);
    writer->WriteU64(data::ColumnarStore::kQGramCharCap);
    writer->WriteU64(num_attrs_);
    writer->WriteI32(best_feature_);
    writer->WriteDouble(best_threshold_);
    writer->WriteDouble(best_valid_f1_);
  }

 private:
  std::pair<embed::Vec, embed::Vec> EncodeRecord(const MatchingContext& context,
                                                 bool left_side,
                                                 uint32_t record,
                                                 int attr) const {
    const data::Table& table =
        left_side ? context.task().left() : context.task().right();
    const std::string text =
        attr < 0 ? table.record(record).ConcatenatedValues()
                 : table.record(record).values[static_cast<size_t>(attr)];
    embed::Vec vec = encoder_.Encode(text);
    // Same empty-text fallback as the live matcher's packed cache.
    if (vec.empty()) vec.assign(encoder_.dim(), 0.0F);
    // Sorted copy for the Wasserstein kernel: same bits as the packed
    // cache's sorted shadow, so live and snapshot scoring stay identical.
    embed::Vec sorted = vec;
    std::sort(sorted.begin(), sorted.end());
    return {std::move(vec), std::move(sorted)};
  }

  EsdeVariant variant_;
  EsdeOptions options_;
  embed::SentenceEncoder encoder_;
  size_t num_attrs_;
  int best_feature_;
  double best_threshold_;
  double best_valid_f1_;
};

}  // namespace

EsdeMatcher::EsdeMatcher(EsdeVariant variant, EsdeOptions options)
    : variant_(variant),
      options_(options),
      encoder_(options.sentence_dim, options.seed) {}

void EsdeMatcher::EncodeSentenceVectors(const MatchingContext& context) {
  size_t num_attrs = context.task().left().schema().num_attributes();
  vec_slots_per_side_ = num_attrs + 1;
  vec_pack_.resize(2 * vec_slots_per_side_);
  std::vector<int> attrs;
  if (variant_ == EsdeVariant::kSchemaAgnosticSent) {
    attrs.push_back(-1);
  } else {
    for (size_t a = 0; a < num_attrs; ++a) attrs.push_back(static_cast<int>(a));
  }
  for (bool left_side : {true, false}) {
    const data::Table& table =
        left_side ? context.task().left() : context.task().right();
    size_t side = left_side ? 0 : 1;
    for (int attr : attrs) {
      data::PackedMatrix& pack =
          vec_pack_[side * vec_slots_per_side_ + static_cast<size_t>(attr + 1)];
      pack.Reset(table.size(), encoder_.dim());
      ParallelFor(0, table.size(), 64, [&](size_t r) {
        const std::string text =
            attr < 0 ? table.record(r).ConcatenatedValues()
                     : table.record(r).values[static_cast<size_t>(attr)];
        embed::Vec vec = encoder_.Encode(text);
        // Empty text encodes to the zero vector, which is what Reset
        // zero-filled the row with already.
        if (!vec.empty()) {
          auto row = pack.mutable_row(r);
          std::copy(vec.begin(), vec.end(), row.begin());
        }
      });
      pack.BuildSortedRows();
    }
  }
}

std::pair<std::span<const float>, std::span<const float>>
EsdeMatcher::RecordSpans(bool left_side, uint32_t record, int attr) const {
  size_t side = left_side ? 0 : 1;
  const data::PackedMatrix& pack =
      vec_pack_[side * vec_slots_per_side_ + static_cast<size_t>(attr + 1)];
  // PrepareFeatures fills the pack for every record this variant reads;
  // an empty matrix here means it did not run.
  RLBENCH_DCHECK(!pack.empty());
  return {pack.row(record), pack.sorted_row(record)};
}

std::vector<double> EsdeMatcher::Features(const MatchingContext& context,
                                          const data::LabeledPair& pair) {
  return EsdeFeaturesWith(context, variant_, pair,
                          [&](bool left_side, uint32_t record, int attr) {
                            return RecordSpans(left_side, record, attr);
                          });
}

double EsdeMatcher::SingleFeature(const MatchingContext& context,
                                  const data::LabeledPair& pair, int feature) {
  // For the set-similarity variants, computing the full (cheap) vector and
  // indexing keeps the code simple; the expensive caches are shared anyway.
  return Features(context, pair)[feature];
}

void EsdeMatcher::PrepareFeatures(const MatchingContext& context) {
  RLBENCH_TRACE_SPAN("esde/prepare");
  if (IsQGramVariant(variant_)) {
    // Contiguous sorted q-gram pools for the merge-scan kernels.
    context.columnar().EnsureQGrams();
  } else if (variant_ == EsdeVariant::kSchemaAgnosticSent ||
             variant_ == EsdeVariant::kSchemaBasedSent) {
    // Pre-encode every record vector the variant reads into the packed
    // matrices; afterwards the batch loops only read immutable rows.
    EncodeSentenceVectors(context);
  }
}

Result<std::unique_ptr<TrainedModel>> EsdeMatcher::TrainModel(
    const MatchingContext& context) {
  const auto& task = context.task();
  size_t num_attrs = task.left().schema().num_attributes();
  size_t dim = EsdeFeatureCount(variant_, num_attrs);

  // Build everything this variant reads first, so the batch loops below
  // only read and may extract features concurrently (rows are
  // index-addressed — identical results at any thread count).
  PrepareFeatures(context);

  // --- Training phase: best threshold per feature on the training set.
  const auto& train = task.train();
  std::vector<std::vector<double>> train_rows(train.size());
  std::vector<double> thresholds(dim, 0.5);
  {
    RLBENCH_TRACE_SPAN("esde/train");
    RLBENCH_COUNTER_ADD("matchers/esde/pairs_featurized", train.size());
    ParallelFor(0, train.size(), kPairGrain, [&](size_t i) {
      train_rows[i] = Features(context, train[i]);
    });
    std::vector<uint8_t> train_labels(train.size());
    for (size_t i = 0; i < train.size(); ++i) {
      train_labels[i] = train[i].is_match ? 1 : 0;
    }
    // One independent sweep per feature; each writes only thresholds[f].
    ParallelFor(0, dim, 1, [&](size_t f) {
      std::vector<double> column(train.size());
      for (size_t i = 0; i < train.size(); ++i) column[i] = train_rows[i][f];
      thresholds[f] = ml::SweepThresholds(column, train_labels).best_threshold;
    });
  }

  // --- Validation phase: pick the feature whose (feature, threshold) rule
  // scores best on the validation set.
  const auto& valid = task.valid();
  RLBENCH_TRACE_SPAN("esde/valid_and_test");
  RLBENCH_COUNTER_ADD("matchers/esde/pairs_featurized", valid.size());
  std::vector<std::vector<double>> valid_rows(valid.size());
  ParallelFor(0, valid.size(), kPairGrain, [&](size_t i) {
    valid_rows[i] = Features(context, valid[i]);
  });
  std::vector<ml::Confusion> confusion(dim);
  ParallelFor(0, dim, 1, [&](size_t f) {
    for (size_t i = 0; i < valid.size(); ++i) {
      bool predicted = thresholds[f] <= valid_rows[i][f];
      if (valid[i].is_match) {
        predicted ? ++confusion[f].true_positives
                  : ++confusion[f].false_negatives;
      } else {
        predicted ? ++confusion[f].false_positives
                  : ++confusion[f].true_negatives;
      }
    }
  });
  // Serial arg-max keeps the historical lowest-index tie-break.
  best_feature_ = 0;
  best_valid_f1_ = -1.0;
  for (size_t f = 0; f < dim; ++f) {
    double f1 = confusion[f].F1();
    if (f1 > best_valid_f1_) {
      best_valid_f1_ = f1;
      best_feature_ = static_cast<int>(f);
    }
  }
  best_threshold_ = thresholds[best_feature_];
  return std::unique_ptr<TrainedModel>(std::make_unique<TrainedEsdeModel>(
      variant_, options_, num_attrs, best_feature_, best_threshold_,
      best_valid_f1_));
}

std::vector<uint8_t> EsdeMatcher::Run(const MatchingContext& context) {
  RLBENCH_TRACE_SPAN("esde/run");
  RLBENCH_COUNTER_INC("matchers/esde/runs");
  auto model = TrainModel(context);
  RLBENCH_CHECK(model.ok());

  // --- Testing phase: apply the selected rule. The live matcher keeps its
  // record-vector cache, so it scores through SingleFeature rather than the
  // snapshot model's re-encoding path; both produce identical bits (the
  // serve tests assert it).
  const auto& test = context.task().test();
  RLBENCH_COUNTER_ADD("matchers/esde/pairs_featurized", test.size());
  std::vector<uint8_t> predictions(test.size());
  ParallelFor(0, test.size(), kPairGrain, [&](size_t i) {
    double score = SingleFeature(context, test[i], best_feature_);
    predictions[i] = best_threshold_ <= score ? 1 : 0;
  });
  return predictions;
}

Result<std::unique_ptr<TrainedModel>> DeserializeEsdeModel(
    BlobReader* reader) {
  RLBENCH_ASSIGN_OR_RETURN(uint8_t variant_tag, reader->ReadU8());
  if (variant_tag > static_cast<uint8_t>(EsdeVariant::kSchemaBasedSent)) {
    return Status::IOError("esde model: unknown variant tag");
  }
  auto variant = static_cast<EsdeVariant>(variant_tag);
  EsdeOptions options;
  RLBENCH_ASSIGN_OR_RETURN(uint64_t sentence_dim, reader->ReadU64());
  RLBENCH_ASSIGN_OR_RETURN(options.seed, reader->ReadU64());
  // The q-gram character cap the model was trained under; the store's
  // cap is fixed, so a snapshot that records another one cannot score.
  RLBENCH_ASSIGN_OR_RETURN(uint64_t qgram_char_cap, reader->ReadU64());
  RLBENCH_ASSIGN_OR_RETURN(uint64_t num_attrs, reader->ReadU64());
  RLBENCH_ASSIGN_OR_RETURN(int32_t best_feature, reader->ReadI32());
  RLBENCH_ASSIGN_OR_RETURN(double best_threshold, reader->ReadDouble());
  RLBENCH_ASSIGN_OR_RETURN(double best_valid_f1, reader->ReadDouble());
  if (sentence_dim == 0 || sentence_dim > (1U << 20)) {
    return Status::IOError("esde model: implausible sentence dimension");
  }
  if (num_attrs == 0 || num_attrs > (1U << 16)) {
    return Status::IOError("esde model: implausible attribute count");
  }
  if (qgram_char_cap != data::ColumnarStore::kQGramCharCap) {
    return Status::IOError("esde model: q-gram character cap " +
                           std::to_string(qgram_char_cap) + " != " +
                           std::to_string(data::ColumnarStore::kQGramCharCap));
  }
  options.sentence_dim = static_cast<size_t>(sentence_dim);
  size_t dim = EsdeFeatureCount(variant, static_cast<size_t>(num_attrs));
  if (best_feature < 0 || static_cast<size_t>(best_feature) >= dim) {
    return Status::IOError("esde model: selected feature out of range");
  }
  return std::unique_ptr<TrainedModel>(std::make_unique<TrainedEsdeModel>(
      variant, options, static_cast<size_t>(num_attrs), best_feature,
      best_threshold, best_valid_f1));
}

}  // namespace rlbench::matchers
