#include "matchers/dl_sims.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/rng.h"

namespace rlbench::matchers {

const char* DlMethodName(DlMethod method) {
  switch (method) {
    case DlMethod::kDeepMatcher:
      return "DeepMatcher";
    case DlMethod::kEmTransformerB:
      return "EMTransformer-B";
    case DlMethod::kEmTransformerR:
      return "EMTransformer-R";
    case DlMethod::kGnem:
      return "GNEM";
    case DlMethod::kDitto:
      return "DITTO";
    case DlMethod::kHierMatcher:
      return "HierMatcher";
  }
  return "DL";
}

namespace {
// Per-column alignment feature slots for the transformer family (the
// widest catalog schema has 8 attributes).
constexpr size_t kMaxColumnFeatures = 8;

size_t Side(bool left_side) {
  return left_side ? data::ColumnarStore::kLeft : data::ColumnarStore::kRight;
}
}  // namespace

DlMatcher::DlMatcher(DlMethod method, int epochs, DlOptions options)
    : method_(method),
      epochs_(epochs),
      options_(options),
      static_model_(options.attr_dim, options.seed ^ 0x57A71CULL) {}

std::string DlMatcher::name() const {
  return std::string(DlMethodName(method_)) + " (" + std::to_string(epochs_) +
         ")";
}

std::vector<std::string> DlMatcher::SequenceTokens(
    const MatchingContext& context, bool left_side, uint32_t record) const {
  auto seq = context.columnar().TokenSeqAll(Side(left_side), record);
  if (method_ == DlMethod::kDitto) {
    // DITTO summarises long inputs by TF-IDF weight instead of truncating.
    std::vector<std::string> tokens(seq.begin(), seq.end());
    return context.tfidf().Summarize(tokens, options_.max_sequence_tokens);
  }
  seq = seq.first(std::min(seq.size(), options_.max_sequence_tokens));
  return {seq.begin(), seq.end()};
}

DlMatcher::RecordRep DlMatcher::BuildRep(const MatchingContext& context,
                                         bool left_side, uint32_t record,
                                         Rng* dropout) const {
  RecordRep rep;
  const data::ColumnarStore& store = context.columnar();
  size_t side = Side(left_side);
  size_t num_attrs = store.num_attrs();
  auto keep = [&](std::string_view) {
    return dropout == nullptr ||
           !dropout->Bernoulli(options_.ditto_token_dropout);
  };

  auto token_vec = [this](std::string_view view) -> const embed::Vec& {
    std::string token(view);
    auto it = token_cache_.find(token);
    if (it == token_cache_.end()) {
      it = token_cache_.emplace(token, static_model_.EmbedToken(token)).first;
    }
    return it->second;
  };

  switch (method_) {
    case DlMethod::kDeepMatcher: {
      rep.attr_vecs.resize(num_attrs);
      for (size_t a = 0; a < num_attrs; ++a) {
        auto tokens = store.TokenSeqAttr(side, record, a);
        embed::Vec v(options_.attr_dim, 0.0F);
        for (std::string_view token : tokens) {
          embed::AddInPlace(&v, token_vec(token));
        }
        if (!tokens.empty()) {
          embed::ScaleInPlace(&v, 1.0F / static_cast<float>(tokens.size()));
          embed::L2NormalizeInPlace(&v);
        }
        rep.attr_vecs[a] = std::move(v);
      }
      break;
    }
    case DlMethod::kEmTransformerB:
    case DlMethod::kEmTransformerR:
    case DlMethod::kGnem:
    case DlMethod::kDitto: {
      std::vector<std::string> tokens =
          SequenceTokens(context, left_side, record);
      if (dropout != nullptr) {
        std::vector<std::string> kept;
        kept.reserve(tokens.size());
        for (auto& token : tokens) {
          if (keep(token)) kept.push_back(std::move(token));
        }
        tokens = std::move(kept);
      }
      rep.seq_vec = dynamic_model_->EncodeSequence(tokens);
      if (rep.seq_vec.empty()) rep.seq_vec.assign(options_.seq_dim, 0.0F);
      // Token vectors for cross-sequence alignment features, capped like
      // HierMatcher's alignment window. Subword (static) vectors keep the
      // token identity crisp; the dynamic context enters via seq_vec.
      // The attribute id of each token is known because the serialized
      // input carries column tags (the "[COL] a [VAL] v" convention of
      // DITTO/EMTransformer), so same-column alignment is available to the
      // heterogeneous methods without requiring aligned schemas.
      for (size_t a = 0; a < num_attrs &&
                         rep.token_vecs.size() < options_.max_alignment_tokens;
           ++a) {
        for (std::string_view token : store.TokenSeqAttr(side, record, a)) {
          if (rep.token_vecs.size() >= options_.max_alignment_tokens) break;
          if (!keep(token)) continue;
          rep.token_vecs.push_back(token_vec(token));
          rep.token_idf.push_back(context.tfidf().Idf(std::string(token)));
          rep.token_attr.push_back(a);
        }
      }
      break;
    }
    case DlMethod::kHierMatcher: {
      for (size_t a = 0; a < num_attrs &&
                         rep.token_vecs.size() < options_.max_alignment_tokens;
           ++a) {
        for (std::string_view token : store.TokenSeqAttr(side, record, a)) {
          if (rep.token_vecs.size() >= options_.max_alignment_tokens) break;
          rep.token_vecs.push_back(token_vec(token));
          rep.token_idf.push_back(context.tfidf().Idf(std::string(token)));
          rep.token_attr.push_back(a);
        }
      }
      break;
    }
  }
  return rep;
}

const DlMatcher::RecordRep& DlMatcher::Rep(const MatchingContext& context,
                                           bool left_side, uint32_t record) {
  auto& cache = rep_cache_[left_side ? 0 : 1];
  auto it = cache.find(record);
  if (it == cache.end()) {
    it = cache.emplace(record, BuildRep(context, left_side, record, nullptr))
             .first;
  }
  return it->second;
}

size_t DlMatcher::FeatureDim(size_t num_attrs) const {
  switch (method_) {
    case DlMethod::kDeepMatcher:
      return 2 * options_.attr_dim * num_attrs;
    case DlMethod::kEmTransformerB:
    case DlMethod::kEmTransformerR:
    case DlMethod::kGnem:
    case DlMethod::kDitto:
      // 3 sequence sims + 8 global alignment stats + 4 same-column
      // alignment stats + kMaxColumnFeatures per-column means + 2x2
      // chunk-pooled interactions.
      return 3 + 8 + 4 + kMaxColumnFeatures + 4;
    case DlMethod::kHierMatcher:
      return 4 * num_attrs + 2;
  }
  return 0;
}

std::vector<float> DlMatcher::PairFeatures(const RecordRep& left,
                                           const RecordRep& right) const {
  std::vector<float> features;
  switch (method_) {
    case DlMethod::kDeepMatcher: {
      features.reserve(2 * options_.attr_dim * left.attr_vecs.size());
      for (size_t a = 0; a < left.attr_vecs.size(); ++a) {
        embed::Vec interaction =
            embed::InteractionFeatures(left.attr_vecs[a], right.attr_vecs[a]);
        features.insert(features.end(), interaction.begin(),
                        interaction.end());
      }
      break;
    }
    case DlMethod::kEmTransformerB:
    case DlMethod::kEmTransformerR:
    case DlMethod::kGnem:
    case DlMethod::kDitto: {
      features.push_back(static_cast<float>(
          embed::CosineSimilarity01(left.seq_vec, right.seq_vec)));
      features.push_back(static_cast<float>(
          embed::EuclideanSimilarity(left.seq_vec, right.seq_vec)));
      features.push_back(static_cast<float>(
          embed::WassersteinSimilarity(left.seq_vec, right.seq_vec)));
      // Cross-sequence token alignment (the cross-encoder's attention
      // between the two sequences): mean / max / IDF-weighted mean of each
      // token's best match on the other side, both directions.
      auto align = [](const RecordRep& from, const RecordRep& to,
                      float out[4]) {
        out[0] = out[1] = out[2] = out[3] = 0.0F;
        if (from.token_vecs.empty() || to.token_vecs.empty()) return;
        double sum = 0.0;
        double best_overall = 0.0;
        double idf_sum = 0.0;
        double idf_weight = 0.0;
        std::vector<double> bests;
        bests.reserve(from.token_vecs.size());
        for (size_t i = 0; i < from.token_vecs.size(); ++i) {
          double best = 0.0;
          for (const auto& other : to.token_vecs) {
            best = std::max(
                best, embed::CosineSimilarity01(from.token_vecs[i], other));
          }
          sum += best;
          best_overall = std::max(best_overall, best);
          idf_sum += from.token_idf[i] * best;
          idf_weight += from.token_idf[i];
          bests.push_back(best);
        }
        out[0] = static_cast<float>(
            sum / static_cast<double>(from.token_vecs.size()));
        out[1] = static_cast<float>(best_overall);
        out[2] = static_cast<float>(
            idf_weight > 0.0 ? idf_sum / idf_weight : 0.0);
        // Min-pooling over the worst-aligned tokens: the attention head
        // that notices "one token has no counterpart" — the signal that
        // separates a typo'd duplicate from a sibling entity.
        std::sort(bests.begin(), bests.end());
        size_t k = std::min<size_t>(3, bests.size());
        double worst = 0.0;
        for (size_t i = 0; i < k; ++i) worst += bests[i];
        out[3] = static_cast<float>(worst / static_cast<double>(k));
      };
      float l2r[4];
      float r2l[4];
      align(left, right, l2r);
      align(right, left, r2l);
      features.insert(features.end(), {l2r[0], l2r[1], l2r[2], l2r[3],
                                       r2l[0], r2l[1], r2l[2], r2l[3]});
      // Same-column alignment (available through the serialized column
      // tags): idf-weighted mean and worst-3 mean of each token's best
      // match *within the same attribute*, both directions.
      auto column_align = [](const RecordRep& from, const RecordRep& to,
                             float out[2]) {
        out[0] = out[1] = 0.0F;
        if (from.token_vecs.empty() || to.token_vecs.empty()) return;
        double idf_sum = 0.0;
        double idf_weight = 0.0;
        std::vector<double> bests;
        bests.reserve(from.token_vecs.size());
        for (size_t i = 0; i < from.token_vecs.size(); ++i) {
          double best = 0.0;
          for (size_t j = 0; j < to.token_vecs.size(); ++j) {
            if (to.token_attr[j] != from.token_attr[i]) continue;
            best = std::max(best, embed::CosineSimilarity01(
                                      from.token_vecs[i], to.token_vecs[j]));
          }
          idf_sum += from.token_idf[i] * best;
          idf_weight += from.token_idf[i];
          bests.push_back(best);
        }
        out[0] = static_cast<float>(
            idf_weight > 0.0 ? idf_sum / idf_weight : 0.0);
        std::sort(bests.begin(), bests.end());
        size_t k = std::min<size_t>(3, bests.size());
        double worst = 0.0;
        for (size_t i = 0; i < k; ++i) worst += bests[i];
        out[1] = static_cast<float>(k > 0 ? worst / static_cast<double>(k)
                                          : 0.0);
      };
      float col_l2r[2];
      float col_r2l[2];
      column_align(left, right, col_l2r);
      column_align(right, left, col_r2l);
      features.insert(features.end(),
                      {col_l2r[0], col_l2r[1], col_r2l[0], col_r2l[1]});
      // Per-column alignment means (two directions averaged), one slot per
      // column up to kMaxColumnFeatures: the hierarchical decomposition the
      // column tags make available to heterogeneous methods.
      {
        std::vector<double> sum(kMaxColumnFeatures, 0.0);
        std::vector<double> weight(kMaxColumnFeatures, 0.0);
        auto accumulate = [&](const RecordRep& from, const RecordRep& to) {
          for (size_t i = 0; i < from.token_vecs.size(); ++i) {
            size_t a = from.token_attr[i];
            if (a >= kMaxColumnFeatures) continue;
            double best = 0.0;
            for (size_t j = 0; j < to.token_vecs.size(); ++j) {
              if (to.token_attr[j] != a) continue;
              best = std::max(best,
                              embed::CosineSimilarity01(from.token_vecs[i],
                                                        to.token_vecs[j]));
            }
            sum[a] += best;
            weight[a] += 1.0;
          }
        };
        accumulate(left, right);
        accumulate(right, left);
        for (size_t a = 0; a < kMaxColumnFeatures; ++a) {
          features.push_back(static_cast<float>(
              weight[a] > 0.0 ? sum[a] / weight[a] : 0.0));
        }
      }
      // Chunk-pooled interaction of the sequence vectors: mean |a-b| and
      // mean a*b over 2 contiguous chunks each — a low-dimensional proxy
      // for the untrained interaction layer that behaves well on the small
      // training sets of Table III.
      {
        size_t dim = left.seq_vec.size();
        size_t chunks = 2;
        size_t chunk = std::max<size_t>(1, dim / chunks);
        for (size_t c = 0; c < chunks; ++c) {
          size_t begin = c * chunk;
          size_t end = c + 1 == chunks ? dim : std::min(dim, begin + chunk);
          double diff = 0.0;
          for (size_t i = begin; i < end; ++i) {
            diff += std::fabs(double{left.seq_vec[i]} - right.seq_vec[i]);
          }
          features.push_back(static_cast<float>(
              begin < end ? diff / static_cast<double>(end - begin) : 0.0));
        }
        for (size_t c = 0; c < chunks; ++c) {
          size_t begin = c * chunk;
          size_t end = c + 1 == chunks ? dim : std::min(dim, begin + chunk);
          double had = 0.0;
          for (size_t i = begin; i < end; ++i) {
            had += double{left.seq_vec[i]} * right.seq_vec[i];
          }
          features.push_back(static_cast<float>(
              begin < end ? had / static_cast<double>(end - begin) : 0.0));
        }
      }
      break;
    }
    case DlMethod::kHierMatcher: {
      // Cross-attribute token alignment: every token finds its best match
      // on the other side regardless of attribute (the heterogeneous step),
      // then alignment quality is pooled per attribute of the *query* side.
      size_t num_attrs = 0;
      for (size_t a : left.token_attr) num_attrs = std::max(num_attrs, a + 1);
      for (size_t a : right.token_attr) num_attrs = std::max(num_attrs, a + 1);

      auto align = [](const RecordRep& from, const RecordRep& to,
                      size_t attrs, double* overall) {
        std::vector<double> mean_per_attr(attrs, 0.0);
        std::vector<double> max_per_attr(attrs, 0.0);
        std::vector<double> count(attrs, 0.0);
        double total = 0.0;
        for (size_t i = 0; i < from.token_vecs.size(); ++i) {
          double best = 0.0;
          for (const auto& other : to.token_vecs) {
            best = std::max(best,
                            embed::CosineSimilarity01(from.token_vecs[i],
                                                      other));
          }
          size_t a = from.token_attr[i];
          mean_per_attr[a] += best;
          max_per_attr[a] = std::max(max_per_attr[a], best);
          count[a] += 1.0;
          total += best;
        }
        for (size_t a = 0; a < attrs; ++a) {
          if (count[a] > 0.0) mean_per_attr[a] /= count[a];
        }
        *overall = from.token_vecs.empty()
                       ? 0.0
                       : total / static_cast<double>(from.token_vecs.size());
        return std::make_pair(mean_per_attr, max_per_attr);
      };

      double overall_l2r = 0.0;
      double overall_r2l = 0.0;
      auto [mean_l2r, max_l2r] = align(left, right, num_attrs, &overall_l2r);
      auto [mean_r2l, max_r2l] = align(right, left, num_attrs, &overall_r2l);
      for (size_t a = 0; a < num_attrs; ++a) {
        features.push_back(static_cast<float>(mean_l2r[a]));
        features.push_back(static_cast<float>(max_l2r[a]));
        features.push_back(static_cast<float>(mean_r2l[a]));
        features.push_back(static_cast<float>(max_r2l[a]));
      }
      features.push_back(static_cast<float>(overall_l2r));
      features.push_back(static_cast<float>(overall_r2l));
      break;
    }
  }
  return features;
}

std::vector<uint8_t> DlMatcher::Run(const MatchingContext& context) {
  // One matcher instance may be reused across tasks: reset per-task state.
  token_cache_.clear();
  rep_cache_.assign(2, {});
  dynamic_model_ = std::make_unique<embed::ContextEncoder>(
      options_.seq_dim, options_.seed,
      method_ == DlMethod::kEmTransformerR || method_ == DlMethod::kDitto
          ? 0x20BE27A5ull  // the RoBERTa-style checkpoint
          : 0xBE27ull,     // the BERT-style checkpoint
      &context.tfidf());

  const auto& task = context.task();
  size_t num_attrs = task.left().schema().num_attributes();
  size_t dim = FeatureDim(num_attrs);

  // HierMatcher's feature width depends on the attribute count; pad to dim.
  auto pad = [dim](std::vector<float> features) {
    features.resize(dim, 0.0F);
    return features;
  };

  ml::Dataset train(dim);
  Rng augment_rng(options_.seed ^ 0xA06ULL);
  for (const auto& pair : task.train()) {
    train.Add(pad(PairFeatures(Rep(context, true, pair.left),
                               Rep(context, false, pair.right))),
              pair.is_match);
    if (method_ == DlMethod::kDitto &&
        augment_rng.Bernoulli(options_.ditto_augment_rate)) {
      // Augmented copy: re-encode both sides with token dropout.
      RecordRep l = BuildRep(context, true, pair.left, &augment_rng);
      RecordRep r = BuildRep(context, false, pair.right, &augment_rng);
      train.Add(pad(PairFeatures(l, r)), pair.is_match);
    }
  }
  ml::Dataset valid(dim);
  for (const auto& pair : task.valid()) {
    valid.Add(pad(PairFeatures(Rep(context, true, pair.left),
                               Rep(context, false, pair.right))),
              pair.is_match);
  }
  ml::Dataset test(dim);
  for (const auto& pair : task.test()) {
    test.Add(pad(PairFeatures(Rep(context, true, pair.left),
                              Rep(context, false, pair.right))),
             pair.is_match);
  }

  ml::MlpOptions mlp_options = options_.mlp;
  mlp_options.epochs = epochs_;
  mlp_options.seed = options_.seed;
  ml::Mlp mlp(mlp_options);
  mlp.Fit(train, valid);

  // Batched panel scoring through the affine kernels — bit-identical to a
  // per-row PredictScore loop (the differential tests pin it).
  std::vector<double> scores(test.size());
  mlp.PredictScoresBatch(test, scores);
  // The encoder and both caches are per-task state and are dead once the
  // test set is scored: release them, so a line-up that keeps every
  // matcher alive (and trains several at once) does not keep their caches.
  token_cache_ = {};
  rep_cache_ = {};
  dynamic_model_.reset();

  if (method_ == DlMethod::kGnem) {
    // Global step: reason jointly over all candidate pairs that share a
    // record. In Clean-Clean ER each record matches at most one record on
    // the other side, so a strong *competing* pair on the same record —
    // a labelled positive, or a higher-scoring test pair — is evidence
    // against this pair (GNEM's one-to-set interaction module).
    std::unordered_map<uint32_t, std::vector<std::pair<size_t, double>>>
        by_left, by_right;
    // Index space: test pairs carry their own index so a pair skips itself
    // during propagation; labelled pairs use a sentinel index.
    for (size_t i = 0; i < task.test().size(); ++i) {
      const auto& pair = task.test()[i];
      by_left[pair.left].emplace_back(i, scores[i]);
      by_right[pair.right].emplace_back(i, scores[i]);
    }
    for (const auto* split : {&task.train(), &task.valid()}) {
      for (const auto& pair : *split) {
        if (!pair.is_match) continue;  // non-matches carry no exclusivity
        by_left[pair.left].emplace_back(SIZE_MAX, 1.0);
        by_right[pair.right].emplace_back(SIZE_MAX, 1.0);
      }
    }

    std::vector<double> refined = scores;
    for (size_t i = 0; i < task.test().size(); ++i) {
      const auto& pair = task.test()[i];
      double strongest_competitor = 0.0;
      for (const auto* bucket : {&by_left[pair.left], &by_right[pair.right]}) {
        for (const auto& [j, anchor] : *bucket) {
          if (j == i) continue;
          strongest_competitor = std::max(strongest_competitor, anchor);
        }
      }
      // Suppress this pair in proportion to how much stronger the best
      // competitor is; pairs that dominate their neighbourhood are kept.
      if (strongest_competitor > scores[i]) {
        refined[i] = scores[i] - options_.gnem_lambda *
                                     (strongest_competitor - scores[i]);
        refined[i] = std::max(0.0, refined[i]);
      }
    }
    scores = std::move(refined);
  }

  std::vector<uint8_t> predictions(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    predictions[i] = scores[i] >= 0.5 ? 1 : 0;
  }
  return predictions;
}

}  // namespace rlbench::matchers
