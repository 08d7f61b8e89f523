// Microbenchmark gating the ISSUE 7 kernels: every vectorized kernel is
// timed against its retained scalar reference on real benchmark data, the
// two paths are checked for bit-identical output while timing, and the
// per-kernel before/after throughput lands in the results block of the
// run manifest, bench_results/BENCH_kernels.json. The acceptance bar
// (enforced by eye / CI history, not by an assert — machines differ) is
// >= 2x on jaccard_token_ids and mlp_batch_score.
//
// Flags: --scale (default 1.0), --repeats (default 5: best-of),
//        --dataset (default Ds5), --rounds (default 40: pair-set sweeps)
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/columnar.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/features.h"
#include "ml/dataset.h"
#include "ml/mlp.h"
#include "support/row_oracle.h"
#include "text/kernels.h"
#include "text/similarity.h"

using namespace rlbench;

namespace {

// Best-of-`repeats` wall time of one closure.
template <typename Fn>
double BestOf(int repeats, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    fn();
    double elapsed = watch.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

struct KernelResult {
  const char* name;
  size_t ops = 0;          // pairs (or rows) processed per timed pass
  double scalar_seconds = 0.0;
  double vector_seconds = 0.0;
};

double Speedup(const KernelResult& r) {
  return r.vector_seconds > 0.0 ? r.scalar_seconds / r.vector_seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  int rounds = static_cast<int>(flags.GetInt("rounds", 40));
  std::string dataset = flags.GetString("dataset", "Ds5");

  benchutil::BenchRun run("micro_kernels", "BENCH_kernels.json");
  run.manifest().AddDataset(dataset);
  run.manifest().AddConfig("scale", scale);
  run.manifest().AddConfig("repeats", static_cast<int64_t>(repeats));
  run.manifest().AddConfig("rounds", static_cast<int64_t>(rounds));

  const auto* spec = datagen::FindExistingBenchmark(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset id %s\n", dataset.c_str());
    benchutil::RecordDatasetPhase(
        run, dataset, 0.0, Status::NotFound("unknown dataset id " + dataset));
    run.Finish();
    return 1;
  }
  auto task = datagen::BuildExistingBenchmark(*spec, scale);

  run.manifest().BeginPhase("warm");
  matchers::MatchingContext context(&task);
  const data::ColumnarStore& store = context.columnar();
  store.EnsureQGrams();
  // The scalar set sweeps read precomputed row-oriented token sets, so
  // both sides of the comparison start from per-record features.
  std::vector<text::TokenSet> left_sets;
  std::vector<text::TokenSet> right_sets;
  for (size_t r = 0; r < task.left().size(); ++r) {
    left_sets.push_back(oracle::TokenSetAll(task.left().record(r)));
  }
  for (size_t r = 0; r < task.right().size(); ++r) {
    right_sets.push_back(oracle::TokenSetAll(task.right().record(r)));
  }
  // All labelled pairs of the task, swept `rounds` times per timed pass so
  // each kernel runs long enough for the clock.
  std::vector<data::LabeledPair> pairs = task.train();
  pairs.insert(pairs.end(), task.valid().begin(), task.valid().end());
  pairs.insert(pairs.end(), task.test().begin(), task.test().end());
  size_t ops = pairs.size() * static_cast<size_t>(rounds);
  run.manifest().EndPhase();

  std::vector<KernelResult> results;
  constexpr size_t kL = data::ColumnarStore::kLeft;
  constexpr size_t kR = data::ColumnarStore::kRight;
  namespace k = text::kernels;

  // Checksums accumulate every similarity so the compiler cannot drop the
  // work, and double as the differential check: scalar and vectorized
  // sweeps must agree bit for bit.
  run.manifest().BeginPhase("kernels");
  {
    KernelResult r{"jaccard_token_ids", ops};
    double scalar_sum = 0.0, vector_sum = 0.0;
    r.scalar_seconds = BestOf(repeats, [&] {
      scalar_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          scalar_sum += text::JaccardSimilarity(left_sets[p.left],
                                                right_sets[p.right]);
        }
      }
    });
    // The vectorized side is the batched kernel: gathering the id spans
    // into the pair array is part of the timed work, the sweep itself is
    // one call per round.
    std::vector<k::U32SetPair> set_pairs(pairs.size());
    std::vector<double> jac(pairs.size());
    r.vector_seconds = BestOf(repeats, [&] {
      vector_sum = 0.0;
      for (size_t i = 0; i < pairs.size(); ++i) {
        auto a = store.TokenIdsAll(kL, pairs[i].left);
        auto b = store.TokenIdsAll(kR, pairs[i].right);
        set_pairs[i] = {a.data(), b.data(), static_cast<uint32_t>(a.size()),
                        static_cast<uint32_t>(b.size())};
      }
      for (int round = 0; round < rounds; ++round) {
        k::JaccardSortedU32Batch(set_pairs.data(), set_pairs.size(),
                                 jac.data());
        for (double v : jac) vector_sum += v;
      }
    });
    RLBENCH_CHECK(scalar_sum == vector_sum);
    results.push_back(r);
  }
  {
    // The ESDE triple: three scalar merge scans vs one family scan.
    KernelResult r{"esde_set_family", ops};
    double scalar_sum = 0.0, vector_sum = 0.0;
    r.scalar_seconds = BestOf(repeats, [&] {
      scalar_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          const auto& a = left_sets[p.left];
          const auto& b = right_sets[p.right];
          scalar_sum += text::CosineSimilarity(a, b) +
                        text::DiceSimilarity(a, b) +
                        text::JaccardSimilarity(a, b);
        }
      }
    });
    r.vector_seconds = BestOf(repeats, [&] {
      vector_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          k::SetSims sims = k::SetFamilySortedU32(
              store.TokenIdsAll(kL, p.left), store.TokenIdsAll(kR, p.right));
          vector_sum += sims.cosine + sims.dice + sims.jaccard;
        }
      }
    });
    RLBENCH_CHECK(scalar_sum == vector_sum);
    results.push_back(r);
  }
  {
    // Edit-distance family over the first attribute, Magellan's truncation.
    KernelResult r{"levenshtein_banded", ops};
    double scalar_sum = 0.0, vector_sum = 0.0;
    auto value = [&](size_t side, uint32_t record) {
      std::string_view v = store.Value(side, record, 0);
      return v.substr(0, std::min(v.size(), matchers::kMaxCharsForEditSims));
    };
    r.scalar_seconds = BestOf(repeats, [&] {
      scalar_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          scalar_sum +=
              text::LevenshteinSimilarity(value(kL, p.left), value(kR, p.right));
        }
      }
    });
    r.vector_seconds = BestOf(repeats, [&] {
      vector_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          vector_sum += k::LevenshteinSimilarityBanded(value(kL, p.left),
                                                       value(kR, p.right));
        }
      }
    });
    RLBENCH_CHECK(scalar_sum == vector_sum);
    results.push_back(r);
  }
  {
    KernelResult r{"jaro_winkler", ops};
    double scalar_sum = 0.0, vector_sum = 0.0;
    auto value = [&](size_t side, uint32_t record) {
      std::string_view v = store.Value(side, record, 0);
      return v.substr(0, std::min(v.size(), matchers::kMaxCharsForEditSims));
    };
    r.scalar_seconds = BestOf(repeats, [&] {
      scalar_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          scalar_sum +=
              text::JaroWinklerSimilarity(value(kL, p.left), value(kR, p.right));
        }
      }
    });
    r.vector_seconds = BestOf(repeats, [&] {
      vector_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          vector_sum +=
              k::JaroWinklerKernel(value(kL, p.left), value(kR, p.right));
        }
      }
    });
    RLBENCH_CHECK(scalar_sum == vector_sum);
    results.push_back(r);
  }
  {
    // Full Magellan row: the row-oriented reference (per-pair
    // tokenization, vectors, token copies, strtod/tolower) vs the columnar
    // fill.
    KernelResult r{"magellan_features", pairs.size()};
    size_t dim = store.num_attrs() * matchers::kMagellanFeaturesPerAttr;
    std::vector<float> row(dim);
    double scalar_sum = 0.0, vector_sum = 0.0;
    r.scalar_seconds = BestOf(repeats, [&] {
      scalar_sum = 0.0;
      for (const auto& p : pairs) {
        auto features = oracle::MagellanFeatures(task.left(), task.right(), p);
        for (float f : features) scalar_sum += f;
      }
    });
    r.vector_seconds = BestOf(repeats, [&] {
      vector_sum = 0.0;
      for (const auto& p : pairs) {
        matchers::MagellanFeaturesColumnar(store, p, row);
        for (float f : row) vector_sum += f;
      }
    });
    RLBENCH_CHECK(scalar_sum == vector_sum);
    results.push_back(r);
  }
  {
    // Batched MLP scoring vs the per-row loop, on a trained net.
    Rng rng(7);
    constexpr size_t kRows = 4000, kDim = 36;
    auto random_dataset = [&](size_t rows) {
      ml::Dataset data(kDim);
      std::vector<float> row(kDim);
      for (size_t i = 0; i < rows; ++i) {
        for (float& x : row) x = static_cast<float>(rng.Gaussian());
        data.Add(row, rng.Bernoulli(0.4));
      }
      return data;
    };
    ml::MlpOptions options;
    options.epochs = 2;
    ml::Mlp mlp(options);
    ml::Dataset train = random_dataset(600);
    ml::Dataset valid = random_dataset(100);
    mlp.Fit(train, valid);
    ml::Dataset test = random_dataset(kRows);
    KernelResult r{"mlp_batch_score", kRows};
    std::vector<double> scalar_scores(kRows), vector_scores(kRows);
    r.scalar_seconds = BestOf(repeats, [&] {
      for (size_t i = 0; i < kRows; ++i) {
        scalar_scores[i] = mlp.PredictScore(test.row(i));
      }
    });
    r.vector_seconds = BestOf(repeats, [&] {
      mlp.PredictScoresBatch(test, vector_scores);
    });
    RLBENCH_CHECK(scalar_scores == vector_scores);
    results.push_back(r);
  }
  run.manifest().EndPhase();

  using obs::JsonValue;
  std::vector<JsonValue> kernels;
  for (const KernelResult& r : results) {
    std::printf("%-20s scalar=%.4fs vectorized=%.4fs speedup=%.2fx\n",
                r.name, r.scalar_seconds, r.vector_seconds, Speedup(r));
    kernels.push_back(JsonValue::Object({
        {"name", JsonValue::String(r.name)},
        {"ops", JsonValue::Number(static_cast<double>(r.ops))},
        {"scalar_seconds", JsonValue::Number(r.scalar_seconds)},
        {"vectorized_seconds", JsonValue::Number(r.vector_seconds)},
        {"speedup", JsonValue::Number(Speedup(r))},
    }));
  }
  run.manifest().AddResult(
      "pairs", JsonValue::Number(static_cast<double>(pairs.size())));
  run.manifest().AddResult("kernels", JsonValue::Array(std::move(kernels)));
  return run.Finish() ? 0 : 1;
}
