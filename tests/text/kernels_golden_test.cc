// Golden-file regression for the columnar Magellan feature matrix (ISSUE
// 7): a fixed corpus in tests/testdata/kernels_golden.csv, its expected
// feature matrix in tests/testdata/kernels_golden_expected.csv. Any change
// to tokenization, interning, or a kernel that moves a single feature value
// fails here with a per-feature diff naming the pair, the attribute, and
// the feature.
//
// Regenerating (after an INTENDED behaviour change — review the diff):
//   RLBENCH_REGEN_GOLDEN=1 ./text_test --gtest_filter='KernelsGolden*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "data/columnar.h"
#include "data/file_source.h"
#include "data/record.h"
#include "data/task.h"
#include "matchers/features.h"

namespace rlbench::text {
namespace {

#ifndef RLBENCH_TESTDATA_DIR
#error "RLBENCH_TESTDATA_DIR must be defined by the test build"
#endif

constexpr const char* kCorpusPath =
    RLBENCH_TESTDATA_DIR "/kernels_golden.csv";
constexpr const char* kExpectedPath =
    RLBENCH_TESTDATA_DIR "/kernels_golden_expected.csv";

const char* const kFeatureNames[matchers::kMagellanFeaturesPerAttr] = {
    "jaccard", "levenshtein", "jaro_winkler",
    "monge_elkan", "numeric", "exact_match"};

std::vector<std::string> SplitLine(std::string_view line, char sep) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(line.substr(start));
      return fields;
    }
    fields.emplace_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines;
  for (const std::string& line : SplitLine(text, '\n')) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

struct Corpus {
  data::Table left{"left", data::Schema({"title", "brand", "price"})};
  data::Table right{"right", data::Schema({"title", "brand", "price"})};
};

Corpus LoadCorpus() {
  auto text = data::FileSource::ReadAll(kCorpusPath);
  EXPECT_TRUE(text.ok()) << "missing golden corpus: " << kCorpusPath;
  Corpus corpus;
  bool header = true;
  for (const std::string& line : SplitLines(text.ValueOr(""))) {
    if (header) {  // side,id,title,brand,price
      header = false;
      continue;
    }
    auto fields = SplitLine(line, ',');
    EXPECT_EQ(fields.size(), 5u) << "malformed corpus line: " << line;
    if (fields.size() != 5) continue;
    data::Record record{fields[1], {fields[2], fields[3], fields[4]}};
    (fields[0] == "l" ? corpus.left : corpus.right).Add(record);
  }
  return corpus;
}

// The full cross product, so the expected file covers every record against
// every record (including the adversarial empty / numeric / unicode rows).
std::vector<std::vector<float>> ExtractAllPairs(const Corpus& corpus) {
  data::ColumnarStore store(corpus.left, corpus.right);
  size_t dim =
      store.num_attrs() * matchers::kMagellanFeaturesPerAttr;
  std::vector<std::vector<float>> rows;
  for (uint32_t l = 0; l < corpus.left.size(); ++l) {
    for (uint32_t r = 0; r < corpus.right.size(); ++r) {
      std::vector<float> row(dim);
      matchers::MagellanFeaturesColumnar(store, data::LabeledPair{l, r, false},
                                         row);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::string FormatExpected(const std::vector<std::vector<float>>& rows,
                           size_t num_right) {
  // %.9g round-trips every float exactly, so the file pins exact bits.
  std::string out = "left,right,features...\n";
  char buf[64];
  for (size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%zu,%zu", i / num_right, i % num_right);
    out += buf;
    for (float v : rows[i]) {
      std::snprintf(buf, sizeof(buf), ",%.9g", static_cast<double>(v));
      out += buf;
    }
    out.push_back('\n');
  }
  return out;
}

TEST(KernelsGoldenTest, FeatureMatrixMatchesGoldenFile) {
  Corpus corpus = LoadCorpus();
  ASSERT_GT(corpus.left.size(), 0u);
  ASSERT_GT(corpus.right.size(), 0u);
  auto rows = ExtractAllPairs(corpus);

  if (std::getenv("RLBENCH_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(data::FileSource::WriteAtomic(
                    kExpectedPath, FormatExpected(rows, corpus.right.size()))
                    .ok());
    GTEST_SKIP() << "regenerated " << kExpectedPath;
  }

  auto expected_text = data::FileSource::ReadAll(kExpectedPath);
  ASSERT_TRUE(expected_text.ok())
      << "missing golden matrix " << kExpectedPath
      << " — regenerate with RLBENCH_REGEN_GOLDEN=1";
  auto lines = SplitLines(*expected_text);
  ASSERT_EQ(lines.size(), rows.size() + 1) << "pair count drifted";

  size_t mismatches = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto fields = SplitLine(lines[i + 1], ',');
    ASSERT_EQ(fields.size(), rows[i].size() + 2)
        << "malformed expected line " << i + 1;
    size_t l = i / corpus.right.size();
    size_t r = i % corpus.right.size();
    for (size_t f = 0; f < rows[i].size(); ++f) {
      float want = std::strtof(fields[f + 2].c_str(), nullptr);
      float got = rows[i][f];
      if (got != want) {
        ++mismatches;
        size_t attr = f / matchers::kMagellanFeaturesPerAttr;
        const char* name = kFeatureNames[f % matchers::kMagellanFeaturesPerAttr];
        ADD_FAILURE() << "pair (" << corpus.left.record(l).id << ", "
                      << corpus.right.record(r).id << ") attr "
                      << corpus.left.schema().attribute(attr) << " feature "
                      << name << ": expected " << want << " got " << got
                      << "  [left=\"" << corpus.left.record(l).values[attr]
                      << "\" right=\"" << corpus.right.record(r).values[attr]
                      << "\"]";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace rlbench::text
