// ColumnarStore invariants: every column must equal the row-oriented
// reference derivation of tests/support/row_oracle.h (same token
// sequences, token sets, q-gram hash sets and per-value derivations), its
// interning must not depend on record insertion order, and its build must
// be byte-identical at 1/2/7 threads and under the serial-fill failpoint —
// the same contract tests/core/thread_invariance_test.cc pins for the
// measure pipeline.
#include "data/columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/strings.h"
#include "data/record.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "support/row_oracle.h"
#include "text/tokenizer.h"

namespace rlbench::data {
namespace {

Table MakeLeft() {
  Table table("left", Schema({"title", "brand", "price"}));
  table.Add(Record{"l0", {"iPhone 14 Pro 128", "Apple", "999"}});
  table.Add(Record{"l1", {"Galaxy S22 Ultra", "Samsung", "1199.99"}});
  table.Add(Record{"l2", {"", "", ""}});  // fully empty record
  table.Add(Record{"l3", {"usb type c cable", "generic", "9 dollars"}});
  table.Add(Record{"l4", {"Café München 漢字", "ÜBER", "-3e2"}});
  return table;
}

Table MakeRight() {
  Table table("right", Schema({"title", "brand", "price"}));
  table.Add(Record{"r0", {"iphone 14 pro", "apple", " 999 "}});
  table.Add(Record{"r1", {"pixel 7", "google", "599"}});
  table.Add(Record{"r2", {"galaxy s22", "samsung", "not a number"}});
  return table;
}

TEST(ColumnarStoreTest, TokenColumnsEqualTheRowReference) {
  Table left = MakeLeft();
  Table right = MakeRight();
  ColumnarStore store(left, right);

  ASSERT_EQ(store.num_attrs(), 3u);
  ASSERT_EQ(store.num_records(ColumnarStore::kLeft), left.size());
  ASSERT_EQ(store.num_records(ColumnarStore::kRight), right.size());

  const Table* tables[] = {&left, &right};
  for (size_t side : {ColumnarStore::kLeft, ColumnarStore::kRight}) {
    for (size_t r = 0; r < store.num_records(side); ++r) {
      const Record& row = tables[side]->record(r);
      // Sorted unique ids map 1:1 onto the sorted unique hash set: same
      // cardinality, and every id resolves back to a vocab hash that the
      // row-oriented set contains (rank interning is a monotone bijection).
      auto ids = store.TokenIdsAll(side, r);
      const auto hashes = oracle::TokenSetAll(row).hashes();
      ASSERT_EQ(ids.size(), hashes.size());
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
      for (size_t k = 0; k < hashes.size(); ++k) {
        EXPECT_EQ(store.IdOfHash(hashes[k]), ids[k]);
      }
      // The whole-record sequence is text::TokenizeAll, in order.
      auto all_seq = store.TokenSeqAll(side, r);
      EXPECT_EQ(std::vector<std::string>(all_seq.begin(), all_seq.end()),
                text::TokenizeAll(row.values));
      for (size_t a = 0; a < store.num_attrs(); ++a) {
        auto attr_ids = store.TokenIdsAttr(side, r, a);
        const auto attr_hashes = oracle::TokenSetAttr(row, a).hashes();
        ASSERT_EQ(attr_ids.size(), attr_hashes.size());
        for (size_t k = 0; k < attr_hashes.size(); ++k) {
          EXPECT_EQ(store.IdOfHash(attr_hashes[k]), attr_ids[k]);
        }
        // Ordered token sequence equals text::Tokenize of the value.
        auto seq = store.TokenSeqAttr(side, r, a);
        EXPECT_EQ(std::vector<std::string>(seq.begin(), seq.end()),
                  text::Tokenize(row.values[a]));
        // Per-value hoisted derivations match recomputation from the row.
        const std::string& raw = row.values[a];
        EXPECT_EQ(store.Value(side, r, a), raw);
        EXPECT_EQ(store.LoweredValue(side, r, a), ToLowerAscii(raw));
      }
    }
  }
}

TEST(ColumnarStoreTest, WholeRecordTokensSpanAttributesAndDeduplicate) {
  Table left("t", Schema({"title", "brand"}));
  left.Add(Record{"r0", {"iPhone 14 Pro", "Apple"}});
  left.Add(Record{"r1", {"alpha beta", "beta gamma"}});
  left.Add(Record{"r2", {"", ""}});
  Table right("u", Schema({"title", "brand"}));
  right.Add(Record{"u0", {"beta", ""}});
  ColumnarStore store(left, right);
  auto seq = store.TokenSeqAll(ColumnarStore::kLeft, 0);
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0], "iphone");
  EXPECT_EQ(seq[3], "apple");
  EXPECT_EQ(store.TokenSeqAll(ColumnarStore::kLeft, 1).size(), 4u);
  EXPECT_EQ(store.TokenIdsAll(ColumnarStore::kLeft, 1).size(), 3u);
  EXPECT_EQ(store.TokenIdsAttr(ColumnarStore::kLeft, 0, 0).size(), 3u);
  EXPECT_TRUE(store.TokenSeqAll(ColumnarStore::kLeft, 2).empty());
  EXPECT_TRUE(store.TokenIdsAll(ColumnarStore::kLeft, 2).empty());
  store.EnsureQGrams();
  EXPECT_TRUE(store.QGramAll(ColumnarStore::kLeft, 2, 3).empty());
  EXPECT_FALSE(store.QGramAll(ColumnarStore::kRight, 0, 3).empty());
}

TEST(ColumnarStoreTest, QGramColumnsEqualTheRowReference) {
  Table left = MakeLeft();
  Table right = MakeRight();
  // A value past the q-gram character cap exercises the truncation.
  left.Add(Record{"l5", {std::string(400, 'x') + " tail", "y", "1"}});
  ColumnarStore store(left, right);
  EXPECT_FALSE(store.qgrams_built());
  store.EnsureQGrams();
  EXPECT_TRUE(store.qgrams_built());
  store.EnsureQGrams();  // idempotent

  const Table* tables[] = {&left, &right};
  for (size_t side : {ColumnarStore::kLeft, ColumnarStore::kRight}) {
    for (size_t r = 0; r < store.num_records(side); ++r) {
      const Record& row = tables[side]->record(r);
      for (int q = ColumnarStore::kMinQ; q <= ColumnarStore::kMaxQ; ++q) {
        auto all = store.QGramAll(side, r, q);
        const auto expected = oracle::QGramSetAll(row, q).hashes();
        ASSERT_EQ(std::vector<uint64_t>(all.begin(), all.end()), expected);
        for (size_t a = 0; a < store.num_attrs(); ++a) {
          auto got = store.QGramAttr(side, r, a, q);
          const auto want = oracle::QGramSetAttr(row, a, q).hashes();
          ASSERT_EQ(std::vector<uint64_t>(got.begin(), got.end()), want);
        }
      }
    }
  }
}

TEST(ColumnarStoreTest, NumericColumnsMatchHoistedParse) {
  Table left = MakeLeft();
  Table right = MakeRight();
  ColumnarStore store(left, right);
  // "999" parses; " 999 " parses after the whitespace strip; "9 dollars",
  // "not a number" and "" do not.
  EXPECT_TRUE(store.NumericOk(ColumnarStore::kLeft, 0, 2));
  EXPECT_EQ(store.NumericValue(ColumnarStore::kLeft, 0, 2), 999.0);
  EXPECT_TRUE(store.NumericOk(ColumnarStore::kRight, 0, 2));
  EXPECT_EQ(store.NumericValue(ColumnarStore::kRight, 0, 2), 999.0);
  EXPECT_TRUE(store.NumericOk(ColumnarStore::kLeft, 4, 2));
  EXPECT_EQ(store.NumericValue(ColumnarStore::kLeft, 4, 2), -300.0);
  EXPECT_FALSE(store.NumericOk(ColumnarStore::kLeft, 3, 2));
  EXPECT_FALSE(store.NumericOk(ColumnarStore::kLeft, 2, 2));
  EXPECT_FALSE(store.NumericOk(ColumnarStore::kRight, 2, 2));
}

TEST(ColumnarStoreTest, InterningIsStableUnderInsertionOrder) {
  Table left = MakeLeft();
  Table right = MakeRight();
  ColumnarStore forward(left, right);

  // Same records, reversed insertion order on both sides.
  Table left_rev("left", Schema({"title", "brand", "price"}));
  for (size_t i = left.size(); i-- > 0;) left_rev.Add(left.record(i));
  Table right_rev("right", Schema({"title", "brand", "price"}));
  for (size_t i = right.size(); i-- > 0;) right_rev.Add(right.record(i));
  ColumnarStore reversed(left_rev, right_rev);

  ASSERT_EQ(forward.vocab_size(), reversed.vocab_size());
  // Every record's id array is identical wherever the record landed: ids
  // are ranks in the globally sorted vocabulary, not discovery order.
  for (size_t r = 0; r < left.size(); ++r) {
    auto a = forward.TokenIdsAll(ColumnarStore::kLeft, r);
    auto b = reversed.TokenIdsAll(ColumnarStore::kLeft, left.size() - 1 - r);
    ASSERT_EQ(std::vector<uint32_t>(a.begin(), a.end()),
              std::vector<uint32_t>(b.begin(), b.end()));
  }
}

TEST(ColumnarStoreTest, BuildIsByteIdenticalAcrossThreadCounts) {
  Table left("left", Schema({"name", "desc"}));
  Table right("right", Schema({"name", "desc"}));
  for (size_t i = 0; i < 300; ++i) {
    std::string tag = std::to_string(i);
    left.Add(Record{"l" + tag,
                    {"product " + tag + " model x" + std::to_string(i % 13),
                     "series " + std::to_string(i % 7) + " rev " + tag}});
    right.Add(Record{"r" + tag,
                     {"product " + std::to_string(i % 17) + " model y" + tag,
                      "batch " + tag}});
  }

  auto fingerprint = [&](int threads) {
    SetParallelThreads(threads);
    ColumnarStore store(left, right);
    store.EnsureQGrams();
    // Serialize every column the kernels read into one byte-stable vector.
    std::vector<uint64_t> sink;
    for (size_t side : {ColumnarStore::kLeft, ColumnarStore::kRight}) {
      for (size_t r = 0; r < store.num_records(side); ++r) {
        for (uint32_t id : store.TokenIdsAll(side, r)) sink.push_back(id);
        for (size_t a = 0; a < store.num_attrs(); ++a) {
          for (uint32_t id : store.TokenIdsAttr(side, r, a)) {
            sink.push_back(id);
          }
          for (std::string_view token : store.TokenSeqAttr(side, r, a)) {
            sink.push_back(Fnv1a64(token));
          }
          sink.push_back(Fnv1a64(store.Value(side, r, a)));
          sink.push_back(Fnv1a64(store.LoweredValue(side, r, a)));
          sink.push_back(store.NumericOk(side, r, a) ? 1 : 0);
          for (int q = ColumnarStore::kMinQ; q <= ColumnarStore::kMaxQ; ++q) {
            for (uint64_t h : store.QGramAttr(side, r, a, q)) sink.push_back(h);
          }
        }
        for (int q = ColumnarStore::kMinQ; q <= ColumnarStore::kMaxQ; ++q) {
          for (uint64_t h : store.QGramAll(side, r, q)) sink.push_back(h);
        }
      }
    }
    SetParallelThreads(0);
    return sink;
  };

  std::vector<uint64_t> at1 = fingerprint(1);
  EXPECT_EQ(fingerprint(2), at1);
  EXPECT_EQ(fingerprint(7), at1);
  // Injected allocation pressure degrades every fill to a serial loop;
  // the columns must not move.
  obs::Metrics::SetEnabled(true);
  obs::Metrics::Instance().ResetAll();
  ASSERT_TRUE(fault::SetSpec("seed=7;data/columnar/fill=alloc:1").ok());
  EXPECT_EQ(fingerprint(7), at1);
  fault::Clear();
  EXPECT_GT(obs::Metrics::Instance()
                .GetCounter("columnar/degraded_serial_fills")
                .Value(),
            0u);
  obs::Metrics::Instance().ResetAll();
  obs::Metrics::SetEnabled(false);
}

TEST(ColumnarStoreTest, ConcurrentReadsAreStable) {
  Table left("left", Schema({"name", "desc"}));
  for (size_t i = 0; i < 200; ++i) {
    std::string tag = std::to_string(i);
    left.Add(Record{"l" + tag, {"item " + tag + " v" + std::to_string(i % 9),
                                "lot " + std::to_string(i % 5)}});
  }
  Table right = left;
  ColumnarStore store(left, right);
  store.EnsureQGrams();
  std::vector<size_t> expected_tokens(left.size());
  std::vector<size_t> expected_qgrams(left.size());
  for (size_t i = 0; i < left.size(); ++i) {
    expected_tokens[i] = oracle::TokenSetAll(left.record(i)).size();
    expected_qgrams[i] = oracle::QGramSetAll(left.record(i), 2).size();
  }
  // After the build every accessor is a pure read; hammer them from many
  // threads (under TSan this doubles as the data-race check).
  SetParallelThreads(7);
  for (int round = 0; round < 4; ++round) {
    std::vector<size_t> got_tokens(left.size());
    std::vector<size_t> got_qgrams(left.size());
    ParallelFor(0, left.size(), 8, [&](size_t i) {
      got_tokens[i] = store.TokenIdsAll(ColumnarStore::kRight, i).size();
      got_qgrams[i] = store.QGramAll(ColumnarStore::kLeft, i, 2).size();
    });
    EXPECT_EQ(got_tokens, expected_tokens);
    EXPECT_EQ(got_qgrams, expected_qgrams);
  }
  SetParallelThreads(0);
}

}  // namespace
}  // namespace rlbench::data
