#include "matchers/context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"

namespace rlbench::matchers {
namespace {

TEST(ContextTest, TfIdfCoversBothTables) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 1.0);
  MatchingContext context(&task);
  EXPECT_EQ(context.tfidf().num_documents(),
            task.left().size() + task.right().size());
}

TEST(ContextTest, FrequentDomainTokensGetLowIdf) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 1.0);
  MatchingContext context(&task);
  // Every beer record carries a style word; a style that occurs often must
  // score below a token that never occurs.
  double common = context.tfidf().Idf("ipa");
  double unseen = context.tfidf().Idf("zzzznevertoken");
  EXPECT_LT(common, unseen);
}

TEST(ContextTest, StoreCoversBothTables) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 0.5);
  MatchingContext context(&task);
  const data::ColumnarStore& store = context.columnar();
  ASSERT_EQ(store.num_records(data::ColumnarStore::kLeft), task.left().size());
  ASSERT_EQ(store.num_records(data::ColumnarStore::kRight),
            task.right().size());
  // Value() views the task's own tables, not copies.
  EXPECT_EQ(store.Value(data::ColumnarStore::kLeft, 0, 0).data(),
            task.left().record(0).values[0].data());
  EXPECT_EQ(store.Value(data::ColumnarStore::kRight, 0, 0).data(),
            task.right().record(0).values[0].data());
}

TEST(ContextTest, MagellanDatasetsShareLabelsWithTask) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 1.0);
  MatchingContext context(&task);
  const auto& train = context.MagellanTrain();
  ASSERT_EQ(train.size(), task.train().size());
  for (size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(train.label(i), task.train()[i].is_match);
  }
}

TEST(ContextTest, ConcurrentFirstUseBuildsEachMemberOnce) {
  auto task = datagen::BuildExistingBenchmark(
      *datagen::FindExistingBenchmark("Ds5"), 0.5);
  // Reference members, built by one caller.
  MatchingContext serial(&task);
  const ml::Dataset& serial_train = serial.MagellanTrain();
  serial.columnar().EnsureQGrams();

  // Eight pool chunks race the first use of every lazy member, each in a
  // different order.
  constexpr size_t kRacers = 8;
  SetParallelThreads(kRacers);
  MatchingContext context(&task);
  std::vector<const text::TfIdfModel*> tfidf(kRacers);
  std::vector<const ml::Dataset*> train(kRacers);
  ParallelFor(0, kRacers, 1, [&](size_t i) {
    switch (i % 3) {
      case 0:
        tfidf[i] = &context.tfidf();
        train[i] = &context.MagellanTrain();
        context.columnar().EnsureQGrams();
        break;
      case 1:
        context.columnar().EnsureQGrams();
        train[i] = &context.MagellanTrain();
        tfidf[i] = &context.tfidf();
        break;
      default:
        train[i] = &context.MagellanTrain();
        context.columnar().EnsureQGrams();
        tfidf[i] = &context.tfidf();
        break;
    }
  });
  SetParallelThreads(0);

  for (size_t i = 1; i < kRacers; ++i) {
    EXPECT_EQ(tfidf[i], tfidf[0]);
    EXPECT_EQ(train[i], train[0]);
  }
  EXPECT_EQ(tfidf[0]->num_documents(), serial.tfidf().num_documents());
  EXPECT_EQ(tfidf[0]->Idf("ipa"), serial.tfidf().Idf("ipa"));
  ASSERT_EQ(train[0]->size(), serial_train.size());
  for (size_t r = 0; r < serial_train.size(); ++r) {
    auto row = train[0]->row(r);
    auto expected = serial_train.row(r);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), expected.begin(),
                           expected.end()))
        << "Magellan row " << r;
  }
  const data::ColumnarStore& store = context.columnar();
  ASSERT_TRUE(store.qgrams_built());
  for (size_t side :
       {data::ColumnarStore::kLeft, data::ColumnarStore::kRight}) {
    for (size_t r = 0; r < store.num_records(side); ++r) {
      auto grams = store.QGramAll(side, r, 3);
      auto expected = serial.columnar().QGramAll(side, r, 3);
      ASSERT_TRUE(std::equal(grams.begin(), grams.end(), expected.begin(),
                             expected.end()))
          << "side " << side << " record " << r;
    }
  }
}

}  // namespace
}  // namespace rlbench::matchers
