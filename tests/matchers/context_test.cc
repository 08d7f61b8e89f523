#include "matchers/context.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rlbench::matchers
