// Tests for the sorted-neighbourhood blocker.
#include <gtest/gtest.h>

#include "block/sorted_neighborhood.h"
#include "datagen/catalog.h"
#include "datagen/source_builder.h"

namespace rlbench::block {
namespace {

data::Table SmallTable(const char* name,
                       std::vector<std::vector<std::string>> rows) {
  data::Table table(name, data::Schema({"text"}));
  int i = 0;
  for (auto& row : rows) {
    table.Add(data::Record{name + std::to_string(i++), std::move(row)});
  }
  return table;
}

TEST(SortedNeighborhoodTest, WindowControlsCandidateCount) {
  auto source = datagen::BuildSourceDataset(
      *datagen::FindSourceDataset("Dn3"), 0.1);
  SortedNeighborhoodOptions narrow;
  narrow.window = 4;
  SortedNeighborhoodOptions wide;
  wide.window = 20;
  auto few = SortedNeighborhoodBlocking(source.d1, source.d2, narrow);
  auto many = SortedNeighborhoodBlocking(source.d1, source.d2, wide);
  EXPECT_LT(few.size(), many.size());
  auto few_metrics = EvaluateBlocking(few, source.matches);
  auto many_metrics = EvaluateBlocking(many, source.matches);
  EXPECT_LE(few_metrics.pair_completeness, many_metrics.pair_completeness);
}

TEST(SortedNeighborhoodTest, PairsOrientedD1D2) {
  auto source = datagen::BuildSourceDataset(
      *datagen::FindSourceDataset("Dn1"), 0.1);
  SortedNeighborhoodOptions options;
  auto candidates = SortedNeighborhoodBlocking(source.d1, source.d2, options);
  for (const auto& [l, r] : candidates) {
    EXPECT_LT(l, source.d1.size());
    EXPECT_LT(r, source.d2.size());
  }
}

TEST(SortedNeighborhoodTest, DuplicatesLandInSameWindow) {
  auto d1 = SmallTable("a", {{"zeta omega alpha"}, {"qqq rrr sss"}});
  auto d2 = SmallTable("b", {{"alpha omega zeta"}, {"mmm nnn ooo"}});
  SortedNeighborhoodOptions options;
  options.window = 2;
  // The sorted token signature of records 0/0 is identical, so they must
  // be adjacent after sorting and fall in one window.
  auto candidates = SortedNeighborhoodBlocking(d1, d2, options);
  bool found = false;
  for (const auto& [l, r] : candidates) {
    if (l == 0 && r == 0) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace rlbench::block
