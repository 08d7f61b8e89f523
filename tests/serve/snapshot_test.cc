// Snapshot codec + model repository: every servable matcher family must
// round-trip through serialization bit-exactly, corruption must surface as
// load errors, and the repository's CURRENT pointer must behave like an
// atomic publish point.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/file_source.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "serve/model_repository.h"
#include "serve/snapshot.h"
#include "serve/swap.h"

namespace rlbench::serve {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new data::MatchingTask(datagen::BuildExistingBenchmark(
        *datagen::FindExistingBenchmark("Ds7"), 0.5));
    context_ = new matchers::MatchingContext(task_);
  }
  static void TearDownTestSuite() {
    delete context_;
    delete task_;
    context_ = nullptr;
    task_ = nullptr;
  }

  static SnapshotMetadata MetadataFor(const matchers::TrainedModel& model) {
    SnapshotMetadata metadata;
    metadata.matcher_name = model.matcher_name();
    metadata.dataset_id = task_->name();
    metadata.version = 1;
    metadata.num_attrs = model.num_attrs();
    return metadata;
  }

  // Score all test pairs through `model` (scores + decisions).
  static std::pair<std::vector<double>, std::vector<uint8_t>> ScoreAll(
      const matchers::TrainedModel& model) {
    model.PrepareContext(*context_);
    const auto& test = task_->test();
    std::vector<double> scores(test.size());
    std::vector<uint8_t> decisions(test.size());
    EXPECT_TRUE(model
                    .ScoreBatch(*context_, test, std::span<double>(scores),
                                std::span<uint8_t>(decisions))
                    .ok());
    return {std::move(scores), std::move(decisions)};
  }

  static data::MatchingTask* task_;
  static matchers::MatchingContext* context_;
};

data::MatchingTask* SnapshotTest::task_ = nullptr;
matchers::MatchingContext* SnapshotTest::context_ = nullptr;

TEST_F(SnapshotTest, EveryServableFamilyRoundTripsBitExactly) {
  for (const std::string& name : matchers::ServableMatcherNames()) {
    SCOPED_TRACE(name);
    auto trained = matchers::TrainServableMatcher(name, *context_);
    ASSERT_TRUE(trained.ok()) << trained.status();

    std::string bytes = EncodeSnapshot(MetadataFor(**trained), **trained);
    auto decoded = DecodeSnapshot(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->metadata.matcher_name, name);
    EXPECT_EQ(decoded->metadata.dataset_id, task_->name());
    EXPECT_EQ(decoded->model->kind(), (*trained)->kind());

    auto [scores, decisions] = ScoreAll(**trained);
    auto [loaded_scores, loaded_decisions] = ScoreAll(*decoded->model);
    // Bit-exact: a snapshot served anywhere must score exactly like the
    // matcher that trained it.
    EXPECT_EQ(scores, loaded_scores);
    EXPECT_EQ(decisions, loaded_decisions);

    // And a second encode of the loaded model is byte-identical: the
    // serialized form is canonical.
    EXPECT_EQ(bytes, EncodeSnapshot(decoded->metadata, *decoded->model));
  }
}

TEST_F(SnapshotTest, CorruptionSurfacesAsLoadErrors) {
  auto trained = matchers::TrainServableMatcher("Magellan-DT", *context_);
  ASSERT_TRUE(trained.ok());
  std::string bytes = EncodeSnapshot(MetadataFor(**trained), **trained);

  // Bad magic.
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_EQ(DecodeSnapshot(wrong_magic).status().code(), StatusCode::kIOError);

  // Every flipped payload byte must trip the checksum.
  for (size_t pos : {size_t{16}, bytes.size() / 2, bytes.size() - 1}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    EXPECT_FALSE(DecodeSnapshot(corrupt).ok()) << "byte " << pos;
  }

  // Truncation at any point fails cleanly.
  for (size_t keep : {size_t{0}, size_t{7}, size_t{12}, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeSnapshot(bytes.substr(0, keep)).ok()) << keep;
  }

  // Trailing garbage is rejected even with a valid prefix... (the checksum
  // covers only the declared body, so this guards the framing).
  EXPECT_FALSE(DecodeSnapshot(bytes + "zz").ok());
}

TEST_F(SnapshotTest, EsdePayloadMustCarryTheStoreQGramCap) {
  auto trained = matchers::TrainServableMatcher("SAQ-ESDE", *context_);
  ASSERT_TRUE(trained.ok()) << trained.status();
  BlobWriter writer;
  matchers::SerializeTrainedModel(**trained, &writer);
  std::string payload = writer.Release();
  // kind tag (u8), variant (u8), sentence dim (u64), seed (u64), then the
  // q-gram character cap (u64).
  constexpr size_t kCapOffset = 1 + 1 + 8 + 8;
  std::string cap_bytes = payload.substr(kCapOffset, 8);
  BlobReader cap_reader(cap_bytes);
  auto cap = cap_reader.ReadU64();
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(*cap, data::ColumnarStore::kQGramCharCap);

  BlobReader reader(payload);
  EXPECT_TRUE(matchers::DeserializeTrainedModel(&reader).ok());
  // Any other cap names a q-gram space the store does not build.
  for (uint64_t other : {uint64_t{0}, uint64_t{159}, uint64_t{161}}) {
    BlobWriter patched;
    patched.WriteU64(other);
    std::string bytes = payload;
    bytes.replace(kCapOffset, 8, patched.data());
    BlobReader bad(bytes);
    auto decoded = matchers::DeserializeTrainedModel(&bad);
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError) << other;
  }
}

TEST_F(SnapshotTest, RepositoryVersionsAndCurrentPointer) {
  std::string root =
      ::testing::TempDir() + "/rlbench_repo_" + std::to_string(::getpid());
  ModelRepository repository(root);

  EXPECT_EQ(repository.CurrentVersion("Magellan-DT").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(repository.ListVersions("Magellan-DT")->empty());

  auto trained = matchers::TrainServableMatcher("Magellan-DT", *context_);
  ASSERT_TRUE(trained.ok());
  SnapshotMetadata metadata = MetadataFor(**trained);

  auto v1 = repository.Publish(metadata, **trained);
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ(*v1, 1u);
  auto v2 = repository.Publish(metadata, **trained);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);

  EXPECT_EQ(*repository.CurrentVersion("Magellan-DT"), 2u);
  EXPECT_EQ(*repository.ListVersions("Magellan-DT"),
            (std::vector<uint64_t>{1, 2}));

  auto current = repository.LoadCurrent("Magellan-DT");
  ASSERT_TRUE(current.ok()) << current.status();
  EXPECT_EQ(current->metadata.version, 2u);
  auto old = repository.Load("Magellan-DT", 1);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->metadata.version, 1u);

  // Identity validation: a snapshot file moved under another matcher's
  // directory must be refused.
  auto bytes = data::FileSource::ReadAll(repository.SnapshotPath(
      "Magellan-DT", 1));
  ASSERT_TRUE(bytes.ok());
  std::error_code ec;
  std::filesystem::create_directories(root + "/Magellan-RF", ec);
  ASSERT_FALSE(ec);
  ASSERT_TRUE(data::FileSource::WriteAtomic(
                  root + "/Magellan-RF/v0001.snap", *bytes)
                  .ok());
  ASSERT_TRUE(
      data::FileSource::WriteAtomic(root + "/Magellan-RF/CURRENT", "1\n")
          .ok());
  EXPECT_EQ(repository.LoadCurrent("Magellan-RF").status().code(),
            StatusCode::kIOError);

  // A mangled CURRENT degrades into an error, never a bogus version.
  ASSERT_TRUE(
      data::FileSource::WriteAtomic(root + "/Magellan-DT/CURRENT", "2x\n")
          .ok());
  EXPECT_FALSE(repository.CurrentVersion("Magellan-DT").ok());

  // Unsafe matcher names cannot escape the repository root.
  EXPECT_EQ(repository.Load("../oops", 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(repository.Publish(SnapshotMetadata{"a/b", "d", 0, 1}, **trained)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, HotSwapSlotHandsBackPreviousModel) {
  auto first = matchers::TrainServableMatcher("Magellan-DT", *context_);
  auto second = matchers::TrainServableMatcher("SA-ESDE", *context_);
  ASSERT_TRUE(first.ok() && second.ok());

  HotSwappable<matchers::TrainedModel> slot;
  EXPECT_TRUE(slot.Empty());
  EXPECT_EQ(slot.Acquire(), nullptr);

  std::shared_ptr<const matchers::TrainedModel> one(std::move(*first));
  std::shared_ptr<const matchers::TrainedModel> two(std::move(*second));
  EXPECT_EQ(slot.Swap(one), nullptr);
  EXPECT_FALSE(slot.Empty());

  // A reader that acquired before the swap keeps its snapshot alive.
  auto held = slot.Acquire();
  EXPECT_EQ(held, one);
  EXPECT_EQ(slot.Swap(two), one);
  EXPECT_EQ(slot.Acquire(), two);
  EXPECT_EQ(held->matcher_name(), "Magellan-DT");
}

}  // namespace
}  // namespace rlbench::serve
