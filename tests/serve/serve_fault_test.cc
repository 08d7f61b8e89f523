// Fault drills for the serving subsystem: under a serve/* failpoint storm
// every request is answered exactly once (scored or errored), the service
// drains clean, and disarming faults restores full health. Snapshot
// decode/load failpoints degrade a single load, never the process.
#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "fault/failpoint.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "serve/model_repository.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace rlbench::serve {
namespace {

class ServeFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new data::MatchingTask(datagen::BuildExistingBenchmark(
        *datagen::FindExistingBenchmark("Ds7"), 0.5));
    context_ = new matchers::MatchingContext(task_);
    auto trained = matchers::TrainServableMatcher("Magellan-DT", *context_);
    ASSERT_TRUE(trained.ok());
    model_ = std::shared_ptr<const matchers::TrainedModel>(std::move(*trained));
  }
  static void TearDownTestSuite() {
    model_.reset();
    delete context_;
    delete task_;
    context_ = nullptr;
    task_ = nullptr;
  }
  void TearDown() override { fault::Clear(); }

  static data::MatchingTask* task_;
  static matchers::MatchingContext* context_;
  static std::shared_ptr<const matchers::TrainedModel> model_;
};

data::MatchingTask* ServeFaultTest::task_ = nullptr;
matchers::MatchingContext* ServeFaultTest::context_ = nullptr;
std::shared_ptr<const matchers::TrainedModel> ServeFaultTest::model_;

// Storm every serve/* failpoint at once, across seeds: requests may be
// rejected at admission, expired, or error out per-request — but each
// submitted callback fires exactly once, nothing blocks, nothing crashes,
// and the drain leaves an empty queue.
TEST_F(ServeFaultTest, RequestStormDegradesPerRequestAndDrainsClean) {
  for (uint64_t seed : {3u, 7u, 23u}) {
    SCOPED_TRACE(seed);
    ASSERT_TRUE(fault::SetSpec("seed=" + std::to_string(seed) +
                               ";serve/*=any:0.3")
                    .ok());
    MatchServiceOptions options;
    options.queue_capacity_pairs = 32;
    options.max_batch_pairs = 8;
    MatchService service(context_, options);
    ASSERT_TRUE(service.SwapModel(model_).ok());

    size_t admitted = 0;
    size_t answered_ok = 0;
    size_t answered_error = 0;
    size_t rejected = 0;
    const auto& test = task_->test();
    for (size_t i = 0; i < 120; ++i) {
      std::vector<data::LabeledPair> pairs(3, test[i % test.size()]);
      auto id = service.Submit(
          std::move(pairs),
          [&answered_ok, &answered_error](const RequestOutcome& outcome) {
            if (outcome.status.ok()) {
              ASSERT_EQ(outcome.results.size(), 3u);
              ++answered_ok;
            } else {
              // Per-request degradation only: injected faults surface as
              // Internal or DeadlineExceeded, never anything fatal.
              EXPECT_TRUE(outcome.status.code() == StatusCode::kInternal ||
                          outcome.status.code() ==
                              StatusCode::kDeadlineExceeded)
                  << outcome.status;
              ++answered_error;
            }
          });
      if (id.ok()) {
        ++admitted;
      } else {
        EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted)
            << id.status();
        ++rejected;
      }
      if (i % 5 == 4) service.PumpOne();
    }
    service.Drain();
    EXPECT_EQ(service.QueueDepth(), 0u);
    EXPECT_EQ(service.QueuedPairs(), 0u);
    // Exactly-once accounting: every admitted request was answered.
    EXPECT_EQ(answered_ok + answered_error, admitted);
    EXPECT_GT(answered_error + rejected, 0u) << "storm injected nothing";

    // Disarm: the same service returns to full health immediately.
    fault::Clear();
    Status healthy;
    ASSERT_TRUE(service
                    .Submit({test.front()},
                            [&healthy](const RequestOutcome& outcome) {
                              healthy = outcome.status;
                            })
                    .ok());
    service.Drain();
    EXPECT_TRUE(healthy.ok()) << healthy;
  }
}

TEST_F(ServeFaultTest, SnapshotLoadFaultsDegradeOneLoadNotTheRepository) {
  std::string root = ::testing::TempDir() + "/rlbench_fault_repo_" +
                     std::to_string(::getpid());
  ModelRepository repository(root);
  SnapshotMetadata metadata;
  metadata.matcher_name = model_->matcher_name();
  metadata.dataset_id = task_->name();
  metadata.num_attrs = model_->num_attrs();
  ASSERT_TRUE(repository.Publish(metadata, *model_).ok());

  ASSERT_TRUE(fault::SetSpec("seed=5;serve/snapshot/load=any:1").ok());
  auto blocked = repository.LoadCurrent(model_->matcher_name());
  EXPECT_EQ(blocked.status().code(), StatusCode::kIOError);
  EXPECT_NE(blocked.status().message().find("injected"), std::string::npos);

  ASSERT_TRUE(fault::SetSpec("seed=5;serve/snapshot/decode=any:1").ok());
  auto undecodable = repository.LoadCurrent(model_->matcher_name());
  EXPECT_EQ(undecodable.status().code(), StatusCode::kIOError);

  fault::Clear();
  auto healthy = repository.LoadCurrent(model_->matcher_name());
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(healthy->metadata.version, 1u);
}

TEST_F(ServeFaultTest, QueueFullFaultForcesResourceExhausted) {
  ASSERT_TRUE(fault::SetSpec("seed=2;serve/queue/full=any:1").ok());
  MatchService service(context_);
  ASSERT_TRUE(service.SwapModel(model_).ok());
  auto id = service.Submit({task_->test().front()},
                           [](const RequestOutcome&) { FAIL(); });
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.QueueDepth(), 0u);  // never enqueued
}

}  // namespace
}  // namespace rlbench::serve
