// Per-tenant admission: the quota spec grammar, token-bucket refill
// arithmetic under injected time, wildcard shaping, and — through
// MatchService — quota rejections with Retry-After hints plus fair
// round-robin batching across tenant queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/registry.h"
#include "serve/admission.h"
#include "serve/service.h"

namespace rlbench::serve {
namespace {

TEST(AdmissionTest, ParseAcceptsTheDocumentedGrammar) {
  auto parsed = AdmissionController::Parse("alpha=200:50;beta=20:5;*=50:10");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_FALSE(parsed->Unmetered());
  const TenantQuota* alpha = parsed->QuotaFor("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->rate_per_s, 200.0);
  EXPECT_EQ(alpha->burst, 50.0);
  // Unlisted tenants (including the anonymous "") take the '*' shape.
  const TenantQuota* anon = parsed->QuotaFor("");
  ASSERT_NE(anon, nullptr);
  EXPECT_EQ(anon->rate_per_s, 50.0);

  auto empty = AdmissionController::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->Unmetered());
}

TEST(AdmissionTest, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "alpha",            // no '='
      "alpha=5",          // no ':'
      "=5:1",             // empty tenant
      "alpha=0:5",        // rate must be positive
      "alpha=-3:5",       // negative rate
      "alpha=5:0.5",      // burst below one token
      "alpha=x:y",        // non-numeric
      "alpha=1:2;alpha=3:4",  // duplicate tenant
  };
  for (const char* spec : bad) {
    SCOPED_TRACE(spec);
    EXPECT_EQ(AdmissionController::Parse(spec).status().code(),
              StatusCode::kInvalidArgument);
  }
  // Trailing separators are tolerated, not errors.
  EXPECT_TRUE(AdmissionController::Parse("alpha=1:2;;").ok());
}

TEST(AdmissionTest, BurstThenSteadyRefillUnderInjectedTime) {
  auto parsed = AdmissionController::Parse("t=10:2");
  ASSERT_TRUE(parsed.ok());
  AdmissionController admission = std::move(*parsed);

  // Bucket starts full: the burst is admitted, the next request is not.
  EXPECT_TRUE(admission.Admit("t", 0.0));
  EXPECT_TRUE(admission.Admit("t", 0.0));
  EXPECT_FALSE(admission.Admit("t", 0.0));
  // At 10 tokens/s an empty bucket refills one token in 100 ms.
  double hint = admission.RetryAfterMs("t", 0.0);
  EXPECT_GT(hint, 0.0);
  EXPECT_LE(hint, 100.0);

  // 100 ms later exactly one token is back.
  EXPECT_TRUE(admission.Admit("t", 100.0));
  EXPECT_FALSE(admission.Admit("t", 100.0));

  // A long quiet period refills only to the burst cap, never beyond.
  EXPECT_TRUE(admission.Admit("t", 60000.0));
  EXPECT_TRUE(admission.Admit("t", 60000.0));
  EXPECT_FALSE(admission.Admit("t", 60000.0));
}

TEST(AdmissionTest, WildcardGivesEachUnlistedTenantItsOwnBucket) {
  auto parsed = AdmissionController::Parse("*=10:1");
  ASSERT_TRUE(parsed.ok());
  AdmissionController admission = std::move(*parsed);
  // One noisy unlisted tenant cannot drain another's bucket.
  EXPECT_TRUE(admission.Admit("noisy", 0.0));
  EXPECT_FALSE(admission.Admit("noisy", 0.0));
  EXPECT_TRUE(admission.Admit("quiet", 0.0));
}

TEST(AdmissionTest, TenantsWithoutQuotaAreUnmetered) {
  auto parsed = AdmissionController::Parse("alpha=10:1");
  ASSERT_TRUE(parsed.ok());
  AdmissionController admission = std::move(*parsed);
  EXPECT_EQ(admission.QuotaFor("beta"), nullptr);
  EXPECT_EQ(admission.RetryAfterMs("beta", 0.0), 0.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(admission.Admit("beta", 0.0));
  }
}

class AdmissionServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new data::MatchingTask(datagen::BuildExistingBenchmark(
        *datagen::FindExistingBenchmark("Ds7"), 0.5));
  }
  static void TearDownTestSuite() {
    delete task_;
    task_ = nullptr;
  }

  static std::shared_ptr<const matchers::TrainedModel> Train(
      const matchers::MatchingContext& context, const std::string& name) {
    auto trained = matchers::TrainServableMatcher(name, context);
    EXPECT_TRUE(trained.ok()) << trained.status();
    return std::shared_ptr<const matchers::TrainedModel>(std::move(*trained));
  }

  static data::MatchingTask* task_;
};

data::MatchingTask* AdmissionServiceTest::task_ = nullptr;

TEST_F(AdmissionServiceTest, OverQuotaTenantRejectedWithRetryAfterHint) {
  matchers::MatchingContext context(task_);
  MatchService service(&context);
  ASSERT_TRUE(service.SwapModel(Train(context, "Magellan-DT")).ok());
  // A tiny burst and a slow refill: the third request in the same
  // instant must be over quota.
  ASSERT_TRUE(service.SetQuotas("metered=1:2").ok());
  EXPECT_EQ(service.SetQuotas("broken").code(), StatusCode::kInvalidArgument);

  data::LabeledPair pair = task_->test().front();
  SubmitOptions metered;
  metered.tenant = "metered";
  int answered = 0;
  auto count = [&answered](const RequestOutcome&) { ++answered; };
  ASSERT_TRUE(service.SubmitRequest({pair}, metered, count).ok());
  ASSERT_TRUE(service.SubmitRequest({pair}, metered, count).ok());
  auto rejected = service.SubmitRequest({pair}, metered, count);
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(service.LastRetryAfterMs(), 0.0);

  // Unlisted tenants stay unmetered (no '*' entry in the spec).
  SubmitOptions other;
  other.tenant = "other";
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.SubmitRequest({pair}, other, count).ok());
  }
  service.Drain();
  EXPECT_EQ(answered, 10);
}

// The micro-batcher round-robins across tenant FIFOs: with two tenants
// queued, one flood cannot be answered wholly before the other tenant
// gets a turn.
TEST_F(AdmissionServiceTest, BatchingRoundRobinsAcrossTenantQueues) {
  matchers::MatchingContext context(task_);
  MatchServiceOptions options;
  options.max_batch_pairs = 4;
  MatchService service(&context, options);
  ASSERT_TRUE(service.SwapModel(Train(context, "Magellan-DT")).ok());

  data::LabeledPair pair = task_->test().front();
  std::vector<std::string> answered_tenants;
  auto submit = [&](const std::string& tenant) {
    SubmitOptions submit_options;
    submit_options.tenant = tenant;
    ASSERT_TRUE(service
                    .SubmitRequest({pair}, submit_options,
                                   [&answered_tenants,
                                    tenant](const RequestOutcome& outcome) {
                                     ASSERT_TRUE(outcome.status.ok());
                                     answered_tenants.push_back(tenant);
                                   })
                    .ok());
  };
  // Flood tenant A, then one request from tenant B.
  for (int i = 0; i < 6; ++i) submit("flood");
  submit("late");
  // The first 4-pair micro-batch must interleave both tenants rather than
  // serving the flood FIFO-first.
  EXPECT_EQ(service.PumpOne(), 4u);
  ASSERT_EQ(answered_tenants.size(), 4u);
  EXPECT_NE(std::find(answered_tenants.begin(), answered_tenants.end(),
                      "late"),
            answered_tenants.end())
      << "the late tenant was starved by the flood";
  service.Drain();
  EXPECT_EQ(answered_tenants.size(), 7u);
}

}  // namespace
}  // namespace rlbench::serve
