// Run-manifest tests: schema round-trip through the JSON parser,
// escaping, phase accounting, failure status, the Finalize() freeze, and
// the metrics-section gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"

namespace rlbench::obs {
namespace {

TEST(ManifestTest, ToJsonIsSyntaxValidWithAllSections) {
  RunManifest manifest("unit_bench");
  manifest.set_threads(4);
  manifest.set_hardware_concurrency(8);
  manifest.set_seed(1234);
  manifest.SetDatasets({"Ds1", "Ds2"});
  manifest.AddConfig("scale", 0.35);
  manifest.AddConfig("kmax", static_cast<int64_t>(64));
  manifest.AddConfig("mode", std::string("fast"));
  manifest.BeginPhase("alpha");
  manifest.BeginPhase("beta");  // nested
  manifest.EndPhase();
  manifest.EndPhase();
  manifest.Finalize();

  std::string json = manifest.ToJson();
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"hardware_concurrency\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"datasets\": [\"Ds1\", \"Ds2\"]"), std::string::npos);
  EXPECT_NE(json.find("\"scale\": 0.35"), std::string::npos);
  EXPECT_NE(json.find("\"kmax\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"fast\""), std::string::npos);
  EXPECT_NE(json.find("\"git\": "), std::string::npos);
  // Phases serialise in begin order, nested or not.
  size_t alpha = json.find("\"name\": \"alpha\"");
  size_t beta = json.find("\"name\": \"beta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(beta, std::string::npos);
  EXPECT_LT(alpha, beta);
  EXPECT_NE(json.find("\"total_seconds\": "), std::string::npos);
}

TEST(ManifestTest, SeedAndTraceFileAreOptional) {
  RunManifest manifest("unit_bench_min");
  std::string json = manifest.ToJson();
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  EXPECT_EQ(json.find("\"seed\""), std::string::npos);
  EXPECT_EQ(json.find("\"trace_file\""), std::string::npos);
  RunManifest traced("unit_bench_traced");
  traced.set_trace_file("out.json");
  EXPECT_NE(traced.ToJson().find("\"trace_file\": \"out.json\""),
            std::string::npos);
}

TEST(ManifestTest, EscapesHostileStrings) {
  RunManifest manifest("unit\"bench\nname");
  manifest.AddDataset("quote\"and\\slash");
  manifest.AddConfig("note", std::string("line1\nline2\ttab"));
  std::string json = manifest.ToJson();
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  EXPECT_NE(json.find("unit\\\"bench\\nname"), std::string::npos);
  EXPECT_NE(json.find("quote\\\"and\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos);
}

TEST(ManifestTest, FinalizeFreezesTotalSeconds) {
  RunManifest manifest("unit_bench_freeze");
  manifest.Finalize();
  double first = manifest.TotalSeconds();
  // Burn a little wall time; the frozen value must not move.
  std::string sink;
  for (int i = 0; i < 10000; ++i) sink += 'x';
  ASSERT_FALSE(sink.empty());
  EXPECT_EQ(manifest.TotalSeconds(), first);
}

TEST(ManifestTest, UnbalancedEndPhaseIsIgnored) {
  RunManifest manifest("unit_bench_unbalanced");
  manifest.EndPhase();  // no matching BeginPhase: must not crash
  manifest.BeginPhase("only");
  manifest.EndPhase();
  manifest.EndPhase();
  EXPECT_TRUE(ParseJson(manifest.ToJson()).has_value());
}

TEST(ManifestTest, MetricsSectionFollowsTheGate) {
  Metrics::SetEnabled(true);
  Metrics::Instance().ResetAll();
  Metrics::Instance().GetCounter("manifest_test/marker").Add(7);
  RunManifest manifest("unit_bench_metrics");
  std::string with_metrics = manifest.ToJson();
  EXPECT_TRUE(ParseJson(with_metrics).has_value()) << with_metrics;
  EXPECT_NE(with_metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(with_metrics.find("\"manifest_test/marker\": 7"),
            std::string::npos);
  EXPECT_NE(with_metrics.find("\"histograms\""), std::string::npos);

  Metrics::SetEnabled(false);
  std::string without_metrics = manifest.ToJson();
  EXPECT_TRUE(ParseJson(without_metrics).has_value());
  EXPECT_EQ(without_metrics.find("\"counters\""), std::string::npos);
}

TEST(ManifestTest, PeakRssBytesIsAlwaysSerialised) {
  // Downstream tooling (tools/validate_manifest.py) treats the key as
  // required, so it must appear even when never set.
  RunManifest manifest("unit_bench_rss");
  std::string json = manifest.ToJson();
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  EXPECT_NE(json.find("\"peak_rss_bytes\": 0"), std::string::npos);
  manifest.set_peak_rss_bytes(123456789);
  json = manifest.ToJson();
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  EXPECT_NE(json.find("\"peak_rss_bytes\": 123456789"), std::string::npos);
}

TEST(ManifestTest, PhasesCarryOkStatusByDefault) {
  RunManifest manifest("unit_bench_status");
  manifest.BeginPhase("clean");
  manifest.EndPhase();
  std::string json = manifest.ToJson();
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(json.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_EQ(json.find("\"error\""), std::string::npos);
  EXPECT_FALSE(manifest.HasFailedPhase());
}

TEST(ManifestTest, FailPhaseMarksInnermostOpenPhase) {
  RunManifest manifest("unit_bench_fail");
  manifest.BeginPhase("outer");
  manifest.BeginPhase("dataset/Ds1");
  manifest.FailPhase("IOError: injected");
  manifest.EndPhase();
  manifest.EndPhase();
  EXPECT_TRUE(manifest.HasFailedPhase());
  std::string json = manifest.ToJson();
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  // The inner phase failed with its error recorded; the outer stayed ok.
  size_t failed_at = json.find("\"status\": \"failed\"");
  ASSERT_NE(failed_at, std::string::npos);
  EXPECT_NE(json.find("\"error\": \"IOError: injected\""), std::string::npos);
  size_t inner = json.find("\"name\": \"dataset/Ds1\"");
  size_t outer = json.find("\"name\": \"outer\"");
  ASSERT_NE(inner, std::string::npos);
  ASSERT_NE(outer, std::string::npos);
  EXPECT_LT(outer, failed_at);
  EXPECT_LT(inner, failed_at);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
}

TEST(ManifestTest, FailPhaseWithoutOpenPhaseIsIgnored) {
  RunManifest manifest("unit_bench_fail_noop");
  manifest.FailPhase("nothing open");  // must not crash
  EXPECT_FALSE(manifest.HasFailedPhase());
  EXPECT_TRUE(ParseJson(manifest.ToJson()).has_value());
}

TEST(ManifestTest, AddCompletedPhaseRecordsFailures) {
  RunManifest manifest("unit_bench_completed");
  manifest.AddCompletedPhase("dataset/Dn1", 0.25);
  manifest.AddCompletedPhase("dataset/Dn2", 0.0, /*failed=*/true,
                             "NotFound: unknown dataset id Dn2");
  EXPECT_TRUE(manifest.HasFailedPhase());
  std::string json = manifest.ToJson();
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  EXPECT_NE(json.find("\"name\": \"dataset/Dn1\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(json.find("\"error\": \"NotFound: unknown dataset id Dn2\""),
            std::string::npos);
}

TEST(ManifestTest, ResultsParseBackInOrder) {
  RunManifest manifest("unit_bench_results");
  manifest.AddConfig("scale", 0.5);
  manifest.AddResult("speedup", JsonValue::Number(2.5));
  manifest.AddResult(
      "kernels",
      JsonValue::Array({JsonValue::Object(
          {{"name", JsonValue::String("jaccard")},
           {"ops", JsonValue::Number(1000000)}})}));
  manifest.AddResult("rolled_back", JsonValue::Bool(true));
  std::string json = manifest.ToJson();
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(parsed->GetNumber("schema_version"), 3.0);
  EXPECT_TRUE(parsed->Find("build_type") != nullptr &&
              parsed->Find("build_type")->is_string());
  const JsonValue* results = parsed->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_TRUE(results->is_object());
  ASSERT_EQ(results->AsObject().size(), 3u);
  EXPECT_EQ(results->AsObject()[0].first, "speedup");
  EXPECT_EQ(results->GetNumber("speedup"), 2.5);
  const JsonValue* kernels = results->Find("kernels");
  ASSERT_NE(kernels, nullptr);
  ASSERT_EQ(kernels->AsArray().size(), 1u);
  EXPECT_EQ(kernels->AsArray()[0].GetString("name"), "jaccard");
  EXPECT_EQ(kernels->AsArray()[0].GetNumber("ops"), 1000000.0);
  EXPECT_TRUE(results->GetBool("rolled_back"));
  // Inputs stay in config; results never leak into it.
  EXPECT_EQ(parsed->Find("config")->Find("speedup"), nullptr);
}

TEST(ManifestTest, ResultsBlockIsOmittedWhenEmpty) {
  RunManifest manifest("unit_bench_no_results");
  auto parsed = ParseJson(manifest.ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("results"), nullptr);
}

}  // namespace
}  // namespace rlbench::obs
