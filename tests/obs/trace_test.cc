// Trace span tests: nesting, pool chunk integration, and the exported
// Chrome trace JSON (syntax-valid, carries thread names and chunk args).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "data/file_source.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace rlbench::obs {
namespace {

std::string ReadFile(const std::string& path) {
  return data::FileSource::ReadAll(path).ValueOr("");
}

// Each test routes spans to its own temp file and disables tracing on the
// way out so the rest of the suite sees the default off path.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetTraceFile("");
    std::remove(kPath);
  }
  static constexpr const char* kPath = "obs_trace_test_out.json";
};

TEST_F(TraceTest, DisabledByDefaultAndCurrentSpanIsNull) {
  SetTraceFile("");
  EXPECT_FALSE(TraceEnabled());
  EXPECT_EQ(TraceFilePath(), "");
  EXPECT_EQ(CurrentSpanName(), nullptr);
  {
    RLBENCH_TRACE_SPAN("noop");  // records nothing while disabled
    EXPECT_EQ(CurrentSpanName(), nullptr);
  }
  EXPECT_EQ(WriteTraceIfEnabled(), "");
}

TEST_F(TraceTest, CurrentSpanNameTracksInnermostOpenSpan) {
  SetTraceFile(kPath);
  ASSERT_TRUE(TraceEnabled());
  EXPECT_EQ(TraceFilePath(), kPath);
  {
    TraceSpan outer("outer");
    EXPECT_STREQ(CurrentSpanName(), "outer");
    {
      TraceSpan inner("inner");
      EXPECT_STREQ(CurrentSpanName(), "inner");
    }
    EXPECT_STREQ(CurrentSpanName(), "outer");
  }
  EXPECT_EQ(CurrentSpanName(), nullptr);
}

TEST_F(TraceTest, ExportIsSyntaxValidJsonWithExpectedEvents) {
  SetTraceFile(kPath);
  SetCurrentThreadName("main");
  {
    RLBENCH_TRACE_SPAN("unit/alpha");
    { RLBENCH_TRACE_SPAN("unit/beta"); }
  }
  std::string written = WriteTraceIfEnabled();
  ASSERT_EQ(written, kPath);

  std::string json = ReadFile(kPath);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"unit/alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"unit/beta\""), std::string::npos);
  // Metadata events: a process name plus the named main-thread track.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  // Complete events carry timestamps and durations.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST_F(TraceTest, PoolChunksAppearAsLabelledSpansWithChunkArgs) {
  SetTraceFile(kPath);
  SetParallelThreads(3);
  {
    // The span open on the calling thread labels every chunk span. Which
    // thread runs a given chunk is a scheduling accident (the caller
    // drains alongside the workers), so assert only on the chunk spans
    // themselves, not on which tracks they landed on.
    RLBENCH_TRACE_SPAN("unit/fanout");
    std::vector<size_t> sink(64, 0);
    ParallelFor(0, sink.size(), 8, [&](size_t i) { sink[i] = i; });
  }
  SetParallelThreads(0);
  ASSERT_EQ(WriteTraceIfEnabled(), kPath);

  std::string json = ReadFile(kPath);
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  EXPECT_NE(json.find("\"unit/fanout\""), std::string::npos);
  EXPECT_NE(json.find("\"chunk\""), std::string::npos);
}

TEST_F(TraceTest, NamedThreadsGetTheirOwnTracks) {
  SetTraceFile(kPath);
  std::thread worker([] {
    SetCurrentThreadName("unit-worker");
    RLBENCH_TRACE_SPAN("unit/off-main");
  });
  worker.join();
  ASSERT_EQ(WriteTraceIfEnabled(), kPath);

  std::string json = ReadFile(kPath);
  EXPECT_TRUE(ParseJson(json).has_value()) << json;
  EXPECT_NE(json.find("\"unit-worker\""), std::string::npos);
  EXPECT_NE(json.find("\"unit/off-main\""), std::string::npos);
}

// Regression test for the epoch publish: SetTraceFile() must re-stamp the
// trace epoch (a lock-free atomic, because NowMicros() reads it on the
// span hot path — it used to be an unsynchronised time_point read racing
// SetTraceFile). If re-arming failed to publish the new epoch, spans
// recorded after the re-arm would carry timestamps offset by the full age
// of the old epoch instead of starting near zero.
TEST_F(TraceTest, RearmPublishesFreshEpochSoTimestampsRestartNearZero) {
  SetTraceFile(kPath);
  { RLBENCH_TRACE_SPAN("unit/before"); }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  SetTraceFile(kPath);  // re-arm: clears events, publishes a new epoch
  { RLBENCH_TRACE_SPAN("unit/after"); }
  ASSERT_EQ(WriteTraceIfEnabled(), kPath);

  std::string json = ReadFile(kPath);
  size_t at = json.find("\"unit/after\"");
  ASSERT_NE(at, std::string::npos);
  size_t ts = json.find("\"ts\": ", at);
  ASSERT_NE(ts, std::string::npos);
  double start_us = std::strtod(json.c_str() + ts + 6, nullptr);
  EXPECT_GE(start_us, 0.0);
  // Stamped against the fresh epoch: far less than the 80ms that elapsed
  // on the old one.
  EXPECT_LT(start_us, 40000.0);
}

TEST_F(TraceTest, SetTraceFileClearsBufferedEvents) {
  SetTraceFile(kPath);
  { RLBENCH_TRACE_SPAN("unit/stale"); }
  // Re-arming the sink discards anything recorded so far.
  SetTraceFile(kPath);
  { RLBENCH_TRACE_SPAN("unit/fresh"); }
  ASSERT_EQ(WriteTraceIfEnabled(), kPath);
  std::string json = ReadFile(kPath);
  EXPECT_EQ(json.find("\"unit/stale\""), std::string::npos);
  EXPECT_NE(json.find("\"unit/fresh\""), std::string::npos);
  EXPECT_EQ(DroppedTraceEvents(), 0U);
}

}  // namespace
}  // namespace rlbench::obs
