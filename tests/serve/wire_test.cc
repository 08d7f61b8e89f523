// Framing and the Status-typed JSON entry points of the serve wire
// protocol (the parser itself is tested in tests/obs/json_test.cc).
#include <gtest/gtest.h>

#include <string>

#include "serve/wire.h"

namespace rlbench::serve {
namespace {

TEST(FrameTest, RoundTripThroughDecoder) {
  std::string stream;
  ASSERT_TRUE(AppendFrame("hello", &stream).ok());
  ASSERT_TRUE(AppendFrame("", &stream).ok());
  ASSERT_TRUE(AppendFrame(std::string(1000, 'x'), &stream).ok());

  FrameDecoder decoder;
  // Feed one byte at a time: reassembly must be chunk-boundary agnostic.
  std::vector<std::string> frames;
  for (char c : stream) {
    decoder.Append(std::string_view(&c, 1));
    while (true) {
      auto next = decoder.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      frames.push_back(**next);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "hello");
  EXPECT_EQ(frames[1], "");
  EXPECT_EQ(frames[2], std::string(1000, 'x'));
  EXPECT_EQ(decoder.BufferedBytes(), 0u);
}

TEST(FrameTest, OversizedPayloadRejectedOnBothSides) {
  std::string big(kMaxFramePayload + 1, 'y');
  std::string out;
  EXPECT_EQ(AppendFrame(big, &out).code(), StatusCode::kInvalidArgument);

  // A hostile header announcing 2^31 bytes must fail before allocating.
  char header[kFrameHeaderBytes] = {'\x80', 0, 0, 0};
  EXPECT_EQ(DecodeFrameHeader(header).status().code(),
            StatusCode::kInvalidArgument);
  FrameDecoder decoder;
  decoder.Append(std::string_view(header, kFrameHeaderBytes));
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(WireJsonTest, ParseErrorsBecomeInvalidArgument) {
  auto parsed = ParseJson(R"({"op":"ping"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("op"), "ping");
  auto bad = ParseJson("{\"a\" 1}");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "wire: expected ':' at byte 5");
  EXPECT_EQ(ParseJson("{} x").status().message(),
            "wire: trailing bytes after JSON value");
}

TEST(WireJsonTest, RequireAccessorsCheckPresenceAndKind) {
  auto parsed = ParseJson(
      R"({"op":"match_batch","pairs":[[1,2],[3,4]],"deadline_ms":1.5})");
  ASSERT_TRUE(parsed.ok());
  auto array = RequireArray(*parsed, "pairs");
  ASSERT_TRUE(array.ok());
  ASSERT_EQ((*array)->AsArray().size(), 2u);
  EXPECT_DOUBLE_EQ((*array)->AsArray()[1].AsArray()[0].AsNumber(), 3.0);
  auto op = RequireString(*parsed, "op");
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(*op, "match_batch");
  auto deadline = RequireNumber(*parsed, "deadline_ms");
  ASSERT_TRUE(deadline.ok());
  EXPECT_DOUBLE_EQ(*deadline, 1.5);
  EXPECT_EQ(RequireString(*parsed, "nope").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RequireNumber(*parsed, "op").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RequireArray(*parsed, "op").status().message(),
            "wire: missing array field \"op\"");
}

}  // namespace
}  // namespace rlbench::serve
