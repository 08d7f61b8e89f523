// Tests for the JSON module: escaping, shortest round-trip number
// formatting, the parser (the one grammar behind traces, manifests and
// the serve wire), and the writer's round trip through it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "obs/json.h"

namespace rlbench::obs {
namespace {

bool Parses(std::string_view text) { return ParseJson(text).has_value(); }

TEST(JsonTest, EscapesSpecialsAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab\rret"),
            "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
  EXPECT_EQ(JsonString("q\"q"), "\"q\\\"q\"");
}

TEST(JsonTest, NumbersRoundTripExactly) {
  for (double value : {0.0, 1.0, -1.5, 0.35, 1e-9, 123456789.125,
                       std::numeric_limits<double>::max()}) {
    std::string text = JsonNumber(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonTest, ValidatorAcceptsWellFormedDocuments) {
  EXPECT_TRUE(Parses("{}"));
  EXPECT_TRUE(Parses("[]"));
  EXPECT_TRUE(Parses("  {\"a\": [1, 2.5, -3e4], \"b\": "
                     "{\"c\": null, \"d\": [true, false]}}  "));
  EXPECT_TRUE(Parses("\"escaped \\u00e9 \\n ok\""));
}

TEST(JsonTest, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(Parses(""));
  EXPECT_FALSE(Parses("{"));
  EXPECT_FALSE(Parses("{\"a\": }"));
  EXPECT_FALSE(Parses("{\"a\": 1,}"));
  EXPECT_FALSE(Parses("[1 2]"));
  EXPECT_FALSE(Parses("\"unterminated"));
  EXPECT_FALSE(Parses("\"bad escape \\q\""));
  EXPECT_FALSE(Parses("01"));
  EXPECT_FALSE(Parses("{} trailing"));
  EXPECT_FALSE(Parses("nul"));
}

TEST(JsonTest, ValidatorBoundsRecursionDepth) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Parses(deep));  // past the nesting cap of 64
  std::string shallow(20, '[');
  shallow += std::string(20, ']');
  EXPECT_TRUE(Parses(shallow));
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_DOUBLE_EQ(ParseJson("42")->AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-0.5e2")->AsNumber(), -50.0);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, ObjectOrderAndLookups) {
  auto parsed = ParseJson(
      R"({"op":"match_batch","pairs":[[1,2],[3,4]],"deadline_ms":1.5})");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->AsObject().size(), 3u);
  EXPECT_EQ(parsed->AsObject()[0].first, "op");
  EXPECT_EQ(parsed->AsObject()[2].first, "deadline_ms");
  EXPECT_EQ(parsed->GetString("op"), "match_batch");
  EXPECT_DOUBLE_EQ(parsed->GetNumber("deadline_ms"), 1.5);
  EXPECT_DOUBLE_EQ(parsed->GetNumber("missing", -1.0), -1.0);
  const JsonValue* array = parsed->Find("pairs");
  ASSERT_NE(array, nullptr);
  ASSERT_TRUE(array->is_array());
  ASSERT_EQ(array->AsArray().size(), 2u);
  EXPECT_DOUBLE_EQ(array->AsArray()[1].AsArray()[0].AsNumber(), 3.0);
  EXPECT_EQ(parsed->Find("nope"), nullptr);
  // Kind mismatches read as the empty value rather than trapping.
  EXPECT_EQ(parsed->GetNumber("op", -2.0), -2.0);
  EXPECT_EQ(parsed->Find("op")->AsNumber(), 0.0);
}

TEST(JsonParseTest, StringEscapes) {
  // Raw UTF-8 passes through; \u escapes decode to the same bytes.
  auto parsed = ParseJson(R"("a\"b\\c\/d\n\tAé")");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), "a\"b\\c/d\n\tA\xC3\xA9");
  EXPECT_EQ(ParseJson(R"("A\u00e9")")->AsString(), "A\xC3\xA9");
  EXPECT_EQ(ParseJson(R"("😀")")->AsString(), "\xF0\x9F\x98\x80");
  // Surrogate pair -> one 4-byte UTF-8 code point.
  EXPECT_EQ(ParseJson(R"("\ud83d\ude00")")->AsString(), "\xF0\x9F\x98\x80");
  // Lone surrogate degrades to U+FFFD, not invalid UTF-8.
  EXPECT_EQ(ParseJson(R"("\ud83dx")")->AsString(), "\xEF\xBF\xBDx");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "\"ctrl\x01\"", "{\"a\":1}x", "[1] []", "nan", "{'a':1}"}) {
    EXPECT_FALSE(Parses(bad)) << bad;
  }
}

TEST(JsonParseTest, ErrorsNameTheProblemAndOffset) {
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\" 1}", &error).has_value());
  EXPECT_EQ(error, "expected ':' at byte 5");
  EXPECT_FALSE(ParseJson("[1] x", &error).has_value());
  EXPECT_EQ(error, "trailing bytes after JSON value");
}

TEST(JsonParseTest, NestingCapHolds) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Parses(deep));
  std::string fine(30, '[');
  fine += std::string(30, ']');
  EXPECT_TRUE(Parses(fine));
}

TEST(JsonParseTest, ParsesWhatObsEmits) {
  // The server builds responses with JsonString / JsonNumber; the parser
  // must read them back exactly.
  std::string tricky = "quote\" slash\\ ctrl\x01 text";
  auto parsed = ParseJson(JsonString(tricky));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), tricky);

  double value = 0.1234567890123456789;
  auto number = ParseJson(JsonNumber(value));
  ASSERT_TRUE(number.has_value());
  EXPECT_EQ(number->AsNumber(), value);  // %.17g round-trips bit-exactly
}

TEST(JsonWriteTest, ParseOfToJsonReproducesNestedValues) {
  JsonValue value = JsonValue::Object({
      {"zeta", JsonValue::Number(1)},
      {"alpha", JsonValue::Array({JsonValue::Number(0.1),
                                  JsonValue::Number(-2.5e-9),
                                  JsonValue::Number(1e300),
                                  JsonValue::Number(-0.0),
                                  JsonValue::Number(12345678901234.0)})},
      {"nested", JsonValue::Object({
                     {"empty_array", JsonValue::Array({})},
                     {"empty_object", JsonValue::Object({})},
                     {"flags", JsonValue::Array({JsonValue::Bool(true),
                                                 JsonValue::Bool(false),
                                                 JsonValue::Null()})},
                 })},
      {"text", JsonValue::String("quote\" slash\\ nl\n ctrl\x01 é")},
  });
  std::string text = ToJson(value);
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  // Serialising the parse reproduces the bytes: same structure, same key
  // order, same escapes, bit-identical numbers.
  EXPECT_EQ(ToJson(*parsed), text);
  ASSERT_EQ(parsed->AsObject().size(), 4u);
  EXPECT_EQ(parsed->AsObject()[0].first, "zeta");
  EXPECT_EQ(parsed->AsObject()[1].first, "alpha");
  const auto& numbers = parsed->Find("alpha")->AsArray();
  ASSERT_EQ(numbers.size(), 5u);
  EXPECT_EQ(numbers[0].AsNumber(), 0.1);
  EXPECT_EQ(numbers[1].AsNumber(), -2.5e-9);
  EXPECT_EQ(numbers[2].AsNumber(), 1e300);
  EXPECT_TRUE(std::signbit(numbers[3].AsNumber()));
  EXPECT_EQ(numbers[4].AsNumber(), 12345678901234.0);
  const JsonValue* nested = parsed->Find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_TRUE(nested->Find("empty_array")->is_array());
  EXPECT_TRUE(nested->Find("empty_object")->is_object());
  const auto& flags = nested->Find("flags")->AsArray();
  ASSERT_EQ(flags.size(), 3u);
  EXPECT_TRUE(flags[0].AsBool());
  EXPECT_TRUE(flags[1].is_bool());
  EXPECT_TRUE(flags[2].is_null());
  EXPECT_EQ(parsed->GetString("text"), "quote\" slash\\ nl\n ctrl\x01 é");
}

TEST(JsonWriteTest, WholeNumbersPrintAsIntegersAndNonFiniteAsNull) {
  EXPECT_EQ(ToJson(JsonValue::Number(1000000)), "1000000");
  EXPECT_EQ(ToJson(JsonValue::Number(-42)), "-42");
  EXPECT_EQ(ToJson(JsonValue::Number(0.25)), "0.25");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ToJson(JsonValue::Array({JsonValue::Number(std::nan("")),
                                     JsonValue::Number(inf),
                                     JsonValue::Number(-inf)})),
            "[null, null, null]");
  auto parsed = ParseJson(ToJson(JsonValue::Object(
      {{"nan", JsonValue::Number(std::nan(""))}})));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->Find("nan")->is_null());
  EXPECT_EQ(ToJson(JsonValue::Object({{"k", JsonValue::String("v")},
                                      {"n", JsonValue::Null()}})),
            "{\"k\": \"v\", \"n\": null}");
}

}  // namespace
}  // namespace rlbench::obs
