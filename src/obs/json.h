// The repo's one JSON module: escaping helpers, an immutable DOM, a strict
// parser, and a writer.
//
// The obs subsystem writes Chrome trace-event files and run manifests;
// the serve wire protocol reads and writes JSON frames; the tests read
// both back. All of them share this grammar, so anything one side writes
// the other parses. The module stays std-only (rlbench_common links it),
// which is why ParseJson reports errors as text rather than a Status —
// serve::ParseJson maps them onto InvalidArgument.
#ifndef RLBENCH_SRC_OBS_JSON_H_
#define RLBENCH_SRC_OBS_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rlbench::obs {

/// \brief `text` with JSON string escapes applied (no surrounding quotes).
///
/// Escapes `"` `\` and control characters (the latter as \u00XX); all
/// other bytes pass through untouched, so valid UTF-8 stays valid.
std::string JsonEscape(std::string_view text);

/// \brief `text` as a quoted JSON string literal.
std::string JsonString(std::string_view text);

/// \brief `value` as a JSON number token.
///
/// Finite values round-trip through %.17g (shortest form readable back
/// bit-exactly by strtod); NaN and infinities — which JSON cannot
/// represent — become `null`.
std::string JsonNumber(double value);

/// \brief One JSON value; immutable once built.
///
/// Accessors are total: a kind mismatch yields the type's empty value
/// (false / 0.0 / "" / no elements) rather than trapping, because parsed
/// bytes may be untrusted. Callers that need strictness check kind().
class JsonValue {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  using Members = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return is_bool() && bool_; }
  double AsNumber() const { return is_number() ? number_ : 0.0; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const Members& AsObject() const { return object_; }

  /// First value under `key` (objects preserve insertion order), or null
  /// when absent / not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Field accessors with defaults for optional fields.
  std::string GetString(const std::string& key,
                        std::string fallback = "") const;
  double GetNumber(const std::string& key, double fallback = 0.0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double n);
  static JsonValue String(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(Members items);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  Members object_;
};

/// \brief Parses one complete JSON value.
///
/// Surrounding whitespace is allowed, trailing bytes are rejected; strict
/// grammar, recursive descent with a nesting cap of 64. On failure returns
/// nullopt and, when `error` is non-null, stores a message naming the
/// problem and its byte offset.
std::optional<JsonValue> ParseJson(std::string_view text,
                                   std::string* error = nullptr);

/// \brief `value` serialised on one line: `{"k": v, ...}`, `[a, b]`.
///
/// Object keys keep their order; whole numbers below 2^53 print as
/// integers, every other number through JsonNumber (so NaN and infinities
/// become `null`). ParseJson(ToJson(v)) reproduces any `v` whose numbers
/// are finite.
std::string ToJson(const JsonValue& value);

}  // namespace rlbench::obs

#endif  // RLBENCH_SRC_OBS_JSON_H_
