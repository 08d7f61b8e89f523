#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rlbench::obs {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonString(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  out += JsonEscape(text);
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // %.17g is exact but verbose; prefer the shortest representation that
  // still round-trips so manifests stay human-readable.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) return shorter;
  }
  return buf;
}

// --- DOM ------------------------------------------------------------------

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(const std::string& key,
                                 std::string fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_ : std::move(fallback);
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_ : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_ : fallback;
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(Members items) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(items);
  return v;
}

// --- Parser ---------------------------------------------------------------

namespace {

// Recursive-descent parser over untrusted bytes: bounded nesting, strict
// grammar, no exceptions. Each Parse* returns false on the first
// violation and leaves its message in error_.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    ConsumeSpace();
    if (!ParseValue(0, out)) return false;
    ConsumeSpace();
    if (pos_ == text_.size()) return true;
    error_ = "trailing bytes after JSON value";
    return false;
  }

  const std::string& error() const { return error_; }

 private:
  static constexpr int kMaxDepth = 64;

  void ConsumeSpace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_).substr(0, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool AtDigit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void ConsumeDigits() {
    while (AtDigit()) ++pos_;
  }

  bool Error(const std::string& what) {
    error_ = what + " at byte " + std::to_string(pos_);
    return false;
  }

  bool Literal(std::string_view word, JsonValue value, JsonValue* out) {
    if (!ConsumeLiteral(word)) return Error("bad literal");
    *out = std::move(value);
    return true;
  }

  bool ParseValue(int depth, JsonValue* out) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = JsonValue::String(std::move(s));
        return true;
      }
      case 't':
        return Literal("true", JsonValue::Bool(true), out);
      case 'f':
        return Literal("false", JsonValue::Bool(false), out);
      case 'n':
        return Literal("null", JsonValue::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(int depth, JsonValue* out) {
    ++pos_;  // '{'
    JsonValue::Members items;
    ConsumeSpace();
    while (!Consume('}')) {
      if (!items.empty() && !Consume(',')) return Error("expected ',' or '}'");
      ConsumeSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      ConsumeSpace();
      if (!Consume(':')) return Error("expected ':'");
      ConsumeSpace();
      JsonValue value;
      if (!ParseValue(depth + 1, &value)) return false;
      items.emplace_back(std::move(key), std::move(value));
      ConsumeSpace();
    }
    *out = JsonValue::Object(std::move(items));
    return true;
  }

  bool ParseArray(int depth, JsonValue* out) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    ConsumeSpace();
    while (!Consume(']')) {
      if (!items.empty() && !Consume(',')) return Error("expected ',' or ']'");
      ConsumeSpace();
      JsonValue value;
      if (!ParseValue(depth + 1, &value)) return false;
      items.push_back(std::move(value));
      ConsumeSpace();
    }
    *out = JsonValue::Array(std::move(items));
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) return Error("dangling escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          if (!ParseHex4(&code)) return false;
          // Combine a surrogate pair when one follows; a lone surrogate
          // becomes U+FFFD rather than invalid UTF-8.
          if (code >= 0xD800 && code <= 0xDBFF &&
              text_.substr(pos_).substr(0, 2) == "\\u") {
            size_t save = pos_;
            pos_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              pos_ = save;
              code = 0xFFFD;
            }
          } else if (code >= 0xD800 && code <= 0xDFFF) {
            code = 0xFFFD;
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  bool ParseHex4(uint32_t* code) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      *code <<= 4;
      if (c >= '0' && c <= '9') {
        *code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        *code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        *code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad \\u escape");
      }
    }
    return true;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    Consume('-');
    if (!AtDigit()) return Error("bad number");
    if (!Consume('0')) ConsumeDigits();  // a leading zero stands alone
    if (Consume('.')) {
      if (!AtDigit()) return Error("bad number");
      ConsumeDigits();
    }
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!AtDigit()) return Error("bad number");
      ConsumeDigits();
    }
    // The token is already validated, so strtod on a NUL-terminated copy
    // parses exactly this span.
    std::string token(text_.substr(start, pos_ - start));
    *out = JsonValue::Number(std::strtod(token.c_str(), nullptr));
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

// --- Writer ---------------------------------------------------------------

// Whole numbers print as integers so counts stay readable ("1000000", not
// JsonNumber's "1e+06"); 2^53 bounds the doubles that are exact integers.
void AppendNumber(double value, std::string* out) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9007199254740992.0 &&
      !(value == 0.0 && std::signbit(value))) {
    *out += std::to_string(static_cast<int64_t>(value));
  } else {
    *out += JsonNumber(value);
  }
}

void AppendJson(const JsonValue& value, std::string* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += value.AsBool() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      AppendNumber(value.AsNumber(), out);
      break;
    case JsonValue::Kind::kString:
      *out += JsonString(value.AsString());
      break;
    case JsonValue::Kind::kArray: {
      *out += '[';
      const char* sep = "";
      for (const JsonValue& item : value.AsArray()) {
        *out += sep;
        AppendJson(item, out);
        sep = ", ";
      }
      *out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      *out += '{';
      const char* sep = "";
      for (const auto& [key, item] : value.AsObject()) {
        *out += sep;
        *out += JsonString(key);
        *out += ": ";
        AppendJson(item, out);
        sep = ", ";
      }
      *out += '}';
      break;
    }
  }
}

}  // namespace

std::optional<JsonValue> ParseJson(std::string_view text, std::string* error) {
  Parser parser(text);
  JsonValue value;
  if (parser.Parse(&value)) return value;
  if (error != nullptr) *error = parser.error();
  return std::nullopt;
}

std::string ToJson(const JsonValue& value) {
  std::string out;
  AppendJson(value, &out);
  return out;
}

}  // namespace rlbench::obs
