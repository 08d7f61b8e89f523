#include "serve/wire.h"

#include <utility>

namespace rlbench::serve {

Status AppendFrame(std::string_view payload, std::string* out) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "wire: frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds limit");
  }
  uint32_t n = static_cast<uint32_t>(payload.size());
  char header[kFrameHeaderBytes] = {
      static_cast<char>((n >> 24) & 0xFF), static_cast<char>((n >> 16) & 0xFF),
      static_cast<char>((n >> 8) & 0xFF), static_cast<char>(n & 0xFF)};
  out->append(header, kFrameHeaderBytes);
  out->append(payload);
  return Status::OK();
}

Result<size_t> DecodeFrameHeader(const char* header) {
  uint32_t n = 0;
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    n = (n << 8) | static_cast<unsigned char>(header[i]);
  }
  if (n > kMaxFramePayload) {
    return Status::InvalidArgument("wire: frame of " + std::to_string(n) +
                                   " bytes exceeds limit");
  }
  return static_cast<size_t>(n);
}

Result<std::optional<std::string>> FrameDecoder::Next() {
  if (buffer_.size() < kFrameHeaderBytes) return std::optional<std::string>{};
  RLBENCH_ASSIGN_OR_RETURN(size_t payload, DecodeFrameHeader(buffer_.data()));
  if (buffer_.size() < kFrameHeaderBytes + payload) {
    return std::optional<std::string>{};
  }
  std::string frame = buffer_.substr(kFrameHeaderBytes, payload);
  buffer_.erase(0, kFrameHeaderBytes + payload);
  return std::optional<std::string>(std::move(frame));
}

Result<JsonValue> ParseJson(std::string_view text) {
  std::string error;
  std::optional<JsonValue> value = obs::ParseJson(text, &error);
  if (!value) return Status::InvalidArgument("wire: " + error);
  return std::move(*value);
}

Result<std::string> RequireString(const JsonValue& object,
                                  const std::string& key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument("wire: missing string field \"" + key +
                                   "\"");
  }
  return v->AsString();
}

Result<double> RequireNumber(const JsonValue& object, const std::string& key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument("wire: missing number field \"" + key +
                                   "\"");
  }
  return v->AsNumber();
}

Result<const JsonValue*> RequireArray(const JsonValue& object,
                                      const std::string& key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || !v->is_array()) {
    return Status::InvalidArgument("wire: missing array field \"" + key +
                                   "\"");
  }
  return v;
}

}  // namespace rlbench::serve
