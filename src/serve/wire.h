// Wire format of the loopback match server: length-prefixed JSON frames.
//
// Every message is one JSON object preceded by a 4-byte big-endian payload
// length. Requests carry an "op" field (ping, match_pair, match_batch,
// assess, stats, reload, shutdown); responses carry "ok" plus either the
// op's result fields or {"code", "error"} mapping a Status back to the
// client. This header holds the pure framing helpers and the Status-typed
// entry points over obs/json.h's parser and DOM; all socket IO lives in
// net.h.
#ifndef RLBENCH_SRC_SERVE_WIRE_H_
#define RLBENCH_SRC_SERVE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/json.h"

namespace rlbench::serve {

/// Upper bound on one frame's JSON payload; a peer announcing more is a
/// protocol error, not an allocation.
inline constexpr size_t kMaxFramePayload = 1 << 20;

/// Bytes of the length prefix.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Prefix `payload` with its big-endian length and append to `out`.
/// InvalidArgument when the payload exceeds kMaxFramePayload.
[[nodiscard]] Status AppendFrame(std::string_view payload, std::string* out);

/// Decode a length prefix (exactly kFrameHeaderBytes at `header`).
/// InvalidArgument when it announces more than kMaxFramePayload.
[[nodiscard]] Result<size_t> DecodeFrameHeader(const char* header);

/// \brief Incremental frame reassembly over a byte stream.
///
/// Feed arbitrarily chopped chunks with Append(); Next() yields each
/// complete payload in order, empty optional when more bytes are needed,
/// InvalidArgument when a header announces an oversized frame (the
/// connection is then unrecoverable — framing is lost).
class FrameDecoder {
 public:
  void Append(std::string_view bytes) { buffer_.append(bytes); }

  [[nodiscard]] Result<std::optional<std::string>> Next();

  size_t BufferedBytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Requests and responses parse into obs/json.h's DOM, the repo's one
/// JSON value type; serve code names it serve::JsonValue.
using obs::JsonValue;

/// Parse one complete JSON value (surrounding whitespace allowed, trailing
/// bytes rejected); obs::ParseJson's error becomes InvalidArgument.
[[nodiscard]] Result<JsonValue> ParseJson(std::string_view text);

/// Strict accessors for required request fields: InvalidArgument when the
/// key is missing or the value has the wrong type.
[[nodiscard]] Result<std::string> RequireString(const JsonValue& object,
                                                const std::string& key);
[[nodiscard]] Result<double> RequireNumber(const JsonValue& object,
                                           const std::string& key);
[[nodiscard]] Result<const JsonValue*> RequireArray(const JsonValue& object,
                                                    const std::string& key);

}  // namespace rlbench::serve

#endif  // RLBENCH_SRC_SERVE_WIRE_H_
