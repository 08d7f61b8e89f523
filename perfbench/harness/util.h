// Shared helpers of the benchmark harness: output digests, the host
// calibration loop, process resource readings, benchmark-side layer timers
// and a minimal JSON object writer for the result files run.py reads.
#ifndef PERFBENCH_HARNESS_UTIL_H_
#define PERFBENCH_HARNESS_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a over a canonical text rendering of an op's outputs. Doubles are
/// rendered with %.17g, so two digests agree only when every bit agrees.
class Digest {
 public:
  void Add(std::string_view text);
  void Add(double value);
  std::string Hex() const;

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

/// Milliseconds taken by a fixed single-thread integer loop. Diagnostic
/// only: it tracks host speed and never scales another metric.
double CalibrationMs();

/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Seconds (or counts) per named layer, summed over the traced ops.
class LayerLedger {
 public:
  void Add(const std::string& name, double value) { values_[name] += value; }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

/// Benchmark-side timer around one public call into a layer. When a ledger
/// is given it opens a trace span named "perfbench/<layer>" and adds the
/// elapsed seconds to the ledger under `layer` on destruction; without a
/// ledger it does nothing, so untraced ops run the bare calls.
class LayerTimer {
 public:
  LayerTimer(LayerLedger* ledger, const char* layer);
  ~LayerTimer();
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  LayerLedger* ledger_;
  const char* layer_;
  std::string span_name_;
  std::optional<rlbench::obs::TraceSpan> span_;
  Clock::time_point start_;
};

/// Appends `"key": value` members to one JSON object.
class JsonObject {
 public:
  JsonObject& Number(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& String(const std::string& key, std::string_view value);
  /// `json` must already be valid JSON (an object or array).
  JsonObject& Raw(const std::string& key, const std::string& json);
  JsonObject& Numbers(const std::string& key, const std::vector<double>& values,
                      int decimals = -1);
  std::string Close() const { return body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_ = "{";
};

std::string JsonArray(const std::vector<std::string>& items);

/// Write `text` to `path`; false on any IO error.
bool WriteFile(const std::string& path, const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_UTIL_H_
