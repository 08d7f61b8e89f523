#include "obs/manifest.h"

#include <cstdio>
#include <mutex>

#include "obs/json.h"
#include "obs/metrics.h"

namespace rlbench::obs {

namespace {

// `git describe` of the working tree, resolved once per process. Benches
// run from arbitrary cwds, so a failure (no git, no repo) degrades to
// "unknown" rather than erroring.
std::string GitDescribe() {
  static std::once_flag once;
  static std::string cached = "unknown";
  std::call_once(once, [] {
    FILE* pipe =
        popen("git describe --always --dirty --tags 2>/dev/null", "r");
    if (pipe == nullptr) return;
    char buf[256];
    std::string out;
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    if (pclose(pipe) == 0 && !out.empty()) {
      while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
        out.pop_back();
      }
      if (!out.empty()) cached = out;
    }
  });
  return cached;
}

JsonValue HistogramJson(const Histogram& histogram) {
  return JsonValue::Object({
      {"count", JsonValue::Number(static_cast<double>(histogram.Count()))},
      {"sum", JsonValue::Number(histogram.Sum())},
      {"min", JsonValue::Number(histogram.Min())},
      {"max", JsonValue::Number(histogram.Max())},
      {"p50", JsonValue::Number(histogram.Percentile(0.5))},
      {"p90", JsonValue::Number(histogram.Percentile(0.9))},
      {"p99", JsonValue::Number(histogram.Percentile(0.99))},
  });
}

// `,\n  "key": {` then one member per line: the layout of the sections
// that can hold many entries.
void AppendSection(std::string* out, const char* key,
                   const JsonValue::Members& members) {
  *out += ",\n  " + JsonString(key) + ": {";
  const char* sep = "\n    ";
  for (const auto& [name, value] : members) {
    *out += sep + JsonString(name) + ": " + ToJson(value);
    sep = ",\n    ";
  }
  *out += members.empty() ? "}" : "\n  }";
}

}  // namespace

// The build's CMAKE_BUILD_TYPE, set on rlbench_obs by src/obs/CMakeLists.txt.
#ifndef RLBENCH_BUILD_TYPE
#define RLBENCH_BUILD_TYPE "unknown"
#endif

// The trace span inside an open phase needs a stable name string; the
// holder owns the copy so `phases_` reallocations cannot dangle it.
struct RunManifest::PhaseSpan {
  explicit PhaseSpan(std::string phase_name)
      : name(std::move(phase_name)), span(name.c_str()) {}
  std::string name;
  TraceSpan span;
};

RunManifest::RunManifest(std::string bench_name)
    : name_(std::move(bench_name)), start_(std::chrono::steady_clock::now()) {}

RunManifest::~RunManifest() = default;

void RunManifest::AddConfig(const std::string& key, const std::string& value) {
  config_.emplace_back(key, JsonValue::String(value));
}

void RunManifest::AddConfig(const std::string& key, double value) {
  config_.emplace_back(key, JsonValue::Number(value));
}

void RunManifest::AddConfig(const std::string& key, int64_t value) {
  config_.emplace_back(key, JsonValue::Number(static_cast<double>(value)));
}

void RunManifest::AddResult(const std::string& key, JsonValue value) {
  results_.emplace_back(key, std::move(value));
}

void RunManifest::BeginPhase(const std::string& phase_name) {
  phases_.push_back(Phase{phase_name, 0.0, true, false, ""});
  phase_stack_.push_back(phases_.size() - 1);
  phase_spans_.push_back(std::make_unique<PhaseSpan>(phase_name));
  phase_starts_.push_back(std::chrono::steady_clock::now());
}

void RunManifest::EndPhase() {
  if (phase_stack_.empty()) return;
  phase_spans_.pop_back();  // closes the trace span first
  size_t index = phase_stack_.back();
  phase_stack_.pop_back();
  auto started = phase_starts_.back();
  phase_starts_.pop_back();
  phases_[index].seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  phases_[index].open = false;
}

void RunManifest::FailPhase(const std::string& error) {
  if (phase_stack_.empty()) return;
  Phase& phase = phases_[phase_stack_.back()];
  phase.failed = true;
  phase.error = error;
}

void RunManifest::AddCompletedPhase(const std::string& phase_name,
                                    double seconds, bool failed,
                                    const std::string& error) {
  phases_.push_back(Phase{phase_name, seconds, false, failed, error});
}

bool RunManifest::HasFailedPhase() const {
  for (const Phase& phase : phases_) {
    if (phase.failed) return true;
  }
  return false;
}

double RunManifest::TotalSeconds() const {
  if (frozen_total_ >= 0.0) return frozen_total_;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void RunManifest::Finalize() {
  frozen_total_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
}

std::string RunManifest::ToJson() const {
  std::vector<JsonValue> datasets;
  for (const std::string& id : datasets_) {
    datasets.push_back(JsonValue::String(id));
  }
  std::vector<JsonValue> phases;
  for (const Phase& phase : phases_) {
    JsonValue::Members fields = {
        {"name", JsonValue::String(phase.name)},
        {"seconds", JsonValue::Number(phase.seconds)},
        {"status", JsonValue::String(phase.failed ? "failed" : "ok")}};
    if (phase.failed) {
      fields.emplace_back("error", JsonValue::String(phase.error));
    }
    phases.push_back(JsonValue::Object(std::move(fields)));
  }
  std::string out = "{\n";
  out += "  \"schema_version\": 3,\n";
  out += "  \"bench\": " + JsonString(name_) + ",\n";
  out += "  \"git\": " + JsonString(GitDescribe()) + ",\n";
  out += "  \"build_type\": " + JsonString(RLBENCH_BUILD_TYPE) + ",\n";
  out += "  \"threads\": " + std::to_string(threads_) + ",\n";
  out += "  \"hardware_concurrency\": " +
         std::to_string(hardware_concurrency_) + ",\n";
  out += "  \"peak_rss_bytes\": " + std::to_string(peak_rss_bytes_) + ",\n";
  if (has_seed_) {
    out += "  \"seed\": " + std::to_string(seed_) + ",\n";
  }
  out += "  \"datasets\": " +
         obs::ToJson(JsonValue::Array(std::move(datasets))) + ",\n";
  out += "  \"config\": " + obs::ToJson(JsonValue::Object(config_)) + ",\n";
  out += "  \"phases\": " + obs::ToJson(JsonValue::Array(std::move(phases))) +
         ",\n";
  out += "  \"total_seconds\": " + JsonNumber(TotalSeconds());
  if (!results_.empty()) AppendSection(&out, "results", results_);
  if (!trace_file_.empty()) {
    out += ",\n  \"trace_file\": " + JsonString(trace_file_);
  }
  if (MetricsEnabled()) {
    Metrics& metrics = Metrics::Instance();
    JsonValue::Members counters, gauges, histograms;
    for (const auto& [name, counter] : metrics.Counters()) {
      counters.emplace_back(
          name, JsonValue::Number(static_cast<double>(counter->Value())));
    }
    for (const auto& [name, gauge] : metrics.Gauges()) {
      gauges.emplace_back(name, JsonValue::Number(gauge->Value()));
    }
    for (const auto& [name, histogram] : metrics.Histograms()) {
      histograms.emplace_back(name, HistogramJson(*histogram));
    }
    AppendSection(&out, "counters", counters);
    AppendSection(&out, "gauges", gauges);
    AppendSection(&out, "histograms", histograms);
  }
  out += "\n}\n";
  return out;
}

}  // namespace rlbench::obs
