// Machine-readable run manifests for the bench harnesses.
//
// Every bench binary records what it ran (git revision, seed, thread
// count, dataset ids, flag values), how long each phase took, and — when
// RLBENCH_METRICS is on — a snapshot of every registered counter, gauge,
// and histogram. The result is written beside the printed table as
// `bench_results/<name>.manifest.json` (or the bench's committed
// `bench_results/BENCH_*.json` summary) so downstream tooling
// (tools/validate_manifest.py, plotting scripts, CI) can consume runs
// without scraping stdout.
//
// Manifest schema (schema_version 3):
//   {
//     "schema_version": 3,
//     "bench": "<name>",
//     "git": "<git describe --always --dirty, or 'unknown'>",
//     "build_type": "<CMAKE_BUILD_TYPE of the build, e.g. Release>",
//     "threads": N, "hardware_concurrency": N,
//     "peak_rss_bytes": N,           // process high-water RSS; 0 = unknown
//     "seed": N,                     // only when set
//     "datasets": ["Ds1", ...],
//     "config": {"flag": "value", ...},    // run inputs
//     "phases": [{"name": "...", "seconds": S,
//                 "status": "ok" | "failed",
//                 "error": "..."},   // only when failed
//                ...],
//     "total_seconds": S,
//     "results": {"key": <any JSON>, ...}, // measured outcomes; only when set
//     "trace_file": "path",          // only when tracing
//     "counters": {"name": N, ...},          // only with RLBENCH_METRICS
//     "gauges": {"name": V, ...},
//     "histograms": {"name": {"count": N, "sum": S, "min": V, "max": V,
//                             "p50": V, "p90": V, "p99": V}, ...}
//   }
//
// schema_version 2 added the per-phase "status"/"error" fields, which let
// a bench record a failed dataset (graceful degradation) while the rest of
// the run continues. schema_version 3 added "build_type" and "results":
// a bench's measured outcomes live beside the setup that produced them,
// so a committed bench_results/BENCH_*.json summary is a full manifest.
#ifndef RLBENCH_SRC_OBS_MANIFEST_H_
#define RLBENCH_SRC_OBS_MANIFEST_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace rlbench::obs {

/// \brief Mutable record of one bench run; serialised by ToJson().
/// Not thread-safe — benches drive it from the main thread only.
class RunManifest {
 public:
  explicit RunManifest(std::string bench_name);
  ~RunManifest();

  const std::string& name() const { return name_; }

  void set_threads(size_t threads) { threads_ = threads; }
  void set_hardware_concurrency(size_t n) { hardware_concurrency_ = n; }
  /// Peak resident set size (obs::PeakRssBytes()); 0 means unknown. The
  /// key is always serialised so downstream tooling can rely on it.
  void set_peak_rss_bytes(int64_t bytes) { peak_rss_bytes_ = bytes; }
  void set_seed(uint64_t seed) {
    seed_ = seed;
    has_seed_ = true;
  }
  void set_trace_file(std::string path) { trace_file_ = std::move(path); }
  void SetDatasets(std::vector<std::string> ids) { datasets_ = std::move(ids); }
  void AddDataset(const std::string& id) { datasets_.push_back(id); }

  void AddConfig(const std::string& key, const std::string& value);
  void AddConfig(const std::string& key, double value);
  void AddConfig(const std::string& key, int64_t value);

  /// Records one measured outcome under "results" (key order kept).
  void AddResult(const std::string& key, JsonValue value);

  /// Phases nest (stack discipline); serialised in begin order. Each open
  /// phase also holds a matching trace span, so manifests and traces tell
  /// the same story. Prefer the ManifestPhase RAII wrapper when a scope is
  /// natural; call these directly to bracket a statement run.
  void BeginPhase(const std::string& phase_name);
  void EndPhase();

  /// Marks the innermost open phase as failed with `error`; the phase is
  /// still closed by the matching EndPhase(). No-op when no phase is open.
  void FailPhase(const std::string& error);

  /// Appends an already-timed phase. This is the post-join path for
  /// parallel benches: workers time their datasets with a Stopwatch, the
  /// main thread records them here in deterministic order (the manifest
  /// itself is not thread-safe).
  void AddCompletedPhase(const std::string& phase_name, double seconds,
                         bool failed = false, const std::string& error = "");

  /// Wall seconds since construction; after Finalize(), the frozen value.
  double TotalSeconds() const;

  /// Freezes TotalSeconds() at the current elapsed time, so every later
  /// consumer (printed epilogue, ToJson) reports the same number.
  void Finalize();

  std::string ToJson() const;

  /// True when any recorded phase failed.
  bool HasFailedPhase() const;

 private:
  struct Phase {
    std::string name;
    double seconds = 0.0;
    bool open = true;
    bool failed = false;
    std::string error;
  };
  struct PhaseSpan;  // owns the phase name copy backing its trace span

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  double frozen_total_ = -1.0;  // < 0 = not frozen
  size_t threads_ = 0;
  size_t hardware_concurrency_ = 0;
  int64_t peak_rss_bytes_ = 0;
  uint64_t seed_ = 0;
  bool has_seed_ = false;
  std::string trace_file_;
  std::vector<std::string> datasets_;
  JsonValue::Members config_;
  JsonValue::Members results_;
  std::vector<Phase> phases_;
  std::vector<size_t> phase_stack_;  // indices into phases_
  std::vector<std::chrono::steady_clock::time_point> phase_starts_;
  std::vector<std::unique_ptr<PhaseSpan>> phase_spans_;  // open phases only
};

/// \brief RAII wrapper over BeginPhase/EndPhase for scope-shaped phases.
class ManifestPhase {
 public:
  ManifestPhase(RunManifest* manifest, const std::string& phase_name)
      : manifest_(manifest) {
    manifest_->BeginPhase(phase_name);
  }
  ~ManifestPhase() { manifest_->EndPhase(); }

  ManifestPhase(const ManifestPhase&) = delete;
  ManifestPhase& operator=(const ManifestPhase&) = delete;

 private:
  RunManifest* manifest_;
};

}  // namespace rlbench::obs

#endif  // RLBENCH_SRC_OBS_MANIFEST_H_
