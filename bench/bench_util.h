// Shared helpers for the table/figure reproduction harnesses: dataset
// selection flags, automatic scale capping, percentage formatting, and a
// results cache so the figure benches can reuse the expensive matcher runs
// of the table benches.
#ifndef RLBENCH_BENCH_BENCH_UTIL_H_
#define RLBENCH_BENCH_BENCH_UTIL_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "core/practical.h"
#include "obs/manifest.h"

namespace rlbench::benchutil {

/// Scale factor capping a benchmark at `max_pairs` labelled pairs.
double AutoScale(size_t total_pairs, size_t max_pairs);

/// Dataset ids from --datasets=Ds1,Ds2 (comma separated); `fallback` when
/// the flag is absent.
std::vector<std::string> SelectIds(const Flags& flags,
                                   const std::vector<std::string>& fallback);

/// Percentage with two decimals, e.g. 0.97654 -> "97.65".
std::string Pct(double fraction);

/// Three decimals, e.g. "0.944".
std::string F3(double value);

// --- Matcher score cache ----------------------------------------------------

struct CachedScore {
  std::string dataset;
  std::string matcher;
  matchers::MatcherGroup group;
  double f1 = 0.0;
};

/// Directory for bench artifacts (created on demand): ./bench_results.
std::string ResultsDir();

/// Persist matcher scores as CSV under ResultsDir()/<name>.csv.
void SaveScores(const std::string& name, const std::vector<CachedScore>& rows);

/// Load a previously saved score file; nullopt when absent or malformed.
std::optional<std::vector<CachedScore>> LoadScores(const std::string& name);

// --- Run bookkeeping --------------------------------------------------------

/// One object per bench binary: owns the run manifest, names the main
/// thread's trace track, and (in Finish) writes the machine-readable
/// artefacts plus the human-readable epilogue line — which is *derived
/// from* the manifest, so the printed seconds and the recorded seconds
/// can never disagree.
///
///   int main(...) {
///     benchutil::BenchRun run("table3_datasets");
///     { obs::ManifestPhase phase(&run.manifest(), "datasets"); ... }
///     run.Finish();
///   }
///
/// Finish() fills in thread count / hardware concurrency, writes the
/// Chrome trace when RLBENCH_TRACE is set, and always writes the manifest
/// (atomically, via data::FileSource::WriteAtomic) to
/// ResultsDir()/<summary_file> — a bench's committed BENCH_*.json, whose
/// measurements go in through manifest().AddResult() — or, without one,
/// to ResultsDir()/<name>.manifest.json.
class BenchRun {
 public:
  explicit BenchRun(const char* name, std::string summary_file = "");
  ~BenchRun();

  obs::RunManifest& manifest() { return manifest_; }

  /// Writes trace + manifest and prints the epilogue; idempotent. False
  /// when the manifest could not be written (benches then exit non-zero).
  bool Finish();

 private:
  obs::RunManifest manifest_;
  std::string summary_file_;
  bool finished_ = false;
  bool written_ = false;
};

// --- Graceful per-dataset degradation ---------------------------------------

/// Run `body(id)` for each dataset id under a manifest phase
/// "dataset/<id>". A failing dataset marks its phase "failed" (with the
/// Status message), prints a warning, and the run continues with the next
/// id. Returns the number of failed datasets — benches exit 0 as long as
/// at least one dataset succeeded.
size_t ForEachDataset(BenchRun& run, const std::vector<std::string>& ids,
                      const std::function<Status(const std::string&)>& body);

/// Record one dataset phase that was timed off-manifest (parallel benches
/// join first, then record in deterministic id order on the main thread).
void RecordDatasetPhase(BenchRun& run, const std::string& id, double seconds,
                        const Status& status);

/// Cap a task's pair count by thinning easy negatives (positives are
/// always kept, so difficulty is preserved or increased). Shared by the
/// matcher harnesses over the blocking-generated benchmarks.
void CapPairs(data::MatchingTask* task, size_t max_pairs);

}  // namespace rlbench::benchutil

#endif  // RLBENCH_BENCH_BENCH_UTIL_H_
