#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "data/csv.h"
#include "data/file_source.h"
#include "fault/failpoint.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace rlbench::benchutil {

double AutoScale(size_t total_pairs, size_t max_pairs) {
  if (total_pairs <= max_pairs) return 1.0;
  return static_cast<double>(max_pairs) / static_cast<double>(total_pairs);
}

std::vector<std::string> SelectIds(const Flags& flags,
                                   const std::vector<std::string>& fallback) {
  if (!flags.Has("datasets")) return fallback;
  return SplitAny(flags.GetString("datasets", ""), ",");
}

std::string Pct(double fraction) { return FormatDouble(100.0 * fraction, 2); }

std::string F3(double value) { return FormatDouble(value, 3); }

std::string ResultsDir() {
  std::filesystem::path dir = "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

void SaveScores(const std::string& name,
                const std::vector<CachedScore>& rows) {
  std::vector<std::vector<std::string>> csv_rows;
  csv_rows.push_back({"dataset", "matcher", "group", "f1"});
  for (const auto& row : rows) {
    csv_rows.push_back({row.dataset, row.matcher,
                        std::to_string(static_cast<int>(row.group)),
                        FormatDouble(row.f1, 6)});
  }
  std::string path = ResultsDir() + "/" + name + ".csv";
  Status status = data::FileSource::WriteAtomic(path, data::WriteCsv(csv_rows));
  if (!status.ok()) {
    std::fprintf(stderr, "bench: cannot save scores %s: %s\n", path.c_str(),
                 status.ToString().c_str());
  }
}

namespace {

// Strict numeric parsers for the score cache; any damage to the cache file
// degrades to "no cache" (nullopt) rather than a throw.
bool ParseIntField(const std::string& text, int* out) {
  if (text.empty()) return false;
  size_t i = text[0] == '-' ? 1 : 0;
  if (i == text.size()) return false;
  long long value = 0;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    value = value * 10 + (text[i] - '0');
    if (value > 1000000) return false;
  }
  *out = static_cast<int>(text[0] == '-' ? -value : value);
  return true;
}

bool ParseDoubleField(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

}  // namespace

std::optional<std::vector<CachedScore>> LoadScores(const std::string& name) {
  auto text = data::FileSource::ReadAll(ResultsDir() + "/" + name + ".csv");
  if (!text.ok()) return std::nullopt;
  auto rows = data::ParseCsv(*text);
  if (!rows.ok() || rows->size() < 2) return std::nullopt;
  std::vector<CachedScore> scores;
  for (size_t i = 1; i < rows->size(); ++i) {
    const auto& row = (*rows)[i];
    if (row.size() < 4) return std::nullopt;
    CachedScore score;
    score.dataset = row[0];
    score.matcher = row[1];
    int group = 0;
    if (!ParseIntField(row[2], &group)) return std::nullopt;
    score.group = static_cast<matchers::MatcherGroup>(group);
    if (!ParseDoubleField(row[3], &score.f1)) return std::nullopt;
    scores.push_back(std::move(score));
  }
  return scores;
}

BenchRun::BenchRun(const char* name, std::string summary_file)
    : manifest_(name), summary_file_(std::move(summary_file)) {
  obs::SetCurrentThreadName("main");
}

BenchRun::~BenchRun() { Finish(); }

bool BenchRun::Finish() {
  if (finished_) return written_;
  finished_ = true;
  manifest_.set_threads(ParallelThreadCount());
  manifest_.set_hardware_concurrency(std::thread::hardware_concurrency());
  manifest_.set_peak_rss_bytes(obs::PeakRssBytes());
  std::string trace_path = obs::WriteTraceIfEnabled();
  if (!trace_path.empty()) manifest_.set_trace_file(trace_path);
  // An armed fault spec changes what the run measures; record it so the
  // manifest says which results ran under injection. Unarmed runs carry no
  // such key, keeping them bit-identical to pre-fault manifests.
  if (fault::FaultsEnabled()) {
    manifest_.AddConfig("faults", fault::ActiveSpec());
  }
  // Freeze the wall time so the printed line and the manifest agree to
  // the digit.
  manifest_.Finalize();
  double seconds = manifest_.TotalSeconds();
  std::string manifest_path =
      ResultsDir() + "/" +
      (summary_file_.empty() ? manifest_.name() + ".manifest.json"
                             : summary_file_);
  Status write = data::FileSource::WriteAtomic(manifest_path,
                                               manifest_.ToJson());
  written_ = write.ok();
  if (!written_) {
    std::fprintf(stderr, "bench: cannot write manifest %s: %s\n",
                 manifest_path.c_str(), write.ToString().c_str());
    manifest_path.clear();
  }
  std::printf("\n[%s finished in %.1f s]\n", manifest_.name().c_str(),
              seconds);
  if (!manifest_path.empty()) {
    std::printf("[manifest: %s]\n", manifest_path.c_str());
  }
  if (!trace_path.empty()) {
    std::printf("[trace: %s]\n", trace_path.c_str());
  }
  return written_;
}

size_t ForEachDataset(BenchRun& run, const std::vector<std::string>& ids,
                      const std::function<Status(const std::string&)>& body) {
  size_t failed = 0;
  for (const auto& id : ids) {
    run.manifest().BeginPhase("dataset/" + id);
    Status status = body(id);
    if (!status.ok()) {
      ++failed;
      run.manifest().FailPhase(status.ToString());
      std::fprintf(stderr, "bench: dataset %s failed: %s (continuing)\n",
                   id.c_str(), status.ToString().c_str());
    }
    run.manifest().EndPhase();
  }
  return failed;
}

void RecordDatasetPhase(BenchRun& run, const std::string& id, double seconds,
                        const Status& status) {
  if (status.ok()) {
    run.manifest().AddCompletedPhase("dataset/" + id, seconds);
    return;
  }
  run.manifest().AddCompletedPhase("dataset/" + id, seconds, true,
                                   status.ToString());
  std::fprintf(stderr, "bench: dataset %s failed: %s (continuing)\n",
               id.c_str(), status.ToString().c_str());
}

void CapPairs(data::MatchingTask* task, size_t max_pairs) {
  size_t total = task->AllPairs().size();
  if (total <= max_pairs) return;
  double keep = static_cast<double>(max_pairs) / static_cast<double>(total);
  Rng rng(0xCA9);
  auto thin = [&](const std::vector<data::LabeledPair>& pairs) {
    std::vector<data::LabeledPair> kept;
    kept.reserve(static_cast<size_t>(pairs.size() * keep) + 1);
    for (const auto& pair : pairs) {
      if (pair.is_match || rng.Bernoulli(keep)) kept.push_back(pair);
    }
    return kept;
  };
  task->set_train(thin(task->train()));
  task->set_valid(thin(task->valid()));
  task->set_test(thin(task->test()));
}

}  // namespace rlbench::benchutil
