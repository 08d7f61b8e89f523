// Shared per-task state for matchers: the columnar feature store over both
// tables, a corpus TF-IDF model, and the lazily built Magellan feature
// datasets that several matchers reuse. Building this once per task and
// passing it to every matcher is what keeps a full Table IV run affordable.
#ifndef RLBENCH_SRC_MATCHERS_CONTEXT_H_
#define RLBENCH_SRC_MATCHERS_CONTEXT_H_

#include <mutex>
#include <optional>

#include "data/columnar.h"
#include "data/task.h"
#include "ml/dataset.h"
#include "text/tfidf.h"

namespace rlbench::matchers {

/// \brief Read-only context shared by all matchers evaluating one task.
///
/// The lazily built members (TF-IDF, Magellan datasets, q-gram pools) are
/// built once, by the first caller; any number of threads may make that
/// first call at once (the others wait for the build), so the matchers of
/// one line-up can share a context across pool chunks. Not copyable or
/// movable.
class MatchingContext {
 public:
  explicit MatchingContext(const data::MatchingTask* task);

  const data::MatchingTask& task() const { return *task_; }

  /// Corpus TF-IDF over every record's tokens, left table first, built on
  /// first use (only the DL simulators read it).
  const text::TfIdfModel& tfidf() const;

  /// Columnar store over both tables (token and value columns built with
  /// the context; q-gram pools on demand via columnar().EnsureQGrams()).
  const data::ColumnarStore& columnar() const { return columnar_; }

  /// Magellan feature datasets for train / valid / test, built on first use
  /// and cached (shared by the four Magellan variants and ZeroER).
  const ml::Dataset& MagellanTrain() const;
  const ml::Dataset& MagellanValid() const;
  const ml::Dataset& MagellanTest() const;

 private:
  void EnsureMagellan() const;
  void BuildMagellan() const;

  const data::MatchingTask* task_;
  data::ColumnarStore columnar_;
  mutable std::once_flag tfidf_once_;
  mutable std::optional<text::TfIdfModel> tfidf_;
  mutable std::once_flag magellan_once_;
  mutable std::optional<ml::Dataset> magellan_train_;
  mutable std::optional<ml::Dataset> magellan_valid_;
  mutable std::optional<ml::Dataset> magellan_test_;
};

}  // namespace rlbench::matchers

#endif  // RLBENCH_SRC_MATCHERS_CONTEXT_H_
