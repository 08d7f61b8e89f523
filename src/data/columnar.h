// Structure-of-arrays store of every per-record text feature over one
// matching task's two tables. It is the only per-record feature store:
// each attribute value is tokenized once, here, and every matcher, measure
// and blocker reads the columns below.
//
//   * Token ids — every distinct token hash across BOTH tables is interned
//     as its rank in the globally sorted unique hash vocabulary. The
//     mapping hash -> id is therefore a monotone bijection: a record's
//     sorted unique hash set maps to a sorted unique uint32 id array with
//     identical pairwise intersection counts, so set similarities over id
//     spans are bit-identical to the text::TokenSet scalar path at half the
//     memory bandwidth. Rank interning also makes ids independent of
//     record insertion order by construction.
//   * Per-record id arrays (schema-agnostic and per-attribute) live in two
//     contiguous pools addressed by offset indexes.
//   * Ordered token sequences (for Monge-Elkan, TF-IDF and the DL
//     simulators) are string_views into the lower-cased value arena: a
//     token of text::Tokenize is a lower-cased run of ASCII alphanumerics,
//     i.e. a substring of the lower-cased value.
//   * Per-value derivations that a row path would recompute per PAIR are
//     hoisted to once per RECORD: lower-cased values (exact match),
//     strtod parses (numeric similarity).
//   * Q-gram sets (lazy, EnsureQGrams) keep their raw salted uint64 hashes
//     in contiguous sorted pools — q-grams have no shared vocabulary worth
//     building.
//
// Build is deterministic at any thread count: each column is filled by a
// ParallelFor over records into slots pinned by a serial sizing pass (the
// common/parallel.h contract). Differential coverage against the row
// reference in tests/support/row_oracle.h lives in
// tests/data/columnar_test.cc and tests/text/kernels_differential_test.cc.
#ifndef RLBENCH_SRC_DATA_COLUMNAR_H_
#define RLBENCH_SRC_DATA_COLUMNAR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "data/record.h"

namespace rlbench::data {

/// \brief Dense row-major float matrix with an optional per-row sorted
/// copy (the Wasserstein kernel consumes coordinate-sorted rows, so the
/// per-pair sort is paid once per record here).
class PackedMatrix {
 public:
  PackedMatrix() = default;

  /// Allocate rows x cols zeros; drops any previous contents.
  void Reset(size_t rows, size_t cols);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  std::span<const float> row(size_t r) const;
  std::span<float> mutable_row(size_t r);

  /// Fill the sorted-row shadow (each row's coordinates ascending).
  /// Call after the rows are final; parallel over rows, deterministic.
  void BuildSortedRows();
  bool sorted_built() const { return sorted_built_; }
  std::span<const float> sorted_row(size_t r) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
  std::vector<float> sorted_;
  bool sorted_built_ = false;
};

/// \brief Columnar token / q-gram / value columns over (left, right).
///
/// Threading contract: construction runs on one caller (internally
/// parallel). Afterwards any number of threads may call the accessors
/// concurrently, and EnsureQGrams() too: the first call builds the pools
/// once while any concurrent first callers wait for it. Not copyable or
/// movable.
class ColumnarStore {
 public:
  static constexpr size_t kLeft = 0;
  static constexpr size_t kRight = 1;
  static constexpr int kMinQ = 2;
  static constexpr int kMaxQ = 10;
  static constexpr int kNumQ = kMaxQ - kMinQ + 1;

  /// Characters of text considered when building q-gram sets; bounds the
  /// pool size on long-text datasets (q-gram sets grow linearly in text
  /// length and are kept for nine values of q). Snapshots of q-gram models
  /// record it.
  static constexpr size_t kQGramCharCap = 160;

  /// Tokenizes both tables and builds the token and value columns. The
  /// tables must outlive the store (Value() views and EnsureQGrams read
  /// them).
  ColumnarStore(const Table& left, const Table& right);

  size_t num_attrs() const { return num_attrs_; }
  size_t num_records(size_t side) const;
  size_t vocab_size() const { return vocab_.size(); }

  /// Sorted unique token ids over all attribute values (schema-agnostic).
  std::span<const uint32_t> TokenIdsAll(size_t side, size_t record) const;

  /// Sorted unique token ids of one attribute value.
  std::span<const uint32_t> TokenIdsAttr(size_t side, size_t record,
                                         size_t attr) const;

  /// Ordered token sequence of one attribute (views into the lower-cased
  /// value arena); equals text::Tokenize of the value.
  std::span<const std::string_view> TokenSeqAttr(size_t side, size_t record,
                                                 size_t attr) const;

  /// Ordered tokens of all attribute values, in attribute order: the
  /// contiguous span over the record's attribute slots; equals
  /// text::TokenizeAll of the record's values.
  std::span<const std::string_view> TokenSeqAll(size_t side,
                                                size_t record) const;

  /// Raw attribute value (view into the backing Table).
  std::string_view Value(size_t side, size_t record, size_t attr) const;

  /// Lower-cased attribute value (view into the lowered arena).
  std::string_view LoweredValue(size_t side, size_t record,
                                size_t attr) const;

  /// Result of the hoisted numeric parse of one attribute value.
  bool NumericOk(size_t side, size_t record, size_t attr) const;
  double NumericValue(size_t side, size_t record, size_t attr) const;

  /// Build the q-gram pools straight from the values, once. Safe to call
  /// from several threads at once; every caller returns after the build.
  void EnsureQGrams() const;
  bool qgrams_built() const { return qgrams_built_.load(); }

  /// Sorted unique q-gram hashes over the concatenated record text,
  /// capped at kQGramCharCap characters, q in [kMinQ, kMaxQ].
  /// EnsureQGrams() must have run.
  std::span<const uint64_t> QGramAll(size_t side, size_t record, int q) const;

  /// Sorted unique q-gram hashes of one attribute value (capped likewise).
  std::span<const uint64_t> QGramAttr(size_t side, size_t record, size_t attr,
                                      int q) const;

  /// Rank of a token hash in the vocabulary, or vocab_size() when absent
  /// (test hook for the interning-stability property).
  uint32_t IdOfHash(uint64_t hash) const;

 private:
  struct SideColumns {
    size_t records = 0;
    // Schema-agnostic token ids: [ids_all_off[r], ids_all_off[r+1]).
    std::vector<uint32_t> ids_all;
    std::vector<size_t> ids_all_off;
    // Per-attribute token ids, slot r * num_attrs + a.
    std::vector<uint32_t> ids_attr;
    std::vector<size_t> ids_attr_off;
    // Ordered per-attribute token views into `lowered_chars`.
    std::vector<std::string_view> token_views;
    std::vector<size_t> token_seq_off;
    // Per-value columns, slot r * num_attrs + a.
    std::vector<std::string_view> values;
    std::vector<char> lowered_chars;
    std::vector<std::string_view> lowered_views;
    std::vector<uint8_t> numeric_ok;
    std::vector<double> numeric_val;
    // Q-gram pools (filled by EnsureQGrams). Schema-agnostic slot is
    // r * kNumQ + (q - kMinQ); per-attribute slot is
    // (r * num_attrs + a) * kNumQ + (q - kMinQ).
    std::vector<uint64_t> qgram_all;
    std::vector<size_t> qgram_all_off;
    std::vector<uint64_t> qgram_attr;
    std::vector<size_t> qgram_attr_off;
  };

  // Sorted unique token hashes of each record of one side, laid out per
  // record as [attr 0 set | ... | attr n-1 set | all-attributes set]; the
  // sizing offsets in SideColumns address them. Build-time only.
  using RecordHashes = std::vector<std::vector<uint64_t>>;

  void TokenizeSide(size_t side, RecordHashes* hashes);
  void BuildVocab(const std::array<RecordHashes, 2>& hashes);
  void FillTokenColumns(size_t side, RecordHashes* hashes);
  void BuildQGramColumns(size_t side) const;

  const SideColumns& columns(size_t side) const;

  std::array<const Table*, 2> tables_;
  size_t num_attrs_ = 0;
  std::vector<uint64_t> vocab_;
  mutable std::array<SideColumns, 2> sides_;
  mutable std::once_flag qgrams_once_;
  mutable std::atomic<bool> qgrams_built_{false};
};

// The accessors below are defined inline: the batch extraction loops call
// them once or more per (pair, attribute), so a cross-TU call per lookup
// would dominate the vectorized kernels they feed.

inline const ColumnarStore::SideColumns& ColumnarStore::columns(
    size_t side) const {
  RLBENCH_DCHECK_INDEX(side, sides_.size());
  return sides_[side];
}

inline size_t ColumnarStore::num_records(size_t side) const {
  return columns(side).records;
}

inline std::span<const uint32_t> ColumnarStore::TokenIdsAll(
    size_t side, size_t record) const {
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  return {c.ids_all.data() + c.ids_all_off[record],
          c.ids_all_off[record + 1] - c.ids_all_off[record]};
}

inline std::span<const uint32_t> ColumnarStore::TokenIdsAttr(
    size_t side, size_t record, size_t attr) const {
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  RLBENCH_DCHECK_INDEX(attr, num_attrs_);
  size_t slot = record * num_attrs_ + attr;
  return {c.ids_attr.data() + c.ids_attr_off[slot],
          c.ids_attr_off[slot + 1] - c.ids_attr_off[slot]};
}

inline std::span<const std::string_view> ColumnarStore::TokenSeqAttr(
    size_t side, size_t record, size_t attr) const {
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  RLBENCH_DCHECK_INDEX(attr, num_attrs_);
  size_t slot = record * num_attrs_ + attr;
  return {c.token_views.data() + c.token_seq_off[slot],
          c.token_seq_off[slot + 1] - c.token_seq_off[slot]};
}

inline std::span<const std::string_view> ColumnarStore::TokenSeqAll(
    size_t side, size_t record) const {
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  size_t first = c.token_seq_off[record * num_attrs_];
  return {c.token_views.data() + first,
          c.token_seq_off[(record + 1) * num_attrs_] - first};
}

inline std::string_view ColumnarStore::Value(size_t side, size_t record,
                                             size_t attr) const {
  const SideColumns& c = columns(side);
  return c.values[DcheckedIndex(record * num_attrs_ + attr,
                                c.values.size())];
}

inline std::string_view ColumnarStore::LoweredValue(size_t side, size_t record,
                                                    size_t attr) const {
  const SideColumns& c = columns(side);
  return c.lowered_views[DcheckedIndex(record * num_attrs_ + attr,
                                       c.lowered_views.size())];
}

inline bool ColumnarStore::NumericOk(size_t side, size_t record,
                                     size_t attr) const {
  const SideColumns& c = columns(side);
  return c.numeric_ok[DcheckedIndex(record * num_attrs_ + attr,
                                    c.numeric_ok.size())] != 0;
}

inline double ColumnarStore::NumericValue(size_t side, size_t record,
                                          size_t attr) const {
  const SideColumns& c = columns(side);
  return c.numeric_val[DcheckedIndex(record * num_attrs_ + attr,
                                     c.numeric_val.size())];
}

inline std::span<const uint64_t> ColumnarStore::QGramAll(size_t side,
                                                         size_t record,
                                                         int q) const {
  RLBENCH_DCHECK(qgrams_built_);
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  RLBENCH_DCHECK(q >= kMinQ && q <= kMaxQ);
  size_t slot = record * kNumQ + static_cast<size_t>(q - kMinQ);
  return {c.qgram_all.data() + c.qgram_all_off[slot],
          c.qgram_all_off[slot + 1] - c.qgram_all_off[slot]};
}

inline std::span<const uint64_t> ColumnarStore::QGramAttr(size_t side,
                                                          size_t record,
                                                          size_t attr,
                                                          int q) const {
  RLBENCH_DCHECK(qgrams_built_);
  const SideColumns& c = columns(side);
  RLBENCH_DCHECK_INDEX(record, c.records);
  RLBENCH_DCHECK_INDEX(attr, num_attrs_);
  RLBENCH_DCHECK(q >= kMinQ && q <= kMaxQ);
  size_t slot = (record * num_attrs_ + attr) * kNumQ +
                static_cast<size_t>(q - kMinQ);
  return {c.qgram_attr.data() + c.qgram_attr_off[slot],
          c.qgram_attr_off[slot + 1] - c.qgram_attr_off[slot]};
}

}  // namespace rlbench::data

#endif  // RLBENCH_SRC_DATA_COLUMNAR_H_
