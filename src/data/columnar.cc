#include "data/columnar.h"

#include <algorithm>
#include <cctype>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/kernels.h"
#include "text/qgrams.h"

namespace rlbench::data {

namespace {
// Records per chunk in the parallel fill passes; tokenizing or filling one
// record costs microseconds, so chunks stay coarse enough that dispatch
// overhead is negligible.
constexpr size_t kBuildGrain = 64;

/// body(r) for every record r in [0, n), each writing only slots the
/// sizing pass assigned to r. Under injected allocation pressure the fill
/// degrades to a serial loop instead of fanning out; the output is
/// identical either way, only the wall-clock changes.
template <typename Body>
void FillRecords(size_t n, const Body& body) {
  if (auto hit = RLBENCH_FAULT_POINT("data/columnar/fill")) {
    (void)hit;
    RLBENCH_COUNTER_INC("columnar/degraded_serial_fills");
    for (size_t r = 0; r < n; ++r) body(r);
    return;
  }
  ParallelFor(0, n, kBuildGrain, body);
}

bool IsTokenChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

/// emit(token) for every token of a lower-cased value, in order: the
/// maximal runs of alphanumerics that text::Tokenize returns (it lower-cases
/// exactly the characters it keeps, so its tokens are substrings of the
/// lower-cased value).
template <typename Emit>
void ForEachToken(std::string_view lowered, const Emit& emit) {
  size_t i = 0;
  while (i < lowered.size()) {
    if (!IsTokenChar(lowered[i])) {
      ++i;
      continue;
    }
    size_t start = i;
    while (i < lowered.size() && IsTokenChar(lowered[i])) ++i;
    emit(lowered.substr(start, i - start));
  }
}

void SortUnique(std::vector<uint64_t>* v, size_t from) {
  std::sort(v->begin() + static_cast<std::ptrdiff_t>(from), v->end());
  v->erase(std::unique(v->begin() + static_cast<std::ptrdiff_t>(from),
                       v->end()),
           v->end());
}

/// Map a sorted unique hash array onto its vocabulary ranks. Monotone, so
/// the output is sorted unique too.
void MapHashesToIds(std::span<const uint64_t> hashes,
                    const std::vector<uint64_t>& vocab, uint32_t* out) {
  auto pos = vocab.begin();
  for (size_t i = 0; i < hashes.size(); ++i) {
    pos = std::lower_bound(pos, vocab.end(), hashes[i]);
    RLBENCH_DCHECK(pos != vocab.end() && *pos == hashes[i]);
    out[i] = static_cast<uint32_t>(pos - vocab.begin());
  }
}

/// Offsets from per-slot sizes stored at off[slot + 1].
void PrefixSum(std::vector<size_t>* off) {
  for (size_t s = 1; s < off->size(); ++s) (*off)[s] += (*off)[s - 1];
}
}  // namespace

void PackedMatrix::Reset(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0F);
  sorted_.clear();
  sorted_built_ = false;
}

std::span<const float> PackedMatrix::row(size_t r) const {
  RLBENCH_DCHECK_INDEX(r, rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<float> PackedMatrix::mutable_row(size_t r) {
  RLBENCH_DCHECK_INDEX(r, rows_);
  return {data_.data() + r * cols_, cols_};
}

void PackedMatrix::BuildSortedRows() {
  sorted_ = data_;
  ParallelFor(0, rows_, kBuildGrain, [this](size_t r) {
    float* begin = sorted_.data() + r * cols_;
    std::sort(begin, begin + cols_);
  });
  sorted_built_ = true;
}

std::span<const float> PackedMatrix::sorted_row(size_t r) const {
  RLBENCH_DCHECK(sorted_built_);
  RLBENCH_DCHECK_INDEX(r, rows_);
  return {sorted_.data() + r * cols_, cols_};
}

ColumnarStore::ColumnarStore(const Table& left, const Table& right)
    : tables_{&left, &right},
      num_attrs_(left.schema().num_attributes()) {
  RLBENCH_TRACE_SPAN("data/columnar/build");
  RLBENCH_CHECK_EQ(num_attrs_, right.schema().num_attributes());
  std::array<RecordHashes, 2> hashes;
  TokenizeSide(kLeft, &hashes[kLeft]);
  TokenizeSide(kRight, &hashes[kRight]);
  BuildVocab(hashes);
  FillTokenColumns(kLeft, &hashes[kLeft]);
  FillTokenColumns(kRight, &hashes[kRight]);
  RLBENCH_GAUGE_OBSERVE("columnar/vocab_size", vocab_.size());
  RLBENCH_COUNTER_ADD("columnar/token_ids", sides_[kLeft].ids_all.size() +
                                                sides_[kRight].ids_all.size());
}

void ColumnarStore::TokenizeSide(size_t side, RecordHashes* hashes) {
  RLBENCH_TRACE_SPAN("data/columnar/tokenize");
  const Table& table = *tables_[side];
  SideColumns& c = sides_[side];
  size_t n = table.size();
  size_t attrs = num_attrs_;
  c.records = n;

  // Sizing pass over the raw values; the token counts and set sizes are
  // written below at slot + 1 by the record that owns the slot and
  // prefix-summed afterwards, so every fill writes disjoint, pre-addressed
  // slices (bit-identical at any thread count).
  std::vector<size_t> lowered_off(n * attrs + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t a = 0; a < attrs; ++a) {
      size_t slot = r * attrs + a;
      lowered_off[slot + 1] =
          lowered_off[slot] + table.record(r).values[a].size();
    }
  }
  c.lowered_chars.resize(lowered_off[n * attrs]);
  c.lowered_views.resize(n * attrs);
  c.values.resize(n * attrs);
  c.numeric_ok.assign(n * attrs, 0);
  c.numeric_val.assign(n * attrs, 0.0);
  c.ids_all_off.assign(n + 1, 0);
  c.ids_attr_off.assign(n * attrs + 1, 0);
  c.token_seq_off.assign(n * attrs + 1, 0);
  hashes->assign(n, {});

  FillRecords(n, [&](size_t r) {
    std::vector<uint64_t>& record_hashes = (*hashes)[r];
    for (size_t a = 0; a < attrs; ++a) {
      size_t slot = r * attrs + a;
      const std::string& value = table.record(r).values[a];
      c.values[slot] = value;
      char* lowered = c.lowered_chars.data() + lowered_off[slot];
      std::transform(value.begin(), value.end(), lowered, [](char ch) {
        return static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      });
      c.lowered_views[slot] = std::string_view(lowered, value.size());
      double parsed = 0.0;
      if (text::kernels::ParseNumeric(value, &parsed)) {
        c.numeric_ok[slot] = 1;
        c.numeric_val[slot] = parsed;
      }
      size_t set_begin = record_hashes.size();
      size_t tokens = 0;
      ForEachToken(c.lowered_views[slot], [&](std::string_view token) {
        record_hashes.push_back(Fnv1a64(token));
        ++tokens;
      });
      SortUnique(&record_hashes, set_begin);
      c.token_seq_off[slot + 1] = tokens;
      c.ids_attr_off[slot + 1] = record_hashes.size() - set_begin;
    }
    // The union of the attribute sets is the set of all tokens.
    size_t attr_sets = record_hashes.size();
    record_hashes.reserve(2 * attr_sets);
    for (size_t i = 0; i < attr_sets; ++i) {
      record_hashes.push_back(record_hashes[i]);
    }
    SortUnique(&record_hashes, attr_sets);
    c.ids_all_off[r + 1] = record_hashes.size() - attr_sets;
  });
  PrefixSum(&c.ids_all_off);
  PrefixSum(&c.ids_attr_off);
  PrefixSum(&c.token_seq_off);
}

void ColumnarStore::BuildVocab(const std::array<RecordHashes, 2>& hashes) {
  RLBENCH_TRACE_SPAN("data/columnar/vocab");
  vocab_.reserve(sides_[kLeft].ids_all_off.back() +
                 sides_[kRight].ids_all_off.back());
  for (size_t side : {kLeft, kRight}) {
    const SideColumns& c = sides_[side];
    for (size_t r = 0; r < c.records; ++r) {
      // The all-attributes set closes the record's buffer.
      size_t all = c.ids_all_off[r + 1] - c.ids_all_off[r];
      const std::vector<uint64_t>& record_hashes = hashes[side][r];
      vocab_.insert(vocab_.end(),
                    record_hashes.end() - static_cast<std::ptrdiff_t>(all),
                    record_hashes.end());
    }
  }
  std::sort(vocab_.begin(), vocab_.end());
  vocab_.erase(std::unique(vocab_.begin(), vocab_.end()), vocab_.end());
  // Rank interning requires ids to fit uint32; a vocabulary past 4B unique
  // tokens is far outside any benchmark in this repo.
  RLBENCH_CHECK_LT(vocab_.size(), size_t{UINT32_MAX});
}

uint32_t ColumnarStore::IdOfHash(uint64_t hash) const {
  auto it = std::lower_bound(vocab_.begin(), vocab_.end(), hash);
  if (it == vocab_.end() || *it != hash) {
    return static_cast<uint32_t>(vocab_.size());
  }
  return static_cast<uint32_t>(it - vocab_.begin());
}

void ColumnarStore::FillTokenColumns(size_t side, RecordHashes* hashes) {
  RLBENCH_TRACE_SPAN("data/columnar/token_columns");
  SideColumns& c = sides_[side];
  size_t n = c.records;
  size_t attrs = num_attrs_;
  c.ids_all.resize(c.ids_all_off[n]);
  c.ids_attr.resize(c.ids_attr_off[n * attrs]);
  c.token_views.resize(c.token_seq_off[n * attrs]);

  FillRecords(n, [&](size_t r) {
    std::span<const uint64_t> record_hashes((*hashes)[r]);
    size_t pos = 0;
    for (size_t a = 0; a < attrs; ++a) {
      size_t slot = r * attrs + a;
      size_t set_size = c.ids_attr_off[slot + 1] - c.ids_attr_off[slot];
      MapHashesToIds(record_hashes.subspan(pos, set_size), vocab_,
                     c.ids_attr.data() + c.ids_attr_off[slot]);
      pos += set_size;
      std::string_view* view = c.token_views.data() + c.token_seq_off[slot];
      ForEachToken(c.lowered_views[slot],
                   [&](std::string_view token) { *view++ = token; });
    }
    MapHashesToIds(record_hashes.subspan(pos), vocab_,
                   c.ids_all.data() + c.ids_all_off[r]);
    std::vector<uint64_t>().swap((*hashes)[r]);
  });
}

void ColumnarStore::EnsureQGrams() const {
  std::call_once(qgrams_once_, [this] {
    RLBENCH_TRACE_SPAN("data/columnar/qgrams");
    BuildQGramColumns(kLeft);
    BuildQGramColumns(kRight);
    qgrams_built_ = true;
    RLBENCH_COUNTER_ADD("columnar/qgram_hashes",
                        sides_[kLeft].qgram_all.size() +
                            sides_[kRight].qgram_all.size());
  });
}

void ColumnarStore::BuildQGramColumns(size_t side) const {
  const Table& table = *tables_[side];
  SideColumns& c = sides_[side];
  size_t n = c.records;
  size_t attrs = num_attrs_;

  // Each record computes its sets into a buffer it owns, laid out in slot
  // order — [all-text sets for q = kMinQ..kMaxQ | attr 0 sets | ...] — and
  // records their sizes at slot + 1 for the serial prefix sum.
  std::vector<std::vector<uint64_t>> grams(n);
  c.qgram_all_off.assign(n * kNumQ + 1, 0);
  c.qgram_attr_off.assign(n * attrs * kNumQ + 1, 0);
  FillRecords(n, [&](size_t r) {
    const Record& row = table.record(r);
    std::vector<uint64_t>& buffer = grams[r];
    auto append = [&buffer](std::string_view text, int q) {
      text::TokenSet set = text::QGramSet(text.substr(0, kQGramCharCap), q);
      buffer.insert(buffer.end(), set.hashes().begin(), set.hashes().end());
      return set.size();
    };
    std::string all_text = row.ConcatenatedValues();
    for (int q = kMinQ; q <= kMaxQ; ++q) {
      c.qgram_all_off[r * kNumQ + static_cast<size_t>(q - kMinQ) + 1] =
          append(all_text, q);
    }
    for (size_t a = 0; a < attrs; ++a) {
      for (int q = kMinQ; q <= kMaxQ; ++q) {
        size_t slot = (r * attrs + a) * kNumQ + static_cast<size_t>(q - kMinQ);
        c.qgram_attr_off[slot + 1] = append(row.values[a], q);
      }
    }
  });
  PrefixSum(&c.qgram_all_off);
  PrefixSum(&c.qgram_attr_off);

  c.qgram_all.resize(c.qgram_all_off[n * kNumQ]);
  c.qgram_attr.resize(c.qgram_attr_off[n * attrs * kNumQ]);
  FillRecords(n, [&](size_t r) {
    const std::vector<uint64_t>& buffer = grams[r];
    size_t all_begin = c.qgram_all_off[r * kNumQ];
    size_t all = c.qgram_all_off[(r + 1) * kNumQ] - all_begin;
    std::copy(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(all),
              c.qgram_all.begin() + static_cast<std::ptrdiff_t>(all_begin));
    std::copy(buffer.begin() + static_cast<std::ptrdiff_t>(all), buffer.end(),
              c.qgram_attr.begin() + static_cast<std::ptrdiff_t>(
                                         c.qgram_attr_off[r * attrs * kNumQ]));
    std::vector<uint64_t>().swap(grams[r]);
  });
}

}  // namespace rlbench::data
