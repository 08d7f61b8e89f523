#include "bulk/resolver.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "data/columnar.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "text/kernels.h"
#include "text/tokenizer.h"

namespace rlbench::bulk {

namespace {

/// Records generated per streaming wave: the wave is the unit of bounded
/// memory AND of parallelism (a ParallelFor fills per-position slots, then
/// a serial pass appends them in position order, so the spill sequence is
/// one fixed stream at any thread count).
constexpr size_t kWaveRecords = 8192;
constexpr size_t kWaveGrain = 64;

/// Candidate pairs scored per batch-kernel call (one ParallelFor chunk).
constexpr size_t kScoreGrain = 512;

std::string ShardTag(size_t shard) {
  std::string tag = std::to_string(shard);
  if (tag.size() < 2) tag.insert(tag.begin(), '0');
  return tag;
}

Status ParseBucketKey(std::string_view key, uint64_t* out) {
  const char* begin = key.data();
  const char* end = begin + key.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || ptr != end || key.empty()) {
    return Status::InvalidArgument("bulk: malformed bucket key '" +
                                   std::string(key) + "'");
  }
  return Status::OK();
}

/// Smallest band-bucket key present in both arrays; the bucket with that
/// key owns the pair. UINT64_MAX when disjoint (cannot happen for two
/// members of one bucket). Arrays are band-count sized, so O(bands^2) is
/// cheaper than sorting copies.
uint64_t MinSharedKey(const std::vector<uint64_t>& a,
                      const std::vector<uint64_t>& b) {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (uint64_t x : a) {
    if (x >= best) continue;
    for (uint64_t y : b) {
      if (x == y) {
        best = x;
        break;
      }
    }
  }
  return best;
}

/// Streams one side of the source through `build` in bounded waves,
/// appending the produced entries to the writer in position order.
/// `build(position, record)` returns the (shard, entry) list the record
/// spills to — one entry for key-range partitioning, one per band for
/// bucket partitioning.
template <typename BuildFn>
void StreamSideToWriter(const datagen::BulkSourceGenerator& source,
                        size_t side, const BuildFn& build, ShardWriter* writer,
                        uint64_t* bytes_streamed) {
  uint64_t total = source.size(side);
  std::vector<std::vector<std::pair<size_t, SpillEntry>>> slots;
  std::vector<uint64_t> bytes;
  for (uint64_t wave = 0; wave < total; wave += kWaveRecords) {
    uint64_t end = std::min<uint64_t>(wave + kWaveRecords, total);
    size_t n = static_cast<size_t>(end - wave);
    slots.assign(n, {});
    bytes.assign(n, 0);
    ParallelFor(0, n, kWaveGrain, [&](size_t i) {
      data::Record record = source.RecordAt(side, wave + i);
      uint64_t b = record.id.size();
      for (const std::string& value : record.values) b += value.size();
      bytes[i] = b;
      slots[i] = build(wave + i, std::move(record));
    });
    for (size_t i = 0; i < n; ++i) {
      *bytes_streamed += bytes[i];
      for (auto& [shard, entry] : slots[i]) {
        writer->Append(shard, std::move(entry));
      }
    }
    RLBENCH_COUNTER_ADD("bulk/records_streamed", n);
  }
}

/// K-way merge over sorted run files: emits every entry in SpillEntryLess
/// order. The order is strict ((side, position) is unique per entry), so
/// the merged sequence is a single well-defined stream. Read or decode
/// failures abort the merge — the runs are the only copy of the data, so
/// this is an infrastructure failure, not a per-shard one.
Status MergeSortedRunFiles(
    const std::vector<std::string>& files,
    const std::function<void(SpillEntry)>& emit) {
  std::vector<ShardReader> readers;
  readers.reserve(files.size());
  for (const std::string& file : files) {
    readers.emplace_back(std::vector<std::string>{file});
  }
  std::vector<SpillEntry> heads(files.size());
  auto greater = [&heads](size_t a, size_t b) {
    return SpillEntryLess(heads[b], heads[a]);
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(greater)> queue(
      greater);
  for (size_t r = 0; r < readers.size(); ++r) {
    bool done = false;
    RLBENCH_RETURN_NOT_OK(readers[r].Next(&heads[r], &done));
    if (!done) queue.push(r);
  }
  while (!queue.empty()) {
    size_t r = queue.top();
    queue.pop();
    emit(std::move(heads[r]));
    bool done = false;
    RLBENCH_RETURN_NOT_OK(readers[r].Next(&heads[r], &done));
    if (!done) queue.push(r);
  }
  return Status::OK();
}

/// Accumulates the merged key-range stream into per-shard part files.
/// Parts cap at max(1 MiB, budget / (2 * shards)) so re-reading a shard
/// streams through bounded buffers. A part-write failure poisons only the
/// owning shard; the merge keeps feeding the others.
class SnChunkSink {
 public:
  SnChunkSink(std::string dir, std::string stem, size_t num_shards,
              size_t part_cap)
      : dir_(std::move(dir)),
        stem_(std::move(stem)),
        part_cap_(part_cap),
        chunks_(num_shards) {}

  void Add(size_t shard, SpillEntry entry, bool context) {
    Chunk& c = chunks_[shard];
    if (!c.status.ok()) return;
    entry.context = context;
    c.buffer += EncodeSpillEntry(entry);
    c.buffer += '\n';
    if (c.buffer.size() >= part_cap_) Flush(shard);
  }

  void Flush(size_t shard) {
    Chunk& c = chunks_[shard];
    if (c.buffer.empty() || !c.status.ok()) return;
    std::string path = dir_ + "/" + stem_ + "_shard" + std::to_string(shard) +
                       "_part" + std::to_string(c.parts) + ".spill";
    ++c.parts;
    size_t bytes = c.buffer.size();
    Status write = data::FileSource::WriteAtomic(path, c.buffer);
    c.buffer.clear();
    if (!write.ok()) {
      c.status = write;
      RLBENCH_COUNTER_INC("bulk/part_write_failures");
      return;
    }
    part_bytes_ += bytes;
    c.files.push_back(std::move(path));
  }

  void FlushAll() {
    for (size_t shard = 0; shard < chunks_.size(); ++shard) Flush(shard);
  }

  std::vector<std::string>& files(size_t shard) {
    return chunks_[shard].files;
  }
  const Status& status(size_t shard) const { return chunks_[shard].status; }
  uint64_t part_bytes() const { return part_bytes_; }

 private:
  struct Chunk {
    std::string buffer;
    int parts = 0;
    std::vector<std::string> files;
    Status status;
  };

  std::string dir_;
  std::string stem_;
  size_t part_cap_;
  uint64_t part_bytes_ = 0;
  std::vector<Chunk> chunks_;
};

/// Splits the merged key-range stream into `num_shards` contiguous chunks
/// (entry-count balanced), each prefixed by the previous window-1 entries
/// flagged as context. A window pair is generated by the chunk owning its
/// later entry, so every global pair lands in exactly one chunk.
Status BuildSnChunks(const std::vector<std::string>& run_files,
                     uint64_t total_entries, size_t window, size_t num_shards,
                     SnChunkSink* sink) {
  size_t context_len = window > 0 ? window - 1 : 0;
  std::deque<SpillEntry> tail;
  uint64_t g = 0;
  size_t cur = 0;
  auto bound = [&](size_t s) { return total_entries * s / num_shards; };
  Status merged = MergeSortedRunFiles(run_files, [&](SpillEntry entry) {
    while (cur + 1 < num_shards && g >= bound(cur + 1)) {
      ++cur;
      for (const SpillEntry& t : tail) sink->Add(cur, t, /*context=*/true);
    }
    tail.push_back(entry);
    if (tail.size() > context_len) tail.pop_front();
    sink->Add(cur, std::move(entry), /*context=*/false);
    ++g;
  });
  RLBENCH_RETURN_NOT_OK(merged);
  sink->FlushAll();
  return Status::OK();
}

/// Key-range candidates: slide the window over the chunk's merged order;
/// a pair is generated at its later entry, which must be owned (context
/// prefixes provide neighbours only). Each record occurs once in the
/// order, so no pair can arise twice.
void SnCandidates(const std::vector<SpillEntry>& entries, size_t window,
                  std::vector<std::pair<size_t, size_t>>* pairs) {
  for (size_t j = 0; j < entries.size(); ++j) {
    if (entries[j].context) continue;
    size_t lo = j >= window ? j - window + 1 : 0;
    for (size_t i = lo; i < j; ++i) {
      if (entries[i].side == entries[j].side) continue;
      size_t d1 = entries[i].side == 0 ? i : j;
      size_t d2 = entries[i].side == 0 ? j : i;
      pairs->emplace_back(d1, d2);
    }
  }
}

/// Band-bucket candidates. Every entry of a bucket lives in this shard, so
/// the decisions are purely local: skip the bucket when its d2 membership
/// (with multiplicity, like the in-memory index) exceeds the stop-bucket
/// cap, and emit a pair only from the bucket of its minimal shared key —
/// the rule that makes the global pair set independent of sharding. With
/// the cap effectively off, the pair set equals "records sharing at least
/// one band key", the in-memory candidate set.
Status MinHashCandidates(const std::vector<SpillEntry>& entries,
                         size_t max_bucket_size,
                         std::vector<std::pair<size_t, size_t>>* pairs) {
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (size_t i = 0; i < entries.size(); ++i) {
    uint64_t key = 0;
    RLBENCH_RETURN_NOT_OK(ParseBucketKey(entries[i].key, &key));
    buckets[key].push_back(i);
  }
  std::unordered_set<uint64_t> seen;
  for (const auto& [key, members] : buckets) {
    size_t d2_count = 0;
    for (size_t idx : members) {
      if (entries[idx].side == 1) ++d2_count;
    }
    if (d2_count > max_bucket_size) {
      RLBENCH_COUNTER_INC("bulk/stop_buckets");
      continue;
    }
    for (size_t i : members) {
      if (entries[i].side != 0) continue;
      for (size_t j : members) {
        if (entries[j].side != 1) continue;
        if (MinSharedKey(entries[i].band_keys, entries[j].band_keys) != key) {
          continue;
        }
        uint64_t pair_key =
            (entries[i].position << 32) | entries[j].position;
        if (seen.insert(pair_key).second) pairs->emplace_back(i, j);
      }
    }
  }
  return Status::OK();
}

/// Scores candidate pairs: build per-side mini tables of the involved
/// records (rows in ascending position order), intern their tokens in the
/// columnar store, and run the batched Jaccard kernel over disjoint score
/// slots. Rank interning is a monotone bijection on the token hashes, so
/// each score is bit-identical no matter which other records share the
/// shard — the keystone of the cross-shard byte-identity contract.
void ScorePairs(const datagen::BulkSourceGenerator& source,
                const BulkOptions& options,
                const std::vector<SpillEntry>& entries,
                const std::vector<std::pair<size_t, size_t>>& pairs,
                std::vector<MatchedPair>* matches, uint64_t* matched) {
  std::array<std::vector<uint64_t>, 2> positions;
  std::array<std::unordered_map<uint64_t, size_t>, 2> entry_of;
  for (const auto& [a, b] : pairs) {
    positions[0].push_back(entries[a].position);
    positions[1].push_back(entries[b].position);
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    entry_of[entries[i].side].emplace(entries[i].position, i);
  }
  std::array<std::unordered_map<uint64_t, size_t>, 2> row_of;
  std::array<data::Table, 2> tables = {
      data::Table(source.spec().d1_name, source.schema()),
      data::Table(source.spec().d2_name, source.schema())};
  for (size_t side = 0; side < 2; ++side) {
    std::vector<uint64_t>& pos = positions[side];
    std::sort(pos.begin(), pos.end());
    pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
    tables[side].Reserve(pos.size());
    const std::string& name =
        side == 0 ? source.spec().d1_name : source.spec().d2_name;
    for (uint64_t p : pos) {
      row_of[side].emplace(p, tables[side].size());
      data::Record record;
      record.id = name + std::to_string(p);
      record.values = entries[entry_of[side].at(p)].values;
      tables[side].Add(std::move(record));
    }
  }

  data::ColumnarStore store(tables[0], tables[1]);

  size_t n = pairs.size();
  std::vector<text::kernels::U32SetPair> set_pairs(n);
  std::vector<double> scores(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    auto a = store.TokenIdsAll(data::ColumnarStore::kLeft,
                               row_of[0].at(entries[pairs[i].first].position));
    auto b = store.TokenIdsAll(
        data::ColumnarStore::kRight,
        row_of[1].at(entries[pairs[i].second].position));
    set_pairs[i] = {a.data(), b.data(), static_cast<uint32_t>(a.size()),
                    static_cast<uint32_t>(b.size())};
  }
  size_t batches = (n + kScoreGrain - 1) / kScoreGrain;
  ParallelFor(0, batches, 1, [&](size_t batch) {
    size_t first = batch * kScoreGrain;
    size_t last = std::min(n, first + kScoreGrain);
    text::kernels::JaccardSortedU32Batch(set_pairs.data() + first,
                                         last - first, scores.data() + first);
  });

  for (size_t i = 0; i < n; ++i) {
    if (scores[i] < options.threshold) continue;
    matches->push_back({entries[pairs[i].first].position,
                        entries[pairs[i].second].position, scores[i]});
    ++*matched;
  }
}

/// Runs one shard end to end (read -> candidates -> score), recording the
/// phases in the shard's run manifest when manifests are enabled. Any
/// failure stops the shard, marks the failing phase, and leaves the other
/// shards untouched.
void ProcessShard(const datagen::BulkSourceGenerator& source,
                  const BulkOptions& options, size_t shard, size_t num_shards,
                  const std::vector<std::string>& files,
                  const Status& pre_status, ShardOutcome* outcome,
                  std::vector<MatchedPair>* matches) {
  outcome->shard = shard;
  std::unique_ptr<obs::RunManifest> manifest;
  if (!options.manifest_dir.empty()) {
    manifest = std::make_unique<obs::RunManifest>(options.manifest_stem +
                                                  "_shard" + ShardTag(shard));
    manifest->set_threads(ParallelThreadCount());
    manifest->set_hardware_concurrency(std::thread::hardware_concurrency());
    manifest->set_seed(
        SplitSeed(source.spec().seed, static_cast<uint64_t>(shard)));
    manifest->AddDataset(source.spec().id);
    manifest->AddConfig("mode", std::string(BulkModeName(options.mode)));
    manifest->AddConfig("shard", static_cast<int64_t>(shard));
    manifest->AddConfig("shards", static_cast<int64_t>(num_shards));
  }

  Status status = pre_status;
  std::vector<SpillEntry> entries;
  if (manifest) manifest->BeginPhase("read");
  if (status.ok()) {
    ShardReader reader(files);
    while (true) {
      SpillEntry entry;
      bool done = false;
      Status next = reader.Next(&entry, &done);
      if (!next.ok()) {
        status = next;
        break;
      }
      if (done) break;
      entries.push_back(std::move(entry));
    }
  }
  if (manifest) {
    if (!status.ok()) manifest->FailPhase(status.message());
    manifest->EndPhase();
  }
  outcome->entries = entries.size();

  std::vector<std::pair<size_t, size_t>> pairs;
  if (status.ok()) {
    if (manifest) manifest->BeginPhase("candidates");
    if (options.mode == BulkMode::kSortedNeighborhood) {
      SnCandidates(entries, std::max<size_t>(1, options.sn.window), &pairs);
    } else {
      status = MinHashCandidates(entries, options.minhash.max_bucket_size,
                                 &pairs);
    }
    if (manifest) {
      if (!status.ok()) manifest->FailPhase(status.message());
      manifest->EndPhase();
    }
  }
  outcome->candidates = pairs.size();
  RLBENCH_COUNTER_ADD("bulk/candidates", pairs.size());

  if (status.ok()) {
    if (manifest) manifest->BeginPhase("score");
    if (!pairs.empty()) {
      ScorePairs(source, options, entries, pairs, matches,
                 &outcome->matched);
    }
    if (manifest) manifest->EndPhase();
  }
  RLBENCH_COUNTER_ADD("bulk/matched", outcome->matched);
  outcome->status = status;

  if (manifest) {
    manifest->set_peak_rss_bytes(obs::PeakRssBytes());
    manifest->Finalize();
    std::string path = options.manifest_dir + "/" + options.manifest_stem +
                       ".shard_" + ShardTag(shard) + ".manifest.json";
    Status write = data::FileSource::WriteAtomic(path, manifest->ToJson());
    if (write.ok()) {
      outcome->manifest_path = std::move(path);
    } else if (outcome->status.ok()) {
      outcome->status = write;
    }
  }
}

}  // namespace

const char* BulkModeName(BulkMode mode) {
  switch (mode) {
    case BulkMode::kSortedNeighborhood:
      return "sn";
    case BulkMode::kMinHash:
      return "minhash";
  }
  return "unknown";
}

std::string SortedNeighborhoodKey(const data::Record& record,
                                  size_t key_tokens) {
  auto tokens = text::Tokenize(record.ConcatenatedValues());
  std::sort(tokens.begin(), tokens.end());
  tokens.resize(std::min(tokens.size(), key_tokens));
  return Join(tokens, " ");
}

std::vector<uint64_t> BandKeysOf(const data::Record& record,
                                 const block::MinHashOptions& options) {
  size_t bands = std::max<size_t>(1, options.bands);
  size_t rows = std::max<size_t>(1, options.num_hashes / bands);
  auto signature = block::MinHashSignature(
      text::TokenSet::FromText(record.ConcatenatedValues()), bands * rows,
      options.seed);
  std::vector<uint64_t> keys(bands);
  for (size_t b = 0; b < bands; ++b) {
    uint64_t key = 0xCBF29CE484222325ULL ^ (b + 1);
    for (size_t r = 0; r < rows; ++r) {
      key = SplitMix64(key ^ signature[b * rows + r]);
    }
    keys[b] = key;
  }
  return keys;
}

std::string SerializeMatches(const std::vector<MatchedPair>& matches) {
  std::string out = "left,right,score\n";
  for (const MatchedPair& match : matches) {
    out += std::to_string(match.left);
    out += ',';
    out += std::to_string(match.right);
    out += ',';
    out += FormatDouble(match.score, 17);
    out += '\n';
  }
  return out;
}

Result<BulkResult> BulkResolve(const datagen::BulkSourceGenerator& source,
                               const BulkOptions& options) {
  RLBENCH_TRACE_SPAN("bulk/resolve");
  if (options.spill_dir.empty()) {
    return Status::InvalidArgument("bulk: spill_dir is required");
  }
  constexpr uint64_t kMaxSide = std::numeric_limits<uint32_t>::max();
  if (source.size(0) > kMaxSide || source.size(1) > kMaxSide) {
    return Status::InvalidArgument("bulk: side exceeds uint32 positions");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.spill_dir, ec);
  if (ec) {
    return Status::IOError("bulk: cannot create spill dir '" +
                           options.spill_dir + "': " + ec.message());
  }
  if (!options.manifest_dir.empty()) {
    std::filesystem::create_directories(options.manifest_dir, ec);
    if (ec) {
      return Status::IOError("bulk: cannot create manifest dir '" +
                             options.manifest_dir + "': " + ec.message());
    }
  }

  size_t num_shards = std::max<size_t>(1, options.shards);
  BulkResult result;
  result.records_streamed = source.size(0) + source.size(1);

  std::vector<std::vector<std::string>> shard_files(num_shards);
  std::vector<Status> pre_status(num_shards);

  if (options.mode == BulkMode::kSortedNeighborhood) {
    // Phase 1: spill sorted runs of the one global key order.
    size_t key_tokens = options.sn.key_tokens;
    ShardWriter writer(options.spill_dir, "bulk_sn", 1,
                       options.memory_budget_bytes, /*sorted_runs=*/true);
    for (size_t side = 0; side < 2; ++side) {
      StreamSideToWriter(
          source, side,
          [&](uint64_t position, data::Record record) {
            SpillEntry entry;
            entry.key = SortedNeighborhoodKey(record, key_tokens);
            entry.side = static_cast<uint8_t>(side);
            entry.position = position;
            entry.values = std::move(record.values);
            std::vector<std::pair<size_t, SpillEntry>> out;
            out.emplace_back(0, std::move(entry));
            return out;
          },
          &writer, &result.bytes_streamed);
    }
    writer.Finish();
    result.spilled_bytes += writer.spilled_bytes();
    // The runs are the only copy of the stream; losing one loses data for
    // every downstream shard, so this failure is fatal to the run.
    RLBENCH_RETURN_NOT_OK(writer.shard_status(0));

    // Phase 2: merge the runs and slice the order into context-prefixed
    // chunk part files, one chunk per shard.
    size_t part_cap = std::max<size_t>(
        1u << 20, options.memory_budget_bytes / (2 * num_shards));
    SnChunkSink sink(options.spill_dir, "bulk_sn", num_shards, part_cap);
    RLBENCH_RETURN_NOT_OK(BuildSnChunks(
        writer.shard_files(0), writer.total_entries(),
        std::max<size_t>(1, options.sn.window), num_shards, &sink));
    for (size_t s = 0; s < num_shards; ++s) {
      shard_files[s] = std::move(sink.files(s));
      pre_status[s] = sink.status(s);
    }
    result.spilled_bytes += sink.part_bytes();
    // The merged chunks supersede the runs; drop them before the scoring
    // phase so peak disk stays near one copy of the spill.
    for (const std::string& run : writer.shard_files(0)) {
      std::filesystem::remove(run, ec);
    }
  } else {
    // Band-bucket mode partitions by bucket key, so a bucket (and every
    // decision about it) lives wholly inside one shard.
    ShardWriter writer(options.spill_dir, "bulk_mh", num_shards,
                       options.memory_budget_bytes, /*sorted_runs=*/false);
    for (size_t side = 0; side < 2; ++side) {
      StreamSideToWriter(
          source, side,
          [&](uint64_t position, data::Record record) {
            std::vector<uint64_t> keys = BandKeysOf(record, options.minhash);
            std::vector<std::pair<size_t, SpillEntry>> out;
            out.reserve(keys.size());
            for (uint64_t key : keys) {
              SpillEntry entry;
              entry.key = std::to_string(key);
              entry.side = static_cast<uint8_t>(side);
              entry.position = position;
              entry.band_keys = keys;
              entry.values = record.values;
              out.emplace_back(
                  static_cast<size_t>(SplitMix64(key) % num_shards),
                  std::move(entry));
            }
            return out;
          },
          &writer, &result.bytes_streamed);
    }
    writer.Finish();
    result.spilled_bytes += writer.spilled_bytes();
    for (size_t s = 0; s < num_shards; ++s) {
      shard_files[s] = writer.shard_files(s);
      pre_status[s] = writer.shard_status(s);
    }
  }

  // Phase 3: resolve each shard independently; failures degrade per shard.
  for (size_t s = 0; s < num_shards; ++s) {
    ShardOutcome outcome;
    ProcessShard(source, options, s, num_shards, shard_files[s],
                 pre_status[s], &outcome, &result.matches);
    result.candidate_pairs += outcome.candidates;
    if (!outcome.status.ok()) {
      ++result.shards_failed;
      RLBENCH_COUNTER_INC("bulk/shards_failed");
    }
    result.shards.push_back(std::move(outcome));
    for (const std::string& file : shard_files[s]) {
      std::filesystem::remove(file, ec);
    }
  }
  if (result.shards_failed == num_shards) {
    for (const ShardOutcome& outcome : result.shards) {
      if (!outcome.status.ok()) {
        return Status::Internal("bulk: all shards failed; first: " +
                                outcome.status.message());
      }
    }
  }

  std::sort(result.matches.begin(), result.matches.end(),
            [](const MatchedPair& a, const MatchedPair& b) {
              if (a.left != b.left) return a.left < b.left;
              return a.right < b.right;
            });
  if (!options.output_path.empty()) {
    RLBENCH_RETURN_NOT_OK(data::FileSource::WriteAtomic(
        options.output_path, SerializeMatches(result.matches)));
    result.output_path = options.output_path;
  }
  return result;
}

}  // namespace rlbench::bulk
