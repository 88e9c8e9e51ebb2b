#include "engine/hybrid_engine.h"

#include <algorithm>
#include <cmath>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <utility>

#include "obs/span.h"
#include "obs/stats.h"
#include "util/math.h"
#include "util/simd.h"
#include "util/stopwatch.h"

namespace abitmap {
namespace engine {

HybridEngine HybridEngine::Build(Table table, const Options& options) {
  AB_CHECK(options.backend == "auto" || options.backend.empty() ||
           options.backend == "roaring");
  HybridEngine engine(std::move(table), options);
  // The pool is created before the index so construction itself runs
  // through it: attributes slice in parallel on the same workers that
  // later serve queries. The parallel build is bit-identical to the
  // serial one, so a 1-thread engine and an N-thread engine hold the same
  // index.
  int threads = options.num_threads == 0 ? util::DefaultThreadCount()
                                         : options.num_threads;
  if (threads > 1) {
    engine.pool_ = std::make_shared<util::ThreadPool>(threads);
  }
  engine.index_ = std::make_unique<SlicedIndex>(
      SlicedIndex::Build(engine.table_, options.binning, engine.pool_.get()));
#if defined(__GLIBC__)
  // The build's transient buffers (the binning sorts) were freed inside
  // the heap, where glibc keeps their pages resident; return them, so a
  // server's RSS is its live index.
  malloc_trim(0);
#endif
  engine.ingest_ = std::make_unique<IngestState>(engine.table_.num_rows());
  return engine;
}

HybridEngine::IngestState::IngestState(uint64_t base_rows)
    : chunks(new std::atomic<Chunk*>[kMaxChunks]()),
      tombstone_chunks(util::CeilDiv(base_rows, kChunkRows) + kMaxChunks) {
  tombstones.reset(
      new std::atomic<std::atomic<uint64_t>*>[tombstone_chunks]());
}

HybridEngine::IngestState::~IngestState() {
  for (uint64_t c = 0; c < chunks_allocated; ++c) {
    delete chunks[c].load(std::memory_order_relaxed);
  }
  for (uint64_t c = 0; c < tombstone_chunks; ++c) {
    delete[] tombstones[c].load(std::memory_order_relaxed);
  }
}

bool HybridEngine::HasMutations() const {
  return ingest_ != nullptr &&
         (ingest_->committed.load(std::memory_order_acquire) > 0 ||
          ingest_->base_deletes.load(std::memory_order_acquire) > 0);
}

uint64_t HybridEngine::TotalRows() const {
  uint64_t delta =
      ingest_ ? ingest_->committed.load(std::memory_order_acquire) : 0;
  return table_.num_rows() + delta;
}

uint64_t HybridEngine::IngestRow(const std::vector<double>& values) {
  AB_SPAN("engine/ingest");
  AB_CHECK(ingest_ != nullptr);
  const uint32_t cols = static_cast<uint32_t>(table_.num_columns());
  AB_CHECK_EQ(values.size(), cols);
  std::lock_guard<std::mutex> lock(ingest_->mu);
  const uint64_t local = ingest_->committed.load(std::memory_order_relaxed);
  AB_CHECK_LT(local, IngestState::kChunkRows * IngestState::kMaxChunks);
  // Values and bins first: plain stores into a chunk no reader can touch
  // until `committed` advances past the row (release, below).
  const uint64_t c = local / IngestState::kChunkRows;
  IngestState::Chunk* chunk =
      ingest_->chunks[c].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new IngestState::Chunk(cols);
    ingest_->chunks[c].store(chunk, std::memory_order_relaxed);
    ingest_->chunks_allocated = c + 1;
  }
  const size_t at = (local % IngestState::kChunkRows) * cols;
  for (uint32_t a = 0; a < cols; ++a) {
    AB_CHECK(!std::isnan(values[a]));
    chunk->values[at + a] = values[a];
    chunk->bins[at + a] = index_->binner(a).BinOf(values[a]);
  }
  ingest_->committed.store(local + 1, std::memory_order_release);
  AB_STATS_INC(obs::Counter::kEngineIngestRows);
  return table_.num_rows() + local;
}

bool HybridEngine::DeleteRow(uint64_t row) {
  AB_CHECK(ingest_ != nullptr);
  const uint64_t base_n = table_.num_rows();
  std::lock_guard<std::mutex> lock(ingest_->mu);
  if (row >= base_n + ingest_->committed.load(std::memory_order_relaxed)) {
    return false;
  }
  std::atomic<std::atomic<uint64_t>*>& slot =
      ingest_->tombstones[row / IngestState::kChunkRows];
  std::atomic<uint64_t>* words = slot.load(std::memory_order_relaxed);
  if (words == nullptr) {
    words = new std::atomic<uint64_t>[IngestState::kChunkRows / 64]();
    slot.store(words, std::memory_order_release);
  }
  std::atomic<uint64_t>& word = words[row % IngestState::kChunkRows / 64];
  const uint64_t bit = uint64_t{1} << (row % 64);
  if (word.load(std::memory_order_relaxed) & bit) return false;
  word.fetch_or(bit, std::memory_order_release);
  (row < base_n ? ingest_->base_deletes : ingest_->delta_deletes)
      .fetch_add(1, std::memory_order_release);
  AB_STATS_INC(obs::Counter::kEngineIngestDeletes);
  return true;
}

uint64_t HybridEngine::TombstoneWord(uint64_t w) const {
  const std::atomic<uint64_t>* words =
      ingest_->tombstones[w / (IngestState::kChunkRows / 64)].load(
          std::memory_order_acquire);
  return words == nullptr
             ? 0
             : words[w % (IngestState::kChunkRows / 64)].load(
                   std::memory_order_acquire);
}

bool HybridEngine::Tombstoned(uint64_t row) const {
  return ((TombstoneWord(row / 64) >> (row % 64)) & 1) != 0;
}

bool HybridEngine::RowLive(uint64_t row) const {
  return row < TotalRows() && (ingest_ == nullptr || !Tombstoned(row));
}

HybridEngine::IngestStats HybridEngine::GetIngestStats() const {
  IngestStats stats;
  if (ingest_ == nullptr) return stats;
  // Deletes before commits: a deleted row was committed first, so the
  // live count cannot go below zero.
  const uint64_t delta_deletes =
      ingest_->delta_deletes.load(std::memory_order_acquire);
  stats.deleted =
      ingest_->base_deletes.load(std::memory_order_relaxed) + delta_deletes;
  stats.ingested = ingest_->committed.load(std::memory_order_acquire);
  stats.delta_live = stats.ingested - delta_deletes;
  return stats;
}

namespace {

/// Rows below which a pooled whole-relation pass costs more than it saves.
constexpr uint64_t kParallelMinRows = 1 << 14;
/// Words per block: 64K rows, so a block's masks (8 KB apiece) are still
/// in cache when the verify and the popcounts read them.
constexpr size_t kBlockWords = 1024;
/// Gathered edge rows between a value's prefetch and its read.
constexpr size_t kPrefetchAhead = 32;

/// Folds the collection outcome into the result, its trace and the engine
/// counters: `kept` of `candidates` rows survived (all of them in
/// approximate mode). In exact mode pruning reveals the truth, so the
/// observed precision (verified / candidates) becomes known: the share of
/// bin candidates that survive the bin-overshoot prune.
void FinalizeVerification(const EngineQuery& query, uint64_t candidates,
                          uint64_t kept, EngineResult* result) {
  result->count = kept;
  result->trace.candidates = candidates;
  if (query.exact) {
    result->trace.verified_matches = kept;
    result->trace.observed_precision =
        candidates == 0 ? 1.0
                        : static_cast<double>(kept) /
                              static_cast<double>(candidates);
#if !defined(AB_DISABLE_STATS)
    obs::internal::ThreadStatsBlock* b = obs::internal::TlsBlock();
    b->Add(obs::Counter::kEngineCandidates, candidates);
    b->Add(obs::Counter::kEngineVerified, kept);
    b->Add(obs::Counter::kEngineFalsePositives, candidates - kept);
#endif
  } else {
    AB_STATS_ADD(obs::Counter::kEngineCandidates, candidates);
  }
}

/// Whether `v` lies in [lo, hi], tested without a branch: `!(v < lo) &
/// !(v > hi)` negates the early-exit test `v < lo || v > hi` exactly, so a
/// NaN value passes. The one definition of "a row passes a predicate".
inline bool InBounds(double v, double lo, double hi) {
  return !(v < lo) & !(v > hi);
}

/// What one collection pass saw: bin-level candidates in, rows kept, raw
/// values read, and the time the raw-value verify took.
struct Tally {
  uint64_t candidates = 0;
  uint64_t kept = 0;
  uint64_t raw_reads = 0;
  uint64_t verify_ns = 0;
};

/// Runs `collect(begin, end, &part)` over the pool's contiguous chunks of
/// [0, n), appends the parts to `row_ids` in chunk order, which is row
/// order, and returns the tallies `collect` returns: counts summed, and
/// the verify time of the slowest chunk, the part of the wall time it
/// accounts for.
template <typename Collect>
Tally CollectChunked(util::ThreadPool* pool, uint64_t n,
                     const Collect& collect, std::vector<uint64_t>* row_ids) {
  std::vector<std::vector<uint64_t>> parts(pool->num_threads());
  std::vector<Tally> tallies(parts.size());
  pool->ParallelFor(0, n, [&](uint64_t begin, uint64_t end, int chunk) {
    tallies[chunk] = collect(begin, end, &parts[chunk]);
  });
  Tally total;
  size_t ids = 0;
  for (size_t c = 0; c < parts.size(); ++c) {
    total.candidates += tallies[c].candidates;
    total.kept += tallies[c].kept;
    total.raw_reads += tallies[c].raw_reads;
    total.verify_ns = std::max(total.verify_ns, tallies[c].verify_ns);
    ids += parts[c].size();
  }
  row_ids->reserve(row_ids->size() + ids);
  for (const std::vector<uint64_t>& part : parts) {
    row_ids->insert(row_ids->end(), part.begin(), part.end());
  }
  return total;
}

/// Appends the set bits of words[0, n), `count` of them, to `row_ids` in
/// ascending order; word i holds rows (first_word + i) * 64 onward.
void AppendSetRows(const uint64_t* words, size_t n, size_t first_word,
                   uint64_t count, std::vector<uint64_t>* row_ids) {
  size_t at = row_ids->size();
  row_ids->resize(at + count);
  uint64_t* out = row_ids->data() + at;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t base = static_cast<uint64_t>(first_word + i) * 64;
    for (uint64_t word = words[i]; word != 0; word &= word - 1) {
      *out++ = base + util::simd::CountTrailingZeros64(word);
    }
  }
}

/// One query's pass over the sliced index. Each predicate becomes the
/// range of fine codes [FineOf(lo), FineOf(hi)]. Sub-bin c holds
/// [F[c-1], F[c]) (FineOf's upper_bound), so every sub-bin strictly
/// inside the range lies within [lo, hi], and an end sub-bin does too
/// when lo <= F[c-1] and F[c] <= hi; the first and last codes are open at
/// their outer end. Rows in the other end sub-bins, the edges, are the
/// only ones whose raw value the verify reads. An approximate query
/// compares the bin bits alone and reads nothing.
class SlicedPass {
 public:
  SlicedPass(const SlicedIndex& index, const Table& table,
             const EngineQuery& query)
      : exact_(query.exact) {
    for (const ValuePredicate& p : query.predicates) {
      AB_CHECK_LT(p.attr, index.num_attributes());
      AB_CHECK_LE(p.lo, p.hi);
      const bitmap::NestedBinner& binner = index.binner(p.attr);
      const std::vector<double>& f = binner.fine_boundaries();
      auto interior = [&](uint32_t c) {
        return c > 0 && c < f.size() && p.lo <= f[c - 1] && f[c] <= p.hi;
      };
      uint32_t lo = binner.FineOf(p.lo);
      uint32_t hi = binner.FineOf(p.hi);
      bool lo_edge = !interior(lo);
      bool hi_edge = !interior(hi);
      scans_.push_back(index.Scan(p.attr, lo, hi, lo_edge, hi_edge));
      if (exact_ && (lo_edge || hi_edge)) {
        checks_.push_back(Check{scans_.size() - 1,
                                table.column(p.attr).data(), p.lo, p.hi});
      }
    }
  }

  /// Per-worker scratch of a pass.
  struct Buffers {
    std::vector<uint64_t> cand;
    std::vector<uint64_t> keep;
    /// Each checked predicate's edge words, one block's apiece.
    std::vector<uint64_t> edges;
    std::vector<uint32_t> gathered;
  };

  /// Compares the slices at n <= kBlockWords words: word i holds rows
  /// word_id(i) * 64 onward, restricted to the bits of rows_mask(i). Leaves
  /// the bin-level candidates in cand[0, n) and, in an exact query, the
  /// verified fine rows in keep[0, n); adds its raw reads and verify time
  /// to `tally`.
  template <typename WordId, typename RowsMask>
  void RunBlock(size_t n, const WordId& word_id, const RowsMask& rows_mask,
                uint64_t* cand, uint64_t* keep, Buffers* buf,
                Tally* tally) const {
    for (size_t i = 0; i < n; ++i) cand[i] = rows_mask(i);
    if (!exact_) {
      for (const SlicedIndex::RangeScan& s : scans_) {
        s.Compare(n, word_id, cand, nullptr, nullptr);
      }
      return;
    }
    std::copy(cand, cand + n, keep);
    buf->edges.resize(checks_.size() * n);
    uint64_t* edges = buf->edges.data();
    for (size_t p = 0, check = 0; p < scans_.size(); ++p) {
      uint64_t* edge = nullptr;
      if (check < checks_.size() && checks_[check].scan == p) {
        edge = edges + check * n;
        ++check;
      }
      scans_[p].Compare(n, word_id, cand, keep, edge);
    }
    if (checks_.empty()) return;
    util::Stopwatch timer;
    for (size_t k = 0; k < checks_.size(); ++k) {
      const Check& check = checks_[k];
      const uint64_t* edge = edges + k * n;
      size_t count = 0;
      for (size_t i = 0; i < n; ++i) {
        count += util::simd::PopCount64(keep[i] & edge[i]);
      }
      if (buf->gathered.size() < count) buf->gathered.resize(count);
      uint32_t* g = buf->gathered.data();
      size_t at = 0;
      for (size_t i = 0; i < n; ++i) {
        for (uint64_t m = keep[i] & edge[i]; m != 0; m &= m - 1) {
          g[at++] = static_cast<uint32_t>(
              i * 64 + util::simd::CountTrailingZeros64(m));
        }
      }
      auto row_of = [&word_id](uint32_t e) {
        return static_cast<uint64_t>(word_id(e / 64)) * 64 + e % 64;
      };
      for (size_t j = 0; j < count; ++j) {
        if (j + kPrefetchAhead < count) {
          __builtin_prefetch(check.values + row_of(g[j + kPrefetchAhead]));
        }
        const uint32_t e = g[j];
        uint64_t fail = !InBounds(check.values[row_of(e)], check.lo, check.hi);
        keep[e / 64] &= ~(fail << (e % 64));
      }
      tally->raw_reads += count;
    }
    tally->verify_ns +=
        static_cast<uint64_t>(timer.ElapsedMicros() * 1000.0);
  }

  /// The whole relation, as words: counts are popcounts, and row ids
  /// (unless count_only) the set bits. `dead(w)` is word w's tombstone
  /// bits, masked out before the compare. With a pool, chunks split the
  /// words, so per-chunk counts sum and the id parts concatenate in row
  /// order.
  template <typename Dead>
  Tally WholeRelation(uint64_t num_rows, bool count_only, const Dead& dead,
                      util::ThreadPool* pool,
                      std::vector<uint64_t>* row_ids) const {
    const size_t num_words = (num_rows + 63) / 64;
    const uint64_t tail = num_rows % 64 == 0
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (num_rows % 64)) - 1;
    auto collect = [&](size_t begin, size_t end,
                       std::vector<uint64_t>* ids) {
      Tally tally;
      Buffers buf;
      buf.cand.resize(kBlockWords);
      buf.keep.resize(kBlockWords);
      for (size_t first = begin; first < end; first += kBlockWords) {
        const size_t n = std::min(kBlockWords, end - first);
        RunBlock(
            n, [first](size_t i) { return first + i; },
            [&](size_t i) {
              return (first + i + 1 == num_words ? tail : ~uint64_t{0}) &
                     ~dead(first + i);
            },
            buf.cand.data(), buf.keep.data(), &buf, &tally);
        const uint64_t candidates =
            util::simd::PopcountWords(buf.cand.data(), n);
        const uint64_t* out = exact_ ? buf.keep.data() : buf.cand.data();
        const uint64_t kept =
            exact_ ? util::simd::PopcountWords(out, n) : candidates;
        tally.candidates += candidates;
        tally.kept += kept;
        if (!count_only) AppendSetRows(out, n, first, kept, ids);
      }
      return tally;
    };
    return pool != nullptr && num_rows >= kParallelMinRows
               ? CollectChunked(pool, num_words, collect, row_ids)
               : collect(0, num_words, row_ids);
  }

  /// A row subset, in request order (rows may be unsorted and repeat):
  /// the rows are grouped by 64-row word, and each word they touch is
  /// compared once, restricted to its requested rows less `dead(w)`, word
  /// w's tombstone bits. Counts are per requested row; raw reads are per
  /// distinct row.
  template <typename Dead>
  Tally Subset(const std::vector<uint64_t>& rows, uint64_t num_rows,
               bool count_only, const Dead& dead,
               std::vector<uint64_t>* row_ids) const {
    // The distinct words, ascending, and each requested row's slot in
    // them.
    std::vector<uint64_t> words;
    bool sorted = true;
    for (uint64_t row : rows) {
      AB_CHECK_LT(row, num_rows);
      const uint64_t w = row / 64;
      if (words.empty() || w != words.back()) {
        sorted = sorted && (words.empty() || w > words.back());
        words.push_back(w);
      }
    }
    if (!sorted) {
      std::sort(words.begin(), words.end());
      words.erase(std::unique(words.begin(), words.end()), words.end());
    }
    std::vector<uint32_t> slot(rows.size());
    std::vector<uint64_t> requested(words.size(), 0);
    size_t at = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const uint64_t w = rows[i] / 64;
      if (words[at] != w) {
        at = sorted ? at + 1
                    : static_cast<size_t>(
                          std::lower_bound(words.begin(), words.end(), w) -
                          words.begin());
      }
      slot[i] = static_cast<uint32_t>(at);
      requested[at] |= uint64_t{1} << (rows[i] % 64);
    }
    for (size_t i = 0; i < words.size(); ++i) requested[i] &= ~dead(words[i]);
    Tally tally;
    Buffers buf;
    std::vector<uint64_t> cand(words.size());
    std::vector<uint64_t> keep(exact_ ? words.size() : 0);
    for (size_t first = 0; first < words.size(); first += kBlockWords) {
      const size_t n = std::min(kBlockWords, words.size() - first);
      RunBlock(
          n, [&](size_t i) { return words[first + i]; },
          [&](size_t i) { return requested[first + i]; },
          cand.data() + first, exact_ ? keep.data() + first : nullptr, &buf,
          &tally);
    }
    const std::vector<uint64_t>& out = exact_ ? keep : cand;
    if (!count_only) row_ids->reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const uint64_t bit = rows[i] % 64;
      tally.candidates += (cand[slot[i]] >> bit) & 1;
      if ((out[slot[i]] >> bit) & 1) {
        ++tally.kept;
        if (!count_only) row_ids->push_back(rows[i]);
      }
    }
    return tally;
  }

 private:
  /// A predicate whose edge rows the verify reads: its scan, raw column
  /// and inclusive bounds.
  struct Check {
    size_t scan;
    const double* values;
    double lo;
    double hi;
  };

  bool exact_;
  std::vector<SlicedIndex::RangeScan> scans_;
  std::vector<Check> checks_;
};

}  // namespace

EngineResult HybridEngine::ExecuteExactImpl(const EngineQuery& query,
                                            bool mask_deleted) const {
  AB_SPAN("engine/exact");
  AB_STATS_INC(obs::Counter::kEngineExactRouted);
  util::Stopwatch query_timer;
  EngineResult result;
  result.approximate = !query.exact;
  {
    // The compare and the verify are fused per block, so the span and the
    // verify histogram time the whole pass; trace.verify_ns times the
    // raw-value reads alone.
    AB_SPAN("engine/verify");
    obs::ScopedLatencyTimer timer(obs::Histogram::kVerifyLatencyNs);
    const SlicedPass pass(*index_, table_, query);
    auto run = [&](const auto& dead) {
      return query.rows.empty()
                 ? pass.WholeRelation(table_.num_rows(), query.count_only,
                                      dead, pool_.get(), &result.row_ids)
                 : pass.Subset(query.rows, table_.num_rows(),
                               query.count_only, dead, &result.row_ids);
    };
    Tally tally =
        mask_deleted
            ? run([this](uint64_t w) { return TombstoneWord(w); })
            : run([](uint64_t) { return uint64_t{0}; });
    FinalizeVerification(query, tally.candidates, tally.kept, &result);
    result.trace.raw_reads = tally.raw_reads;
    result.trace.verify_ns = tally.verify_ns;
  }
  result.trace.rows_evaluated =
      query.rows.empty() ? table_.num_rows() : query.rows.size();
  result.trace.attrs_in_plan = query.predicates.size();
  // The index is exact at sub-bin granularity: the predicted precision of
  // 1.0 is the model's statement, and pruning only removes edge overshoot.
  result.trace.simd_level =
      util::simd::SimdLevelName(util::simd::ActiveSimdLevel());
  result.path = "exact";
  result.trace.path = "exact";
  result.trace.latency_ms = query_timer.ElapsedMillis();
  return result;
}

EngineResult HybridEngine::Execute(const EngineQuery& query) const {
  AB_SPAN("engine/execute");
  obs::ScopedLatencyTimer timer(obs::Histogram::kQueryLatencyNs);
  AB_STATS_INC(obs::Counter::kEngineQueries);
  if (HasMutations()) {
    return ExecuteMutable(query);
  }
  return ExecuteExactImpl(query, /*mask_deleted=*/false);
}

EngineResult HybridEngine::ExecuteMutable(const EngineQuery& query) const {
  // Tombstoned base rows are masked out of the base pass itself, so its
  // counts stay popcounts and every trace count covers live rows only.
  const bool mask_deleted =
      ingest_->base_deletes.load(std::memory_order_acquire) > 0;
  EngineResult result;
  std::vector<uint64_t> delta_rows;
  const std::vector<uint64_t>* delta_subset = nullptr;
  if (query.rows.empty()) {
    result = ExecuteExactImpl(query, mask_deleted);
  } else {
    // Split the row subset: base ids go to the base index, ingested ids
    // to the delta. Result ids come out base-part first (in query order),
    // then delta-part (in query order).
    uint64_t base_n = table_.num_rows();
    EngineQuery base_query = query;
    base_query.rows.clear();
    for (uint64_t row : query.rows) {
      if (row < base_n) {
        base_query.rows.push_back(row);
      } else {
        delta_rows.push_back(row);
      }
    }
    if (!base_query.rows.empty()) {
      result = ExecuteExactImpl(base_query, mask_deleted);
    } else {
      result.path = "delta";
      result.approximate = !query.exact;
    }
    delta_subset = &delta_rows;
  }
  AppendDeltaMatches(query, delta_subset, &result);
  return result;
}

void HybridEngine::AppendDeltaMatches(const EngineQuery& query,
                                      const std::vector<uint64_t>* rows_global,
                                      EngineResult* result) const {
  const uint64_t committed =
      ingest_->committed.load(std::memory_order_acquire);
  if (committed == 0) return;
  if (rows_global != nullptr && rows_global->empty()) return;
  AB_SPAN("engine/delta_eval");
  const uint64_t base_n = table_.num_rows();
  const uint32_t cols = static_cast<uint32_t>(table_.num_columns());

  // A row is a candidate when each predicate's stored bin lies in
  // [BinOf(lo), BinOf(hi)], the base's bin-level mask. Bin b holds
  // [B[b-1], B[b]), so a bin strictly inside that range lies inside
  // [lo, hi]: the exact test reads a raw value only in the two end bins.
  struct BinRange {
    uint32_t attr;
    uint32_t lo_bin;
    uint32_t span;  ///< hi_bin - lo_bin
    double lo;
    double hi;
  };
  std::vector<BinRange> ranges;
  for (const ValuePredicate& p : query.predicates) {
    AB_CHECK_LT(p.attr, cols);
    AB_CHECK_LE(p.lo, p.hi);
    const bitmap::NestedBinner& binner = index_->binner(p.attr);
    const uint32_t lo_bin = binner.BinOf(p.lo);
    ranges.push_back(
        BinRange{p.attr, lo_bin, binner.BinOf(p.hi) - lo_bin, p.lo, p.hi});
  }
  uint64_t evaluated = 0;
  uint64_t candidates = 0;
  uint64_t appended = 0;
  uint64_t raw_reads = 0;
  auto scan = [&](const IngestState::Chunk& chunk, uint64_t local) {
    if (Tombstoned(base_n + local)) return;
    const size_t at = (local % IngestState::kChunkRows) * cols;
    const uint32_t* bins = chunk.bins.get() + at;
    // Every predicate is tested, without a branch: whether a row is a
    // candidate is data, and a mispredicted exit costs more than a test.
    bool candidate = true;
    for (const BinRange& r : ranges) {
      candidate &= bins[r.attr] - r.lo_bin <= r.span;
    }
    candidates += candidate;
    if (!candidate) return;
    if (query.exact) {
      const double* values = chunk.values.get() + at;
      for (const BinRange& r : ranges) {
        const uint32_t offset = bins[r.attr] - r.lo_bin;
        if (offset != 0 && offset != r.span) continue;
        ++raw_reads;
        if (!InBounds(values[r.attr], r.lo, r.hi)) return;
      }
    }
    if (!query.count_only) result->row_ids.push_back(base_n + local);
    ++appended;
  };
  auto chunk_of = [&](uint64_t local) -> const IngestState::Chunk& {
    return *ingest_->chunks[local / IngestState::kChunkRows].load(
        std::memory_order_relaxed);
  };
  if (rows_global == nullptr) {
    for (uint64_t first = 0; first < committed;
         first += IngestState::kChunkRows) {
      const IngestState::Chunk& chunk = chunk_of(first);
      const uint64_t end = std::min(committed, first + IngestState::kChunkRows);
      for (uint64_t local = first; local < end; ++local) scan(chunk, local);
    }
    evaluated = committed;
  } else {
    for (uint64_t row : *rows_global) {
      const uint64_t local = row - base_n;
      if (local >= committed) continue;
      scan(chunk_of(local), local);
      ++evaluated;
    }
  }
  result->count += appended;

  result->trace.rows_evaluated += evaluated;
  result->trace.candidates += candidates;
  if (query.exact) {
    result->trace.raw_reads += raw_reads;
    result->trace.verified_matches += appended;
    uint64_t total_candidates = result->trace.candidates;
    result->trace.observed_precision =
        total_candidates == 0
            ? 1.0
            : static_cast<double>(result->trace.verified_matches) /
                  static_cast<double>(total_candidates);
  }
#if !defined(AB_DISABLE_STATS)
  obs::internal::ThreadStatsBlock* b = obs::internal::TlsBlock();
  b->Add(obs::Counter::kEngineCandidates, candidates);
  b->Add(obs::Counter::kEngineDeltaMatches, appended);
  if (query.exact) {
    b->Add(obs::Counter::kEngineVerified, appended);
    b->Add(obs::Counter::kEngineFalsePositives, candidates - appended);
  }
#endif
}

}  // namespace engine
}  // namespace abitmap
