#include "engine/hybrid_engine.h"

#include <algorithm>
#include <cmath>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <utility>

#include "bitmap/bitmap_table.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "util/bitvector.h"
#include "util/simd.h"
#include "util/stopwatch.h"

namespace abitmap {
namespace engine {

HybridEngine::HybridEngine(Table table, const Options& options)
    : table_(std::move(table)),
      options_(options),
      discretized_(table_.Discretize(options.binning)) {}

HybridEngine HybridEngine::Build(Table table, const Options& options) {
  HybridEngine engine(std::move(table), options);
  // The pool is created before the index so construction itself runs
  // through it: exact-column compression fans out over the same workers
  // that later serve queries. The parallel build is bit-identical to the
  // serial one, so a 1-thread engine and an N-thread engine hold the same
  // index.
  int threads = options.num_threads == 0 ? util::DefaultThreadCount()
                                         : options.num_threads;
  if (threads > 1) {
    engine.pool_ = std::make_shared<util::ThreadPool>(threads);
  }
  bitmap::BitmapTable bitmap_table =
      bitmap::BitmapTable::Build(engine.discretized_.dataset);
  engine.exact_ = std::make_unique<ExactIndex>(ExactIndex::Build(
      bitmap_table, engine.pool_.get(), options.backend));
  // Only the bitmap build reads the binned values: queries verify against
  // the raw table, and ingest bins through the binners and attributes.
  std::vector<std::vector<uint32_t>>().swap(engine.discretized_.dataset.values);
#if defined(__GLIBC__)
  // The build's transient buffers (binned values, the bitmap table, the
  // binning sorts) were freed inside the heap, where glibc keeps their
  // pages resident; return them, so a server's RSS is its live index.
  malloc_trim(0);
#endif
  engine.ingest_ = std::make_unique<IngestState>();
  return engine;
}

HybridEngine::IngestState::IngestState()
    : chunks(new std::atomic<double*>[kMaxChunks]) {
  for (uint64_t c = 0; c < kMaxChunks; ++c) {
    chunks[c].store(nullptr, std::memory_order_relaxed);
  }
}

HybridEngine::IngestState::~IngestState() {
  for (uint64_t c = 0; c < chunks_allocated; ++c) {
    delete[] chunks[c].load(std::memory_order_relaxed);
  }
  delete[] base_tombstones.load(std::memory_order_relaxed);
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
  uint32_t cols = static_cast<uint32_t>(table_.num_columns());
  AB_CHECK_EQ(values.size(), cols);
  std::lock_guard<std::mutex> lock(ingest_->mu);
  uint64_t local = ingest_->committed.load(std::memory_order_relaxed);
  AB_CHECK_LT(local, IngestState::kChunkRows * IngestState::kMaxChunks);
  if (ingest_->delta == nullptr) {
    ab::MutableAbIndex::Options delta_options;
    delta_options.config = options_.ab;
    ingest_->delta = ab::MutableAbIndex::BuildEmpty(
        discretized_.dataset.attributes, delta_options, 1024);
  }
  // Raw values first (plain stores into a chunk no reader can touch
  // until `committed` advances past the row, release below).
  uint64_t chunk = local / IngestState::kChunkRows;
  double* data = ingest_->chunks[chunk].load(std::memory_order_relaxed);
  if (data == nullptr) {
    data = new double[IngestState::kChunkRows * cols];
    ingest_->chunks[chunk].store(data, std::memory_order_relaxed);
    ingest_->chunks_allocated = chunk + 1;
  }
  double* row_values = data + (local % IngestState::kChunkRows) * cols;
  std::vector<uint32_t> bins(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    AB_CHECK(!std::isnan(values[c]));
    row_values[c] = values[c];
    bins[c] = discretized_.binners[c].BinOf(values[c]);
  }
  uint64_t id = ingest_->delta->InsertRow(bins);
  AB_CHECK_EQ(id, local);
  ingest_->committed.store(local + 1, std::memory_order_release);

  uint64_t gen = ingest_->delta->generation();
  if (gen != ingest_->last_generation) {
    AB_STATS_ADD(obs::Counter::kEngineRebuilds,
                 gen - ingest_->last_generation);
    ingest_->last_generation = gen;
  }
  AB_STATS_INC(obs::Counter::kEngineIngestRows);
  return table_.num_rows() + local;
}

bool HybridEngine::DeleteRow(uint64_t row) {
  AB_CHECK(ingest_ != nullptr);
  uint64_t base_n = table_.num_rows();
  std::lock_guard<std::mutex> lock(ingest_->mu);
  if (row < base_n) {
    std::atomic<uint64_t>* words =
        ingest_->base_tombstones.load(std::memory_order_relaxed);
    if (words == nullptr) {
      uint64_t n_words = (base_n + 63) / 64;
      words = new std::atomic<uint64_t>[n_words];
      for (uint64_t w = 0; w < n_words; ++w) {
        words[w].store(0, std::memory_order_relaxed);
      }
      ingest_->base_tombstones.store(words, std::memory_order_release);
    }
    uint64_t bit = uint64_t{1} << (row % 64);
    if (words[row / 64].load(std::memory_order_relaxed) & bit) return false;
    words[row / 64].fetch_or(bit, std::memory_order_release);
    ingest_->base_deletes.fetch_add(1, std::memory_order_release);
  } else {
    uint64_t local = row - base_n;
    if (ingest_->delta == nullptr ||
        local >= ingest_->committed.load(std::memory_order_relaxed)) {
      return false;
    }
    if (!ingest_->delta->DeleteRow(local)) return false;
  }
  ingest_->deletes.fetch_add(1, std::memory_order_relaxed);
  AB_STATS_INC(obs::Counter::kEngineIngestDeletes);
  return true;
}

bool HybridEngine::RowLive(uint64_t row) const {
  uint64_t base_n = table_.num_rows();
  if (row < base_n) {
    if (ingest_ == nullptr) return true;
    const std::atomic<uint64_t>* words =
        ingest_->base_tombstones.load(std::memory_order_acquire);
    if (words == nullptr) return true;
    return !(words[row / 64].load(std::memory_order_acquire) &
             (uint64_t{1} << (row % 64)));
  }
  const ab::MutableAbIndex* delta = delta_index();
  return delta != nullptr && delta->RowLive(row - base_n);
}

HybridEngine::IngestStats HybridEngine::GetIngestStats() const {
  IngestStats stats;
  if (ingest_ == nullptr) return stats;
  stats.ingested = ingest_->committed.load(std::memory_order_acquire);
  stats.deleted = ingest_->deletes.load(std::memory_order_relaxed);
  if (const ab::MutableAbIndex* delta = delta_index()) {
    stats.delta_live = delta->live_rows();
    stats.delta_generations = delta->generation();
    stats.delta_worst_fp = delta->WorstExpectedFp();
  }
  return stats;
}

void HybridEngine::ToBinQuery(const EngineQuery& query,
                              bitmap::BitmapQuery* out) const {
  out->ranges.clear();
  out->rows = query.rows;
  for (const ValuePredicate& p : query.predicates) {
    AB_CHECK_LT(p.attr, table_.num_columns());
    AB_CHECK_LE(p.lo, p.hi);
    const bitmap::Binner& binner = discretized_.binners[p.attr];
    uint32_t lo_bin = binner.BinOf(p.lo);
    uint32_t hi_bin = binner.BinOf(p.hi);
    out->ranges.push_back(bitmap::AttributeRange{p.attr, lo_bin, hi_bin});
  }
}

namespace {

/// Which end bins of `range`, predicate `p`'s bins under `binner`, hold
/// rows that can fail it. Bin i holds [B[i-1], B[i]) (BinOf's
/// upper_bound) and is an edge bin unless lo <= B[i-1] and B[i] <= hi;
/// bin 0 and the last bin are open at their outer end, so they are always
/// edge bins.
ExactIndex::EdgeBins EdgeBinsOf(const ValuePredicate& p,
                                const bitmap::AttributeRange& range,
                                const bitmap::Binner& binner) {
  const std::vector<double>& b = binner.boundaries();
  auto interior = [&](uint32_t i) {
    return i > 0 && i < b.size() && p.lo <= b[i - 1] && b[i] <= p.hi;
  };
  return {!interior(range.lo_bin), !interior(range.hi_bin)};
}

/// Result size below which a pooled verify costs more than it saves.
constexpr uint64_t kParallelMinRows = 1 << 14;

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

/// The exact check of one query, hoisted out of the candidate loop: each
/// predicate's raw column and inclusive bounds. An approximate query
/// carries no bounds, so every candidate passes.
class BoundCheck {
 public:
  BoundCheck(const Table& table, const EngineQuery& query) {
    if (!query.exact) return;
    bounds_.reserve(query.predicates.size());
    for (const ValuePredicate& p : query.predicates) {
      bounds_.push_back(Bound{table.column(p.attr).data(), p.lo, p.hi});
    }
  }

  /// Whether `row` satisfies every predicate, without a branch per
  /// predicate.
  bool Passes(uint64_t row) const {
    bool ok = true;
    for (const Bound& b : bounds_) ok &= InBounds(b.values[row], b.lo, b.hi);
    return ok;
  }

 private:
  struct Bound {
    const double* values;
    double lo;
    double hi;
  };
  std::vector<Bound> bounds_;
};

/// What one collection pass saw: candidates in, rows kept.
struct Tally {
  uint64_t candidates = 0;
  uint64_t kept = 0;
};

/// Runs `collect(begin, end, &part)` over the pool's contiguous chunks of
/// [0, n), appends the parts to `row_ids` in chunk order, which is row
/// order, and returns the sum of the tallies `collect` returns.
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
    ids += parts[c].size();
  }
  row_ids->reserve(row_ids->size() + ids);
  for (const std::vector<uint64_t>& part : parts) {
    row_ids->insert(row_ids->end(), part.begin(), part.end());
  }
  return total;
}

/// Maps evaluation bits back to row ids, optionally pruning. Candidate
/// verification against the raw values is chunked through `pool` (when
/// present) for large results — each worker collects its chunk's
/// survivors locally, and the chunks are concatenated in row order.
EngineResult CollectResult(const HybridEngine& engine,
                           const EngineQuery& query,
                           const bitmap::BitmapQuery& bin_query,
                           const std::vector<bool>& bits,
                           util::ThreadPool* pool) {
  AB_SPAN("engine/verify");
  obs::ScopedLatencyTimer timer(obs::Histogram::kVerifyLatencyNs);
  // Per-result timing (trace.verify_ns), not telemetry: it rides the
  // serve layer's stage breakdown, so it is measured in both stats
  // configurations.
  util::Stopwatch verify_timer;
  EngineResult result;
  result.approximate = !query.exact;
  // Prunes bin-boundary overshoot.
  const BoundCheck check(engine.table(), query);
  // Appends the survivors in [begin, end) to `row_ids`.
  auto collect = [&](uint64_t begin, uint64_t end,
                     std::vector<uint64_t>* row_ids) {
    Tally tally;
    size_t before = row_ids->size();
    for (uint64_t i = begin; i < end; ++i) {
      if (!bits[i]) continue;
      ++tally.candidates;
      uint64_t row = bin_query.rows.empty() ? i : bin_query.rows[i];
      if (check.Passes(row)) row_ids->push_back(row);
    }
    tally.kept = row_ids->size() - before;
    return tally;
  };
  size_t n = bin_query.rows.empty() ? bits.size() : bin_query.rows.size();
  Tally total = pool != nullptr && n >= kParallelMinRows
                    ? CollectChunked(pool, n, collect, &result.row_ids)
                    : collect(0, n, &result.row_ids);
  FinalizeVerification(query, total.candidates, total.kept, &result);
  result.trace.verify_ns =
      static_cast<uint64_t>(verify_timer.ElapsedMicros() * 1000.0);
  return result;
}

/// The whole-relation verify kernel, on words. Bin i holds [B[i-1], B[i]),
/// so a row in a predicate's interior bin passes it by construction; only
/// the candidates in its edge bins can fail. Per predicate that has edge
/// bins, the kernel reads the raw value of just those candidates and clears
/// the bits of the rows that fail. An approximate query checks nothing.
class EdgeVerify {
 public:
  /// `edge_bits[i]` holds predicate i's edge-bin rows, or is empty when the
  /// predicate has no edge bin.
  EdgeVerify(const Table& table, const EngineQuery& query,
             const std::vector<util::BitVector>& edge_bits) {
    if (!query.exact) return;
    for (size_t i = 0; i < edge_bits.size(); ++i) {
      if (edge_bits[i].empty()) continue;
      const ValuePredicate& p = query.predicates[i];
      checks_.push_back(Check{edge_bits[i].words().data(),
                              table.column(p.attr).data(), p.lo, p.hi});
    }
  }

  /// Verifies words [begin, end) in place; returns the popcounts before
  /// and after.
  Tally Run(uint64_t* words, size_t begin, size_t end) const {
    Tally tally;
    tally.candidates = util::simd::PopcountWords(words + begin, end - begin);
    for (const Check& c : checks_) {
      for (size_t w = begin; w < end; ++w) {
        const double* row_base = c.values + w * 64;
        uint64_t fail = 0;
        for (uint64_t m = words[w] & c.edge[w]; m != 0; m &= m - 1) {
          int bit = util::simd::CountTrailingZeros64(m);
          fail |= uint64_t{!InBounds(row_base[bit], c.lo, c.hi)} << bit;
        }
        words[w] &= ~fail;
      }
    }
    tally.kept = checks_.empty()
                     ? tally.candidates
                     : util::simd::PopcountWords(words + begin, end - begin);
    return tally;
  }

 private:
  struct Check {
    const uint64_t* edge;
    const double* values;
    double lo;
    double hi;
  };
  std::vector<Check> checks_;
};

/// Appends the set bits of words[begin, end), `count` of them, to
/// `row_ids` in ascending order.
void AppendSetRows(const uint64_t* words, size_t begin, size_t end,
                   uint64_t count, std::vector<uint64_t>* row_ids) {
  size_t at = row_ids->size();
  row_ids->resize(at + count);
  uint64_t* out = row_ids->data() + at;
  for (size_t w = begin; w < end; ++w) {
    const uint64_t base = static_cast<uint64_t>(w) * 64;
    for (uint64_t word = words[w]; word != 0; word &= word - 1) {
      *out++ = base + util::simd::CountTrailingZeros64(word);
    }
  }
}

/// Whole-relation collection over the packed bit-wise result: EdgeVerify
/// clears the failing candidates in place, the count is the popcount of
/// what remains, and row ids (unless count_only) are its set bits. With a
/// pool, chunks split the words, so per-chunk counts sum and the id parts
/// concatenate in row order.
EngineResult CollectWholeRelation(const HybridEngine& engine,
                                  const EngineQuery& query,
                                  util::BitVector bits,
                                  const std::vector<util::BitVector>& edge_bits,
                                  util::ThreadPool* pool) {
  AB_SPAN("engine/verify");
  obs::ScopedLatencyTimer timer(obs::Histogram::kVerifyLatencyNs);
  util::Stopwatch verify_timer;
  EngineResult result;
  result.approximate = !query.exact;
  const EdgeVerify verify(engine.table(), query, edge_bits);
  // Bits past size() in the last word are zero, so whole words are safe.
  uint64_t* words = bits.mutable_words();
  const size_t num_words = bits.words().size();
  // Verifies words [begin, end) and appends their survivors to `row_ids`.
  auto collect = [&](size_t begin, size_t end,
                     std::vector<uint64_t>* row_ids) {
    Tally tally = verify.Run(words, begin, end);
    if (!query.count_only) {
      AppendSetRows(words, begin, end, tally.kept, row_ids);
    }
    return tally;
  };
  Tally total =
      pool != nullptr && bits.size() >= kParallelMinRows
          ? CollectChunked(pool, num_words, collect, &result.row_ids)
          : collect(0, num_words, &result.row_ids);
  FinalizeVerification(query, total.candidates, total.kept, &result);
  result.trace.verify_ns =
      static_cast<uint64_t>(verify_timer.ElapsedMicros() * 1000.0);
  return result;
}

}  // namespace

EngineResult HybridEngine::ExecuteExactImpl(const EngineQuery& query) const {
  AB_SPAN("engine/exact");
  AB_STATS_INC(obs::Counter::kEngineExactRouted);
  util::Stopwatch query_timer;
  bitmap::BitmapQuery bin_query;
  ToBinQuery(query, &bin_query);
  EngineResult result;
  if (bin_query.rows.empty()) {
    // Whole relation: the bit-wise result stays packed, and each
    // predicate's edge-bin rows come back beside it for the verify.
    std::vector<ExactIndex::EdgeBins> edges;
    if (query.exact) {
      edges.reserve(query.predicates.size());
      for (size_t i = 0; i < query.predicates.size(); ++i) {
        const bitmap::AttributeRange& range = bin_query.ranges[i];
        edges.push_back(EdgeBinsOf(query.predicates[i], range,
                                   discretized_.binners[range.attr]));
      }
    }
    std::vector<util::BitVector> edge_bits;
    util::BitVector bits =
        exact_->ExecuteBitwiseBits(bin_query, edges, &edge_bits);
    result = CollectWholeRelation(*this, query, std::move(bits), edge_bits,
                                  pool_.get());
  } else {
    // Direct access: only the containers of the chunks the subset touches.
    std::vector<bool> bits = exact_->Evaluate(bin_query);
    result = CollectResult(*this, query, bin_query, bits, pool_.get());
    if (query.count_only) result.row_ids = {};
  }
  result.trace.rows_evaluated =
      bin_query.rows.empty() ? table_.num_rows() : bin_query.rows.size();
  result.trace.attrs_in_plan = bin_query.ranges.size();
  // The exact arm is exact at bin granularity: the predicted precision of
  // 1.0 is the model's statement, and pruning only removes bin overshoot.
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
  return ExecuteExactImpl(query);
}

void HybridEngine::DropDeletedBaseRows(std::vector<uint64_t>* row_ids) const {
  if (ingest_->base_deletes.load(std::memory_order_acquire) == 0) return;
  const std::atomic<uint64_t>* words =
      ingest_->base_tombstones.load(std::memory_order_acquire);
  if (words == nullptr) return;
  auto dead = [&](uint64_t row) {
    return (words[row / 64].load(std::memory_order_acquire) &
            (uint64_t{1} << (row % 64))) != 0;
  };
  row_ids->erase(std::remove_if(row_ids->begin(), row_ids->end(), dead),
                 row_ids->end());
}

EngineResult HybridEngine::ExecuteMutable(const EngineQuery& query) const {
  EngineResult result;
  std::vector<uint64_t> delta_rows;
  const std::vector<uint64_t>* delta_subset = nullptr;
  // With base tombstones, the base part of a count is the size of its id
  // list once the tombstoned ids are dropped.
  EngineQuery base_query = query;
  base_query.count_only =
      query.count_only &&
      ingest_->base_deletes.load(std::memory_order_acquire) == 0;
  if (query.rows.empty()) {
    result = ExecuteExactImpl(base_query);
  } else {
    // Split the row subset: base ids go to the base index, ingested ids
    // to the delta. Result ids come out base-part first (in query order),
    // then delta-part (in query order).
    uint64_t base_n = table_.num_rows();
    base_query.rows.clear();
    for (uint64_t row : query.rows) {
      if (row < base_n) {
        base_query.rows.push_back(row);
      } else {
        delta_rows.push_back(row);
      }
    }
    if (!base_query.rows.empty()) {
      result = ExecuteExactImpl(base_query);
    } else {
      result.path = "delta";
      result.approximate = !query.exact;
    }
    delta_subset = &delta_rows;
  }
  if (!base_query.count_only) {
    DropDeletedBaseRows(&result.row_ids);
    result.count = result.row_ids.size();
  }
  AppendDeltaMatches(query, delta_subset, &result);
  if (query.count_only) result.row_ids = {};
  return result;
}

void HybridEngine::AppendDeltaMatches(const EngineQuery& query,
                                      const std::vector<uint64_t>* rows_global,
                                      EngineResult* result) const {
  uint64_t committed = ingest_->committed.load(std::memory_order_acquire);
  if (committed == 0) return;
  const ab::MutableAbIndex* delta = ingest_->delta.get();
  if (rows_global != nullptr && rows_global->empty()) return;
  AB_SPAN("engine/delta_eval");
  uint64_t base_n = table_.num_rows();
  uint32_t cols = static_cast<uint32_t>(table_.num_columns());

  bitmap::BitmapQuery bin_query;
  ToBinQuery(query, &bin_query);
  bin_query.rows.clear();
  if (rows_global != nullptr) {
    bin_query.rows.reserve(rows_global->size());
    for (uint64_t row : *rows_global) {
      uint64_t local = row - base_n;
      if (local < committed) bin_query.rows.push_back(local);
    }
    if (bin_query.rows.empty()) return;
  }
  // The delta evaluation pins one index generation for the whole query
  // and gates on row liveness, so deleted rows never surface.
  std::vector<bool> bits = delta->Evaluate(bin_query);

  auto raw_value = [&](uint64_t local, uint32_t attr) {
    const double* chunk =
        ingest_->chunks[local / IngestState::kChunkRows].load(
            std::memory_order_relaxed);
    return chunk[(local % IngestState::kChunkRows) * cols + attr];
  };
  uint64_t candidates = 0;
  uint64_t appended = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (!bits[i]) continue;
    ++candidates;
    uint64_t local = bin_query.rows.empty() ? static_cast<uint64_t>(i)
                                            : bin_query.rows[i];
    if (query.exact) {
      bool match = true;
      for (const ValuePredicate& p : query.predicates) {
        match &= InBounds(raw_value(local, p.attr), p.lo, p.hi);
      }
      if (!match) continue;
    }
    if (!query.count_only) result->row_ids.push_back(base_n + local);
    ++appended;
  }
  result->count += appended;

  result->trace.rows_evaluated += bits.size();
  result->trace.candidates += candidates;
  if (query.exact) {
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
