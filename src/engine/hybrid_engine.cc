#include "engine/hybrid_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
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
  // The AB_BACKEND environment variable wins over Options::backend: it
  // lets a deployed binary force "wah"/"bbc"/"roaring"/"ab" (or restore
  // "auto") without a rebuild, mirroring AB_DISABLE_SIMD.
  if (const char* env = std::getenv("AB_BACKEND")) {
    if (env[0] != '\0') engine.options_.backend = env;
  }
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
      bitmap_table, engine.pool_.get(), engine.options_.backend));
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

/// Result size below which a pooled verify costs more than it saves.
constexpr uint64_t kParallelMinRows = 1 << 14;

/// Folds the collection outcome into the result's trace and the engine
/// counters. In exact mode pruning reveals the truth, so the observed
/// precision (verified / candidates) becomes known: the share of bin
/// candidates that survive the bin-overshoot prune.
void FinalizeVerification(const EngineQuery& query, uint64_t candidates,
                          EngineResult* result) {
  result->trace.candidates = candidates;
  if (query.exact) {
    uint64_t verified = result->row_ids.size();
    result->trace.verified_matches = verified;
    result->trace.observed_precision =
        candidates == 0 ? 1.0
                        : static_cast<double>(verified) /
                              static_cast<double>(candidates);
#if !defined(AB_DISABLE_STATS)
    obs::internal::ThreadStatsBlock* b = obs::internal::TlsBlock();
    b->Add(obs::Counter::kEngineCandidates, candidates);
    b->Add(obs::Counter::kEngineVerified, verified);
    b->Add(obs::Counter::kEngineFalsePositives, candidates - verified);
#endif
  } else {
    AB_STATS_ADD(obs::Counter::kEngineCandidates, candidates);
  }
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

  /// Whether `row` satisfies every predicate, tested without a branch per
  /// predicate. `!(v < lo) & !(v > hi)` negates the early-exit test
  /// `v < lo || v > hi` exactly, NaN included, so rows pass as they did.
  bool Passes(uint64_t row) const {
    bool ok = true;
    for (const Bound& b : bounds_) {
      double v = b.values[row];
      ok &= !(v < b.lo) & !(v > b.hi);
    }
    return ok;
  }

  /// The whole-relation verify kernel: walks the set bits of
  /// words[word_begin, word_end) and writes each candidate's row id at the
  /// cursor, advancing the cursor only when the row passes. `out` needs one
  /// slot per set bit; returns the number of rows kept, in ascending order.
  size_t CollectWords(const uint64_t* words, size_t word_begin,
                      size_t word_end, uint64_t* out) const {
    size_t kept = 0;
    for (size_t w = word_begin; w < word_end; ++w) {
      const uint64_t base = static_cast<uint64_t>(w) * 64;
      for (uint64_t word = words[w]; word != 0; word &= word - 1) {
        uint64_t row = base + util::simd::CountTrailingZeros64(word);
        out[kept] = row;
        kept += Passes(row);
      }
    }
    return kept;
  }

 private:
  struct Bound {
    const double* values;
    double lo;
    double hi;
  };
  std::vector<Bound> bounds_;
};

/// Runs `collect(begin, end, &part)` over the pool's contiguous chunks of
/// [0, n) and appends the parts to `row_ids` in chunk order, which is row
/// order; returns the total of the candidate counts `collect` returns.
template <typename Collect>
uint64_t CollectChunked(util::ThreadPool* pool, uint64_t n,
                        const Collect& collect,
                        std::vector<uint64_t>* row_ids) {
  std::vector<std::vector<uint64_t>> parts(pool->num_threads());
  std::vector<uint64_t> part_candidates(parts.size(), 0);
  pool->ParallelFor(0, n, [&](uint64_t begin, uint64_t end, int chunk) {
    part_candidates[chunk] = collect(begin, end, &parts[chunk]);
  });
  size_t kept = 0;
  for (const std::vector<uint64_t>& part : parts) kept += part.size();
  row_ids->reserve(row_ids->size() + kept);
  uint64_t candidates = 0;
  for (size_t c = 0; c < parts.size(); ++c) {
    candidates += part_candidates[c];
    row_ids->insert(row_ids->end(), parts[c].begin(), parts[c].end());
  }
  return candidates;
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
  // Returns the candidates in [begin, end) and appends the survivors.
  auto collect = [&](uint64_t begin, uint64_t end,
                     std::vector<uint64_t>* row_ids) {
    uint64_t cand = 0;
    for (uint64_t i = begin; i < end; ++i) {
      if (!bits[i]) continue;
      ++cand;
      uint64_t row = bin_query.rows.empty() ? i : bin_query.rows[i];
      if (check.Passes(row)) row_ids->push_back(row);
    }
    return cand;
  };
  size_t n = bin_query.rows.empty() ? bits.size() : bin_query.rows.size();
  uint64_t candidates =
      pool != nullptr && n >= kParallelMinRows
          ? CollectChunked(pool, n, collect, &result.row_ids)
          : collect(0, n, &result.row_ids);
  FinalizeVerification(query, candidates, &result);
  result.trace.verify_ns =
      static_cast<uint64_t>(verify_timer.ElapsedMicros() * 1000.0);
  return result;
}

/// Whole-relation variant over the packed query result, one word at a
/// time: the row list is sized from the candidate popcount up front, and
/// BoundCheck::CollectWords fills it without a branch per candidate. With
/// a pool, chunks split the words, so the parts concatenate in row order.
EngineResult CollectResultFromBits(const HybridEngine& engine,
                                   const EngineQuery& query,
                                   const util::BitVector& bits,
                                   util::ThreadPool* pool) {
  AB_SPAN("engine/verify");
  obs::ScopedLatencyTimer timer(obs::Histogram::kVerifyLatencyNs);
  util::Stopwatch verify_timer;
  EngineResult result;
  result.approximate = !query.exact;
  const BoundCheck check(engine.table(), query);
  // Bits past size() in the last word are zero, so whole words are safe.
  const uint64_t* words = bits.words().data();
  const size_t num_words = bits.words().size();
  // Verifies words [begin, end) into `row_ids`; returns the candidates.
  auto collect = [&](size_t begin, size_t end,
                     std::vector<uint64_t>* row_ids) {
    uint64_t cand = util::simd::PopcountWords(words + begin, end - begin);
    row_ids->resize(cand);
    row_ids->resize(check.CollectWords(words, begin, end, row_ids->data()));
    return cand;
  };
  uint64_t candidates =
      pool != nullptr && bits.size() >= kParallelMinRows
          ? CollectChunked(pool, num_words, collect, &result.row_ids)
          : collect(0, num_words, &result.row_ids);
  FinalizeVerification(query, candidates, &result);
  result.trace.verify_ns =
      static_cast<uint64_t>(verify_timer.ElapsedMicros() * 1000.0);
  return result;
}

}  // namespace

EngineResult HybridEngine::ExecuteExactImpl(const EngineQuery& query,
                                            util::ThreadPool* pool) const {
  AB_SPAN("engine/exact");
  AB_STATS_INC(obs::Counter::kEngineExactRouted);
  util::Stopwatch query_timer;
  bitmap::BitmapQuery bin_query;
  ToBinQuery(query, &bin_query);
  EngineResult result;
  if (bin_query.rows.empty()) {
    // Whole relation: keep the bit-wise result packed and walk its set
    // bits — the verification loop touches only candidate rows.
    util::BitVector bits = exact_->ExecuteBitwiseBits(bin_query);
    result = CollectResultFromBits(*this, query, bits, pool);
  } else {
    // Direct access for an all-Roaring plan, whole-then-pick otherwise.
    std::vector<bool> bits = exact_->Evaluate(bin_query);
    result = CollectResult(*this, query, bin_query, bits, pool);
  }
  result.trace.rows_evaluated =
      bin_query.rows.empty() ? table_.num_rows() : bin_query.rows.size();
  result.trace.attrs_in_plan = bin_query.ranges.size();
  // The exact arm is exact at bin granularity whatever its backend: the
  // predicted precision of 1.0 is the model's statement, and pruning only
  // removes bin overshoot.
  result.trace.simd_level =
      util::simd::SimdLevelName(util::simd::ActiveSimdLevel());
  result.path = "exact";
  result.trace.path = "exact";
  result.trace.backend = exact_->PlanBackendLabel(bin_query);
  result.trace.latency_ms = query_timer.ElapsedMillis();
  return result;
}

EngineResult HybridEngine::Execute(const EngineQuery& query) const {
  return ExecuteImpl(query, pool_.get());
}

EngineResult HybridEngine::ExecuteImpl(const EngineQuery& query,
                                       util::ThreadPool* pool) const {
  AB_SPAN("engine/execute");
  obs::ScopedLatencyTimer timer(obs::Histogram::kQueryLatencyNs);
  AB_STATS_INC(obs::Counter::kEngineQueries);
  if (HasMutations()) {
    return ExecuteMutable(query, pool);
  }
  return ExecuteExactImpl(query, pool);
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

EngineResult HybridEngine::ExecuteMutable(const EngineQuery& query,
                                          util::ThreadPool* pool) const {
  EngineResult result;
  std::vector<uint64_t> delta_rows;
  const std::vector<uint64_t>* delta_subset = nullptr;
  if (query.rows.empty()) {
    result = ExecuteExactImpl(query, pool);
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
      result = ExecuteExactImpl(base_query, pool);
    } else {
      result.path = "delta";
      result.approximate = !query.exact;
    }
    delta_subset = &delta_rows;
  }
  DropDeletedBaseRows(&result.row_ids);
  AppendDeltaMatches(query, delta_subset, &result);
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
        double v = raw_value(local, p.attr);
        if (v < p.lo || v > p.hi) {
          match = false;
          break;
        }
      }
      if (!match) continue;
    }
    result->row_ids.push_back(base_n + local);
    ++appended;
  }

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

namespace {

/// Canonical byte key of a query for batch deduplication: exact flag,
/// predicate triples, row list. Two queries with equal keys are the same
/// query (bit-exact doubles included), so sharing the result is safe —
/// this is a value identity, never a hash that could alias.
std::string QueryKey(const EngineQuery& query) {
  std::string key;
  key.reserve(2 + query.predicates.size() * 20 + query.rows.size() * 8);
  key.push_back(query.exact ? '\1' : '\0');
  for (const ValuePredicate& p : query.predicates) {
    char buf[20];
    std::memcpy(buf, &p.attr, 4);
    std::memcpy(buf + 4, &p.lo, 8);
    std::memcpy(buf + 12, &p.hi, 8);
    key.append(buf, sizeof(buf));
  }
  key.push_back('|');
  key.append(reinterpret_cast<const char*>(query.rows.data()),
             query.rows.size() * sizeof(uint64_t));
  return key;
}

}  // namespace

std::vector<EngineResult> HybridEngine::ExecuteBatch(
    const std::vector<EngineQuery>& queries) const {
  AB_SPAN("engine/execute_batch");
  std::vector<EngineResult> results(queries.size());
  if (queries.empty()) return results;
  if (queries.size() == 1) {
    results[0] = ExecuteImpl(queries[0], pool_.get());
    return results;
  }
  // Collapse identical queries: the first occurrence becomes the unique
  // representative, later ones remember its position. Under a skewed
  // request mix this is the batch's main amortization.
  std::unordered_map<std::string, size_t> seen;
  std::vector<size_t> unique;            // indices of representatives
  std::vector<size_t> dup_of(queries.size(), SIZE_MAX);
  unique.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] = seen.emplace(QueryKey(queries[i]), i);
    if (inserted) {
      unique.push_back(i);
    } else {
      dup_of[i] = it->second;
    }
  }
  AB_STATS_ADD(obs::Counter::kEngineBatchDedupHits,
               queries.size() - unique.size());
  if (pool_ != nullptr && unique.size() > 1) {
    // One pool dispatch for the whole batch. Workers claim one query at a
    // time (costs vary by orders of magnitude between a 100-row subset
    // and a whole-relation scan); each query runs its single-threaded
    // path — a worker coordinating a nested ParallelFor on the same pool
    // could deadlock with every worker waiting.
    pool_->ParallelForDynamic(0, unique.size(), [&](uint64_t u) {
      size_t i = unique[u];
      results[i] = ExecuteImpl(queries[i], nullptr);
    });
  } else {
    for (size_t i : unique) {
      results[i] = ExecuteImpl(queries[i], pool_.get());
    }
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (dup_of[i] != SIZE_MAX) results[i] = results[dup_of[i]];
  }
  return results;
}

}  // namespace engine
}  // namespace abitmap
