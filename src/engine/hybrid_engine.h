#ifndef ABITMAP_ENGINE_HYBRID_ENGINE_H_
#define ABITMAP_ENGINE_HYBRID_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/ab_index.h"
#include "core/mutable_index.h"
#include "engine/exact_index.h"
#include "engine/table.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace abitmap {
namespace engine {

/// A conjunct over raw attribute values: attr's value in [lo, hi]
/// (inclusive). Translated to bin ranges internally; bins straddling the
/// bounds make the bin-level answer a superset, which the exact path
/// prunes against the raw values.
struct ValuePredicate {
  uint32_t attr = 0;
  double lo = 0;
  double hi = 0;
};

/// A query against the engine: a conjunction of value predicates evaluated
/// over a row subset (all rows when `rows` is empty).
struct EngineQuery {
  std::vector<ValuePredicate> predicates;
  std::vector<uint64_t> rows;
  /// When true (default) candidates are verified against the raw values,
  /// so the result is exact. When false the bin-granular candidate set is
  /// returned as-is (the paper's approximate-answer mode).
  bool exact = true;
};

/// Result of a query: matching row ids, plus which index answered it.
struct EngineResult {
  std::vector<uint64_t> row_ids;
  bool approximate = false;  ///< true if candidates were not pruned
  std::string path;          ///< "ab" or "exact"
  /// The query's execution profile: evaluation shape from the index
  /// kernels, candidate/verified counts from the collection pass, and the
  /// predicted-vs-observed precision pair (observed only in exact mode,
  /// where pruning reveals the truth).
  obs::QueryTrace trace;
};

/// The query router the paper's introduction implies: exact compressed
/// bitmaps win on whole-relation queries, the Approximate Bitmap wins when
/// the query names a small row subset ("executing a query that selects up
/// to around 15% of the rows by using AB is still faster"). HybridEngine
/// maintains both over one table — the AB plus a density-adaptive
/// ExactIndex whose per-column backend (WAH / BBC / Roaring) the selector
/// picks at build time — and routes each query by the fraction of rows it
/// touches. Plans that only touch AB-preferring (dense, incompressible)
/// columns get the paper's higher ~15% crossover.
class HybridEngine {
 public:
  /// Effective AB crossover for plans confined to kAb-preferring columns
  /// (the paper's "up to around 15% of the rows" regime).
  static constexpr double kAbPreferredCrossover = 0.15;

  struct Options {
    /// Discretization applied to every column.
    BinningSpec binning;
    /// AB configuration (level, alpha, k, scheme).
    ab::AbConfig ab;
    /// Exact-backend selection: "auto" (per-column density-adaptive
    /// selector) or a forced BackendChoiceName ("wah", "bbc", "roaring",
    /// "ab"). The AB_BACKEND environment variable, when set, wins over
    /// this field.
    std::string backend = "auto";
    /// Row-subset fraction below which the AB path is used. The paper's
    /// hardware put the crossover near 0.15; on this implementation the
    /// measured value is lower (see bench_fig14_wah_vs_ab) — calibrate
    /// with MeasureCrossover() or set explicitly.
    double crossover_fraction = 0.02;
    /// Worker threads for large AB evaluations and candidate
    /// verification. 0 picks util::DefaultThreadCount(); 1 disables the
    /// pool (every query runs on the calling thread).
    int num_threads = 0;
  };

  /// Builds both indexes. The table is retained for exact-answer pruning.
  static HybridEngine Build(Table table, const Options& options);

  /// Routes and executes a query.
  EngineResult Execute(const EngineQuery& query) const;

  /// Multi-query batch entry point — the serving frontend's dispatch
  /// unit. Routes and executes every query, returning results aligned
  /// with the input order, each with its own QueryTrace. Two
  /// amortizations over per-query Execute calls:
  ///   * identical queries (same predicates, rows, exact flag) are
  ///     detected and executed once, the result shared — under a skewed
  ///     (zipf) request mix a large batch collapses to its hot set
  ///     (counted by engine_batch_dedup_hits);
  ///   * unique queries are scheduled across the engine pool one query
  ///     per worker claim (ParallelForDynamic), one pool wakeup per batch
  ///     instead of per query; per-query execution then runs
  ///     single-threaded to keep one level of parallelism.
  /// Must be called from one coordinating thread at a time (the pool's
  /// Wait contract); the serve dispatcher is that thread.
  std::vector<EngineResult> ExecuteBatch(
      const std::vector<EngineQuery>& queries) const;

  /// Forces a specific path (benchmarking / tests). These predate
  /// streaming ingest and stay base-only: ingested rows and tombstones
  /// are not consulted. Execute/ExecuteBatch are mutation-aware.
  EngineResult ExecuteWithAb(const EngineQuery& query) const;
  EngineResult ExecuteWithExact(const EngineQuery& query) const;

  // --- Streaming ingest -------------------------------------------------
  //
  // The base table and its indexes stay immutable; ingested rows live in
  // a side store — raw values in append-only chunks, cells in a
  // MutableAbIndex delta (lock-free readers, α-drift auto-rebuild) —
  // and base-row deletes in an atomic tombstone bitmap. Execute and
  // ExecuteBatch merge: base result minus tombstones, plus verified
  // delta matches. Ingest/delete calls are internally synchronized and
  // may run concurrently with queries from other threads.

  /// Appends a row (one value per column); returns its engine row id
  /// (base rows keep ids [0, base_rows); ingested rows follow).
  uint64_t IngestRow(const std::vector<double>& values);

  /// Tombstones a row, base or ingested. Returns false if the id is
  /// unknown or the row is already dead.
  bool DeleteRow(uint64_t row);

  /// True if `row` is committed and not deleted.
  bool RowLive(uint64_t row) const;

  /// Committed rows: base + ingested (dead rows included — ids are
  /// permanent).
  uint64_t TotalRows() const;
  uint64_t base_rows() const { return table_.num_rows(); }

  struct IngestStats {
    uint64_t ingested = 0;           ///< rows ever ingested
    uint64_t deleted = 0;            ///< rows tombstoned (base + delta)
    uint64_t delta_live = 0;         ///< ingested rows still live
    uint64_t delta_generations = 0;  ///< delta-index rebuilds completed
    double delta_worst_fp = 0;       ///< delta effective-α expected FP
    /// Expected base-AB FP if the live delta were folded into a rebuilt
    /// base index — the "schedule an offline merge" signal.
    double base_fp_if_merged = 0;
  };
  IngestStats GetIngestStats() const;

  /// The delta index, or nullptr before the first committed ingest.
  /// IngestRow creates the delta under its mutex before it publishes the
  /// first row with a release store of `committed`, so the pointer is
  /// read only after an acquire load of `committed` sees a row.
  const ab::MutableAbIndex* delta_index() const {
    if (ingest_ == nullptr ||
        ingest_->committed.load(std::memory_order_acquire) == 0) {
      return nullptr;
    }
    return ingest_->delta.get();
  }

  /// Times both paths on a synthetic row-subset sweep and returns the
  /// fraction at which the exact arm overtakes the AB; also updates the
  /// routing threshold.
  double MeasureCrossover();

  const Table& table() const { return table_; }
  const bitmap::BinnedDataset& dataset() const { return discretized_.dataset; }
  uint64_t ExactSizeBytes() const { return exact_->SizeInBytes(); }
  uint64_t AbSizeBytes() const { return ab_->SizeInBytes(); }
  double crossover_fraction() const { return options_.crossover_fraction; }

  const ab::AbIndex& ab_index() const { return *ab_; }
  const ExactIndex& exact_index() const { return *exact_; }

 private:
  HybridEngine(Table table, const Options& options);

  /// Path bodies with an explicit pool: the public single-query methods
  /// pass the engine pool, ExecuteBatch passes nullptr inside its
  /// ParallelForDynamic workers (a pool worker must not coordinate a
  /// nested ParallelFor on the same pool — with every worker waiting,
  /// nobody would run the nested chunks).
  EngineResult ExecuteRouted(const EngineQuery& query,
                             util::ThreadPool* pool) const;
  /// The pre-ingest routing body (crossover-fraction dispatch over the
  /// base indexes only).
  EngineResult RouteBase(const EngineQuery& query,
                         util::ThreadPool* pool) const;
  /// Mutation-aware execution: base result minus tombstones, plus
  /// verified delta matches.
  EngineResult ExecuteMutable(const EngineQuery& query,
                              util::ThreadPool* pool) const;
  /// Evaluates `query` over the ingested rows (all committed when
  /// `rows_global` is null, else the listed engine ids) and appends the
  /// matches to `result`, updating its trace and the engine counters.
  void AppendDeltaMatches(const EngineQuery& query,
                          const std::vector<uint64_t>* rows_global,
                          EngineResult* result) const;
  bool HasMutations() const;
  EngineResult ExecuteAbImpl(const EngineQuery& query,
                             util::ThreadPool* pool) const;
  EngineResult ExecuteExactImpl(const EngineQuery& query,
                                util::ThreadPool* pool) const;

  /// Translates value predicates to bin ranges; returns false when a
  /// predicate selects no bins (empty result).
  bool ToBinQuery(const EngineQuery& query, bitmap::BitmapQuery* out) const;

  /// Verifies a candidate row against the raw values.
  bool RowMatches(uint64_t row, const EngineQuery& query) const;

  Table table_;
  Options options_;
  Table::Discretized discretized_;
  std::unique_ptr<ExactIndex> exact_;
  std::unique_ptr<ab::AbIndex> ab_;
  /// Shared by batched AB evaluation and exact-answer verification; null
  /// when options.num_threads resolves to 1.
  std::shared_ptr<util::ThreadPool> pool_;

  /// All mutation state, heap-held so the engine itself stays movable.
  /// Raw delta values live in fixed-capacity chunk arrays whose pointers
  /// are stored (program-order) before `committed` advances; readers
  /// acquire `committed` and then read committed rows with plain loads.
  struct IngestState {
    static constexpr uint64_t kChunkRows = 4096;
    static constexpr uint64_t kMaxChunks = 4096;  ///< ~16.7M delta rows

    std::mutex mu;  ///< serializes IngestRow/DeleteRow writers
    std::unique_ptr<ab::MutableAbIndex> delta;  ///< created on first ingest
    std::unique_ptr<std::atomic<double*>[]> chunks;
    uint64_t chunks_allocated = 0;  ///< under mu; dtor cleanup bound
    std::atomic<uint64_t> committed{0};   ///< ingested rows visible
    std::atomic<uint64_t> deletes{0};     ///< base + delta tombstones
    uint64_t last_generation = 0;         ///< under mu; rebuild delta
    /// Base-row tombstone bits, allocated on first base delete.
    std::atomic<std::atomic<uint64_t>*> base_tombstones{nullptr};
    std::atomic<uint64_t> base_deletes{0};

    IngestState();
    ~IngestState();
  };
  std::unique_ptr<IngestState> ingest_;
};

}  // namespace engine
}  // namespace abitmap

#endif  // ABITMAP_ENGINE_HYBRID_ENGINE_H_
