#ifndef ABITMAP_ENGINE_HYBRID_ENGINE_H_
#define ABITMAP_ENGINE_HYBRID_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ab_index.h"
#include "engine/sliced_index.h"
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
  /// When true the result carries only `count`: no row ids are built.
  bool count_only = false;
};

/// Result of a query: matching row ids, plus which index answered it.
struct EngineResult {
  std::vector<uint64_t> row_ids;  ///< empty for a count_only query
  uint64_t count = 0;             ///< matching rows, count_only or not
  bool approximate = false;  ///< true if candidates were not pruned
  /// "exact" when the base index answered; "delta" when every requested
  /// row was an ingested one.
  std::string path;
  /// The query's execution profile: evaluation shape from the index
  /// kernels, candidate/verified counts from the collection pass, and the
  /// predicted-vs-observed precision pair (observed only in exact mode,
  /// where pruning reveals the truth).
  obs::QueryTrace trace;
};

/// The query engine over one table: a SlicedIndex of fine bin codes, plus
/// a verify of the candidates against the raw values. The paper routes
/// small row subsets to the Approximate Bitmap because run-length bitmaps
/// (WAH, BBC) lose direct access ("executing a query that selects up to
/// around 15% of the rows by using AB is still faster"). Bit slices keep
/// direct access, so every query here runs on the sliced index:
///  * each served equi-depth (or equi-width) bin splits into 16 equi-depth
///    sub-bins, and a predicate becomes the range of fine codes
///    [FineOf(lo), FineOf(hi)], compared most significant bit first
///    against each attribute's slices, 64K rows at a time;
///  * the compare's state after the bin bits is the bin-level mask, which
///    is the approximate answer and `trace.candidates`; its final state is
///    the fine answer, and only its rows in a predicate's two edge sub-bins
///    have their raw values read (every other fine row passes by
///    construction); a count is a popcount, row ids come from the words;
///  * a row subset groups its requested rows by 64-row word and compares
///    the slices once per word it touches, so the cost follows the subset.
/// No base AB is built: the AB-vs-WAH crossover measured on this
/// implementation is about 1% of the rows (EXPERIMENTS.md, Figure 14), and
/// direct access beat the AB in every cell of that sweep. Ingested rows
/// need no index either: they are scanned from what the engine stores for
/// them, each cell's raw value and served bin. src/core keeps the paper's
/// AB for the figure benches.
class HybridEngine {
 public:
  struct Options {
    /// Discretization applied to every column.
    BinningSpec binning;
    /// Not read: the engine builds no AB. Kept only so that callers which
    /// still set it compile.
    ab::AbConfig ab;
    /// Kept only for source compatibility: "auto", "" and "roaring" all
    /// build the same sliced index, and Build fails an AB_CHECK on any
    /// other value. No client byte or server flag reaches it.
    std::string backend = "auto";
    /// Worker threads for index construction and candidate verification.
    /// 0 picks util::DefaultThreadCount(); 1 disables the pool (every
    /// query runs on the calling thread).
    int num_threads = 0;
  };

  /// Builds the sliced index; `options.backend` must be "auto", "" or
  /// "roaring" (see Options::backend). The table is retained for
  /// exact-answer pruning.
  static HybridEngine Build(Table table, const Options& options);

  /// Executes a query.
  EngineResult Execute(const EngineQuery& query) const;

  // --- Streaming ingest -------------------------------------------------
  //
  // The base table and its index stay immutable. Ingested rows live in
  // append-only chunks that hold each cell's raw value and served bin,
  // and deletes, base or ingested, set one tombstone bit per engine id.
  // Execute merges: the base pass with its tombstone words masked out of
  // the rows it compares, plus a scan of the live ingested rows, so every
  // count and trace count covers live rows only. Ingest/delete calls are
  // internally synchronized and may run concurrently with queries from
  // other threads.

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
    uint64_t ingested = 0;    ///< rows ever ingested
    uint64_t deleted = 0;     ///< rows tombstoned (base + delta)
    uint64_t delta_live = 0;  ///< ingested rows still live
    /// Always 0: the delta has no index to rebuild. Kept so that reports
    /// which print them compile.
    uint64_t delta_generations = 0;
    double delta_worst_fp = 0;
  };
  IngestStats GetIngestStats() const;

  const Table& table() const { return table_; }
  /// Size of the index that answers base queries: the sliced codes.
  uint64_t ExactSizeBytes() const { return index_->SizeInBytes(); }
  /// Always 0: the engine holds no AB. Kept so index-size reports that
  /// add it stay valid.
  uint64_t AbSizeBytes() const { return 0; }

  const SlicedIndex& sliced_index() const { return *index_; }

 private:
  HybridEngine(Table table, const Options& options)
      : table_(std::move(table)), options_(options) {}

  /// The base index alone: ingested rows are not consulted, and
  /// tombstoned base rows are masked out of the pass when `mask_deleted`.
  EngineResult ExecuteExactImpl(const EngineQuery& query,
                                bool mask_deleted) const;
  /// Mutation-aware execution: the base pass less its tombstoned rows,
  /// plus verified delta matches.
  EngineResult ExecuteMutable(const EngineQuery& query) const;
  /// Scans the live ingested rows (all committed when `rows_global` is
  /// null, else the listed engine ids) and appends the matches to
  /// `result`, updating its trace and the engine counters.
  void AppendDeltaMatches(const EngineQuery& query,
                          const std::vector<uint64_t>* rows_global,
                          EngineResult* result) const;
  bool HasMutations() const;
  /// The tombstone bits of engine ids [w * 64, w * 64 + 64).
  uint64_t TombstoneWord(uint64_t w) const;
  /// Whether engine id `row` carries a tombstone.
  bool Tombstoned(uint64_t row) const;

  Table table_;
  Options options_;
  std::unique_ptr<SlicedIndex> index_;
  /// Shared by index construction and exact-answer verification; null
  /// when options.num_threads resolves to 1.
  std::shared_ptr<util::ThreadPool> pool_;

  /// All mutation state, heap-held so the engine itself stays movable.
  /// Ingested rows live in fixed-capacity chunks whose pointers are
  /// stored (program order) before `committed` advances; readers acquire
  /// `committed` and then read committed rows with plain loads.
  /// Tombstones are one bit per engine id, base and ingested alike, in
  /// chunks of kChunkRows ids that the first delete in them allocates and
  /// publishes with a release store.
  struct IngestState {
    static constexpr uint64_t kChunkRows = 4096;
    static constexpr uint64_t kMaxChunks = 4096;  ///< ~16.7M delta rows

    /// kChunkRows ingested rows, row-major: each cell's raw value and its
    /// served bin (NestedBinner::BinOf).
    struct Chunk {
      explicit Chunk(uint32_t cols)
          : values(new double[kChunkRows * cols]),
            bins(new uint32_t[kChunkRows * cols]) {}
      std::unique_ptr<double[]> values;
      std::unique_ptr<uint32_t[]> bins;
    };

    explicit IngestState(uint64_t base_rows);
    ~IngestState();

    std::mutex mu;  ///< serializes IngestRow/DeleteRow writers
    std::unique_ptr<std::atomic<Chunk*>[]> chunks;
    uint64_t chunks_allocated = 0;  ///< under mu; dtor cleanup bound
    std::atomic<uint64_t> committed{0};  ///< ingested rows visible
    /// kChunkRows / 64 words per chunk, over every id a row can take.
    std::unique_ptr<std::atomic<std::atomic<uint64_t>*>[]> tombstones;
    uint64_t tombstone_chunks = 0;
    std::atomic<uint64_t> base_deletes{0};
    std::atomic<uint64_t> delta_deletes{0};
  };
  std::unique_ptr<IngestState> ingest_;
};

}  // namespace engine
}  // namespace abitmap

#endif  // ABITMAP_ENGINE_HYBRID_ENGINE_H_
