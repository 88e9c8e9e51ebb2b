#ifndef ABITMAP_CORE_AB_INDEX_H_
#define ABITMAP_CORE_AB_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bitmap/query.h"
#include "bitmap/schema.h"
#include "core/approximate_bitmap.h"
#include "core/cell_mapper.h"
#include "obs/trace.h"
#include "util/file_io.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace abitmap {
namespace ab {

/// The three resolutions the AB encoding can be applied at (Section 3.2):
/// one filter for the whole data set, one per attribute, or one per bitmap
/// column. Size/precision trade-offs are analyzed in Section 4.2: high
/// dimensionality favours per-data-set, skew favours per-attribute,
/// uniform distributions favour per-column.
enum class Level {
  kPerDataset,
  kPerAttribute,
  kPerColumn,
};

const char* LevelName(Level level);

/// Hash configuration for an index (Section 5.2).
enum class HashScheme {
  kIndependent,  ///< k functions from the general-purpose library (default)
  kSha1,         ///< one SHA-1 digest split into k pieces
  kDoubleHash,   ///< Kirsch–Mitzenmacher double hashing (extension)
  kCircular,     ///< the paper's Circular Hash (weak; hash-impact study)
  kColumnGroup,  ///< the paper's Column Group hash
};

const char* HashSchemeName(HashScheme scheme);

/// Build-time configuration of an AbIndex.
struct AbConfig {
  Level level = Level::kPerAttribute;
  /// Size parameter alpha = n/s. The paper sweeps powers of two, 2..16.
  double alpha = 8.0;
  /// Number of hash functions; 0 selects the theoretically optimal k.
  int k = 0;
  HashScheme scheme = HashScheme::kIndependent;
  /// When non-zero, forces every filter's size to exactly this many bits,
  /// ignoring alpha for sizing (alpha is then derived for reporting). Used
  /// by the hash-size sweep of Figure 10, which varies m = log2(n)
  /// directly.
  uint64_t n_bits_override = 0;
  /// When true (ablation only), the per-data-set/per-attribute mapper
  /// degenerates to F(i, j) = i — the failure mode of Section 3.2.2 where
  /// every probe hits bits set by some attribute of row i and the false
  /// positive rate approaches 1.
  bool degenerate_row_only_mapping = false;
  /// When true, Evaluate probes attributes in the order the query lists
  /// them instead of most-selective-first (the ordering ablation).
  bool preserve_query_order = false;
};

/// Per-level size accounting for a dataset at a given alpha, computed from
/// set-bit counts alone (Tables 4, 5 and 6 without building anything).
struct LevelSizeReport {
  uint64_t num_filters = 0;
  uint64_t single_bytes = 0;  ///< size of one AB (the largest, for context)
  uint64_t avg_bytes = 0;     ///< average AB size (per-column level)
  uint64_t total_bytes = 0;   ///< sum over all ABs
};

/// Computes the Table 4/5/6 row for `level` from the dataset's shape.
LevelSizeReport ComputeLevelSize(const bitmap::BinnedDataset& dataset,
                                 Level level, double alpha);

/// Section 4.2's decision rule: the level with the smallest total size at
/// this alpha.
Level ChooseLevel(const bitmap::BinnedDataset& dataset, double alpha);

/// Approximate Bitmap index over a binned relation. Holds one or more
/// ApproximateBitmap filters according to the configured level and answers
/// the paper's bitmap queries (attribute ranges over a row subset) with
/// the short-circuit evaluation of Figure 7.
class AbIndex {
 public:
  /// Builds one hash family; `num_groups` is the number of bitmap columns
  /// the target filter covers (used by the Column Group hash).
  using FamilyFactory =
      std::function<std::shared_ptr<const hash::HashFamily>(uint32_t)>;

  /// Encodes the dataset. Insertion order follows Figure 3 (column-major
  /// over the bitmap table).
  static AbIndex Build(const bitmap::BinnedDataset& dataset,
                       const AbConfig& config);

  /// Variant with a caller-supplied hash family (config.scheme is ignored).
  /// This is the extension point the hash-impact study uses to plug in
  /// single classic hash functions.
  static AbIndex Build(const bitmap::BinnedDataset& dataset,
                       const AbConfig& config, const FamilyFactory& factory);

  /// Multi-threaded build, bit-identical to the serial Build: a filter is
  /// a pure union of per-cell bit sets, and OR commutes, so neither the
  /// work split nor interleaving can change the result. The split follows
  /// from the level, the attribute count d and the worker count, with no
  /// option to override it:
  ///  * serial Build below kSerialCellFloor cells, at one worker, and at
  ///    the per-column level with d == 1;
  ///  * attribute ownership (one worker per attribute, plain stores, no
  ///    merge) at the per-column level with d >= 2 and at the
  ///    per-attribute level with d >= workers;
  ///  * private shards (each worker fills a private copy of the filter
  ///    from a row chunk, then the copies merge by disjoint word ranges)
  ///    at the per-dataset level and at the per-attribute level with
  ///    d < workers. Peak memory: workers x filter size.
  /// num_threads <= 1 falls back to the serial Build.
  static AbIndex BuildParallel(const bitmap::BinnedDataset& dataset,
                               const AbConfig& config, int num_threads);

  /// Variant with a caller-supplied hash family (config.scheme ignored).
  static AbIndex BuildParallel(const bitmap::BinnedDataset& dataset,
                               const AbConfig& config,
                               const FamilyFactory& factory, int num_threads);

  /// Variant reusing a caller-owned pool (the engine builds both of its
  /// indexes through one pool instead of paying thread spawn per build).
  /// A null or single-threaded pool falls back to the serial Build.
  static AbIndex BuildParallel(const bitmap::BinnedDataset& dataset,
                               const AbConfig& config,
                               const FamilyFactory& factory,
                               util::ThreadPool* pool);

  /// Pool variant with the default config.scheme hash families.
  static AbIndex BuildParallel(const bitmap::BinnedDataset& dataset,
                               const AbConfig& config, util::ThreadPool* pool);

  /// Worker count the num_threads BuildParallel overload will actually
  /// use: clamped to the row count and to the hardware concurrency. An
  /// oversubscribed CPU-bound build only pays context switches and cache
  /// thrash; the pool overload is the escape hatch for callers that want
  /// an exact worker count (tests exercising the parallel paths on small
  /// hosts, pools shared with other work).
  static int ClampBuildThreads(int num_threads, uint64_t num_rows);

  Level level() const { return config_.level; }
  const AbConfig& config() const { return config_; }
  const bitmap::ColumnMapping& mapping() const { return mapping_; }
  uint64_t num_rows() const { return num_rows_; }

  size_t num_filters() const { return filters_.size(); }
  const ApproximateBitmap& filter(size_t i) const { return filters_[i]; }

  /// Total size of all filters in bytes — the quantity compared against
  /// the WAH-compressed size throughout Section 6.
  uint64_t SizeInBytes() const;

  /// Approximate value of bitmap cell (row, attribute, bin). No false
  /// negatives: a true bitmap 1 is always reported 1.
  bool TestCell(uint64_t row, uint32_t attr, uint32_t bin) const;

  /// Figure 7: evaluates a bitmap query, one output bit per requested row
  /// (all rows when query.rows is empty). Within an attribute the bins are
  /// ORed with early exit on the first hit; across attributes the results
  /// are ANDed with early exit on the first miss. Cost is O(k) per cell
  /// probed — independent of the number of rows in the relation.
  ///
  /// Attributes are probed most-selective-first (fewest expected matches,
  /// from the stored bin histograms): the AND short-circuits as early as
  /// possible. Disable via config.preserve_query_order for the ablation.
  std::vector<bool> Evaluate(const bitmap::BitmapQuery& query) const;

  /// Batched Figure-7 evaluation, bit-identical to Evaluate. Rows are
  /// processed in windows of ApproximateBitmap::kBatchWindow: for each
  /// (attribute, bin) in the same most-selective-first plan, all rows
  /// still needing the probe are tested through TestBatchMask — one
  /// virtual hash dispatch and one prefetch pass per window instead of a
  /// dependent cache-missing load per probe. The scalar short-circuit
  /// semantics survive as mask bookkeeping: a row stops probing an
  /// attribute's bins at its first hit and drops out of the window at its
  /// first failed attribute.
  std::vector<bool> EvaluateBatched(const bitmap::BitmapQuery& query) const;

  /// Trace-collecting variant: fills `trace` (non-null) with the query's
  /// execution profile — rows evaluated, cells probed, probe windows,
  /// short-circuit savings, the shared plan's attribute count, the active
  /// SIMD dispatch level, and the ab_theory precision prediction. Same
  /// result bits as EvaluateBatched(query).
  std::vector<bool> EvaluateBatched(const bitmap::BitmapQuery& query,
                                    obs::QueryTrace* trace) const;

  /// Multi-threaded batched evaluation: shards the requested rows into
  /// contiguous chunks, one per pool worker, and runs the batched kernel
  /// per chunk. The per-row plan (most-selective-first attribute order)
  /// is shared by every chunk, so results are bit-identical to Evaluate.
  /// num_threads <= 1 falls back to EvaluateBatched.
  std::vector<bool> EvaluateParallel(const bitmap::BitmapQuery& query,
                                     int num_threads) const;

  /// Variant reusing a caller-owned pool (the engine keeps one alive
  /// across queries instead of paying thread spawn per call).
  std::vector<bool> EvaluateParallel(const bitmap::BitmapQuery& query,
                                     util::ThreadPool* pool) const;

  /// Trace-collecting variant of the pool evaluation. Worker chunks
  /// accumulate into `trace` with relaxed atomic adds (std::atomic_ref),
  /// so the totals are exact regardless of chunking.
  std::vector<bool> EvaluateParallel(const bitmap::BitmapQuery& query,
                                     util::ThreadPool* pool,
                                     obs::QueryTrace* trace) const;

  /// Analytic precision estimate for a query ("the false positive rate can
  /// be estimated and controlled" — the paper's abstract), computed from
  /// the stored bin histograms and each filter's expected cell-level false
  /// positive rate, assuming attribute independence:
  ///   P(row truly matches)    = prod_a sel_a
  ///   P(row reported)        ~= prod_a [sel_a + (1-sel_a)(1-(1-fp)^w_a)]
  ///   precision              ~= P(true) / P(reported)
  /// where sel_a is the fraction of rows in the attribute's queried bins
  /// and w_a the number of bins probed. Returns 1.0 for an empty query.
  double EstimateQueryPrecision(const bitmap::BitmapQuery& query) const;

  /// Rows in bin (attr, bin) — the histogram behind the estimator and the
  /// selectivity ordering.
  uint64_t ColumnSetBits(uint32_t attr, uint32_t bin) const {
    return column_set_bits_[mapping_.GlobalColumn(attr, bin)];
  }

  /// As-built expected FP of the worst filter, stored with the index.
  double built_fp() const { return built_fp_; }

  /// Appends the whole index (config, schema, all filters) to `out`.
  void Serialize(util::ByteWriter* out) const;

  /// Restores an index written by Serialize. Hash families are rebuilt
  /// from the stored scheme; each filter verifies that the rebuilt
  /// family matches the one it was built with. Indexes built with a
  /// custom FamilyFactory must pass the same factory to the overload.
  static util::StatusOr<AbIndex> Deserialize(util::ByteReader* in);
  static util::StatusOr<AbIndex> Deserialize(util::ByteReader* in,
                                             const FamilyFactory& factory);

  /// Convenience: envelope + atomic file write / checked file read.
  util::Status SaveToFile(const std::string& path) const;
  static util::StatusOr<AbIndex> LoadFromFile(const std::string& path);

 private:
  AbIndex(const AbConfig& config, bitmap::ColumnMapping mapping,
          uint64_t num_rows);

  /// Allocates the filters for the dataset without inserting anything.
  static AbIndex MakeSkeleton(const bitmap::BinnedDataset& dataset,
                              const AbConfig& config,
                              const FamilyFactory& factory);

  /// Inserts attribute `a`'s cells of rows [row_begin, row_end) into the
  /// index's own filters. Per-dataset/per-attribute cells all route to
  /// one filter and go through the batched kernel (one ProbesBatch
  /// dispatch + one write-prefetch pass per window); per-column routing is
  /// per-cell, so those filters take the scalar path (they are small and
  /// cache-resident). Writes only filters attribute `a` can reach at the
  /// per-attribute and per-column levels.
  void InsertAttributeCells(const bitmap::BinnedDataset& dataset, uint32_t a,
                            uint64_t row_begin, uint64_t row_end);

  /// The staging loop shared by the batched insert paths: maps attribute
  /// `a`'s cells of rows [row_begin, row_end) to (key, cell) pairs in
  /// fixed-size windows and hands each window to `sink(keys, cells,
  /// count)` (the index's own filter, or a private build shard).
  template <typename Sink>
  void ForEachAttributeCellBatch(const bitmap::BinnedDataset& dataset,
                                 uint32_t a, uint64_t row_begin,
                                 uint64_t row_end, Sink&& sink) const;

  /// The two parallel bodies behind BuildParallel. Each populates this
  /// index's filters from the whole dataset using `pool`.
  void BuildAttributeOwner(const bitmap::BinnedDataset& dataset,
                           util::ThreadPool* pool);
  void BuildPrivateShards(const bitmap::BinnedDataset& dataset,
                          util::ThreadPool* pool);

  /// Index of the filter responsible for a global column.
  size_t Route(uint32_t attr, uint32_t global_col) const;

  /// The probe plan shared by all Evaluate variants: pointers into
  /// query.ranges, most-selective-first unless preserve_query_order.
  std::vector<const bitmap::AttributeRange*> MakePlan(
      const bitmap::BitmapQuery& query) const;

  /// The batched kernel: evaluates the plan for rows[0..count), writing
  /// 0/1 into out[0..count). Thread-safe over disjoint output ranges.
  /// Probe accounting aggregates in locals and publishes once per call:
  /// to the process counters, and into `trace` (when non-null) via
  /// relaxed atomic adds so concurrent chunks may share one record.
  void EvaluateRowsBatched(
      const std::vector<const bitmap::AttributeRange*>& plan,
      const uint64_t* rows, size_t count, uint8_t* out,
      obs::QueryTrace* trace) const;

  /// Rows matching an attribute range, from the bin histograms.
  uint64_t RangeSelectivityRows(const bitmap::AttributeRange& range) const;

  /// Largest expected FP rate across filters at their insertion counts.
  double WorstExpectedFp() const;

  /// As-built expected FP of the worst filter.
  double built_fp_ = 0;

  AbConfig config_;
  bitmap::ColumnMapping mapping_;
  uint64_t num_rows_;
  CellMapper mapper_;
  std::vector<ApproximateBitmap> filters_;
  /// Rows per bitmap column (bin histogram).
  std::vector<uint64_t> column_set_bits_;
};

}  // namespace ab
}  // namespace abitmap

#endif  // ABITMAP_CORE_AB_INDEX_H_
