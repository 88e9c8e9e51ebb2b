#ifndef ABITMAP_CORE_APPROXIMATE_BITMAP_H_
#define ABITMAP_CORE_APPROXIMATE_BITMAP_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bitmap/boolean_matrix.h"
#include "core/ab_theory.h"
#include "core/cell_mapper.h"
#include "hash/hash_family.h"
#include "util/bitvector.h"
#include "util/statusor.h"

namespace abitmap {
namespace ab {

/// The Approximate Bitmap (AB) — the paper's core structure.
///
/// An AB is a Bloom-filter-like bit array of n bits (n a power of two in
/// the paper's experiments) into which every set bit of a boolean matrix is
/// inserted via k hash functions over the cell's hash string x = F(i, j).
/// Testing a cell probes the same k positions:
///  * any probe zero  -> the cell is definitely 0 (no false negatives);
///  * all probes one  -> the cell is reported 1, wrongly so with
///    probability (1 - e^{-k/alpha})^k (a false positive).
///
/// Retrieval of any subset of cells — rows, columns, rectangles, diagonals
/// — costs O(k) per cell, i.e. O(c) for a subset of cardinality c,
/// independent of the matrix dimensions. That direct access in compressed
/// form is what run-length-compressed bitmaps (WAH/BBC) give up.
///
/// The class is move-only: an AB over a large dataset is tens of megabytes
/// and accidental copies would dominate query benchmarks.
class ApproximateBitmap {
 public:
  /// Creates an empty AB of `params.n_bits` bits probing with `params.k`
  /// functions from `family`. The family is shared so one family instance
  /// can serve the many per-column ABs of a column-level index.
  ApproximateBitmap(const AbParams& params,
                    std::shared_ptr<const hash::HashFamily> family);

  ApproximateBitmap(ApproximateBitmap&&) = default;
  ApproximateBitmap& operator=(ApproximateBitmap&&) = default;
  ApproximateBitmap(const ApproximateBitmap&) = delete;
  ApproximateBitmap& operator=(const ApproximateBitmap&) = delete;

  /// Inserts the cell with hash string `key` (Figure 3, inner loop).
  void Insert(uint64_t key, const hash::CellRef& cell);

  /// Batched insert: equivalent to count scalar Insert calls, but the
  /// window's probe positions are hashed with one ProbesBatch virtual
  /// dispatch and every target cache line gets a write-intent prefetch
  /// before any store commits — the insert-side mirror of TestBatch.
  /// Unlike membership tests there is no early exit: every cell commits
  /// all k probes, so the full k-round batch hash is the natural shape.
  void InsertBatch(const uint64_t* keys, const hash::CellRef* cells,
                   size_t count);

  /// Words per dirty-tracking granule of a BuildShard (64 words = 512
  /// bytes = 8 cache lines). Coarse enough that the touched bitmap is
  /// 1/4096 of the filter, fine enough that a sparse shard's merge skips
  /// almost everything it never wrote.
  static constexpr size_t kMergeGranuleWords = 64;

  /// A worker-private build target for the shard-and-merge parallel
  /// build: the same bit-array shape as the filter it was cloned from,
  /// written with plain stores (no thread ever shares a shard), plus a
  /// touched-granule bitmap so the merge back into the real filter only
  /// ORs ranges this shard actually dirtied. Cheaper than a full
  /// ApproximateBitmap clone: no stats, no FP bookkeeping, and the merge
  /// is ranged rather than whole-filter.
  class BuildShard {
   public:
    /// An empty shard with `proto`'s shape (size, k, shared hash family).
    explicit BuildShard(const ApproximateBitmap& proto);

    BuildShard(BuildShard&&) = default;
    BuildShard& operator=(BuildShard&&) = default;

    /// Batched insert with plain stores; equivalent cell set to
    /// ApproximateBitmap::InsertBatch. Single-threaded per shard.
    void InsertBatch(const uint64_t* keys, const hash::CellRef* cells,
                     size_t count);

    uint64_t insertions() const { return insertions_; }

   private:
    friend class ApproximateBitmap;

    util::BitVector bits_;
    /// One bit per kMergeGranuleWords-word granule; set when any probe of
    /// this shard landed in the granule.
    std::vector<uint64_t> touched_;
    int k_;
    std::shared_ptr<const hash::HashFamily> family_;
    uint64_t insertions_ = 0;
  };

  /// ORs the shard's dirty granules that intersect word range
  /// [word_begin, word_end) into this filter with plain stores, skipping
  /// granules the shard never touched. Distinct word ranges are disjoint
  /// in memory, so a thread pool can merge one filter from many shards in
  /// parallel by giving each worker its own range. Returns the number of
  /// words actually ORed (the rest of the range was skipped as clean).
  /// Does not transfer the insertion count — call AbsorbShardCount once
  /// per shard after all ranges merged.
  uint64_t MergeShardRange(const BuildShard& shard, size_t word_begin,
                           size_t word_end);

  /// Adds the shard's insertion count (and publishes its per-shard load to
  /// the stats layer). Call exactly once per shard, after merging.
  void AbsorbShardCount(const BuildShard& shard);

  /// Tests the cell with hash string `key` (Figure 5, inner loop). True
  /// means "present with high probability"; false is exact.
  bool Test(uint64_t key, const hash::CellRef& cell) const;

  /// Window size of the batched membership kernel: large enough to cover
  /// DRAM latency with ~W*k outstanding prefetches, small enough that the
  /// probe buffer (W*k positions) stays in L1.
  static constexpr size_t kBatchWindow = 32;

  /// Batched membership: out[i] = Test(keys[i], cells[i]) ? 1 : 0, for all
  /// i in [0, count). Bit-identical to count scalar Test calls, but the
  /// cells are processed in windows of kBatchWindow and the probes are
  /// pulled round-lazily: a few probe rounds are hashed per ProbesBatchRange
  /// call (a single virtual dispatch for the whole window) for the cells
  /// still alive, every target word is prefetched before any is read, and
  /// rounds resolve round-major with dead lanes dropping out — so a window
  /// of negatives pays roughly the scalar lazy hashing cost while the
  /// memory misses overlap instead of serializing.
  void TestBatch(const uint64_t* keys, const hash::CellRef* cells,
                 size_t count, uint8_t* out) const;

  /// Local probe accounting for the observability layer. A caller running
  /// many windows passes one of these to TestBatchMask and publishes the
  /// totals itself (one thread-local write batch per evaluation instead of
  /// one per window); fields mirror the obs::Counter::kAb* taxonomy. In an
  /// AB_DISABLE_STATS build the struct exists but nothing writes to it.
  struct ProbeStats {
    uint64_t cells_tested = 0;
    uint64_t windows = 0;
    uint64_t probes_resolved = 0;
    uint64_t probes_short_circuited = 0;
  };

  /// One-window variant (count <= kBatchWindow): bit i of the result is
  /// Test(keys[i], cells[i]). This is the form the query-evaluation kernel
  /// consumes — its row masks AND/OR directly against the returned word.
  /// Probe accounting goes to `stats` when non-null (aggregating hot
  /// callers), otherwise straight to the process counters.
  uint64_t TestBatchMask(const uint64_t* keys, const hash::CellRef* cells,
                         size_t count, ProbeStats* stats = nullptr) const;

  uint64_t size_bits() const { return bits_.size(); }
  uint64_t SizeInBytes() const { return bits_.size() / 8; }
  int k() const { return k_; }
  uint64_t insertions() const { return insertions_; }

  /// Fraction of AB bits set — the load factor that drives the false
  /// positive rate (a fully saturated AB answers 1 everywhere).
  double FillRatio() const;

  /// Expected false positive rate from the *measured* state (uses the
  /// exact formula with the actual insertion count).
  double ExpectedFalsePositiveRate() const;

  const hash::HashFamily& family() const { return *family_; }

  /// The underlying bit array (serialization, diagnostics).
  const util::BitVector& bits() const { return bits_; }

  /// Appends the filter state to `out`. The hash family itself is not
  /// serialized — only its name, which Deserialize verifies against the
  /// family supplied at load time (probing with a different family than
  /// the one that inserted would silently produce false negatives).
  void Serialize(util::ByteWriter* out) const;

  /// Restores a filter written by Serialize, probing with `family`.
  static util::StatusOr<ApproximateBitmap> Deserialize(
      util::ByteReader* in, std::shared_ptr<const hash::HashFamily> family);

 private:
  ApproximateBitmap(util::BitVector bits, int k,
                    std::shared_ptr<const hash::HashFamily> family,
                    uint64_t insertions)
      : bits_(std::move(bits)),
        k_(k),
        family_(std::move(family)),
        insertions_(insertions) {}

  util::BitVector bits_;
  int k_;
  std::shared_ptr<const hash::HashFamily> family_;
  uint64_t insertions_ = 0;
};

/// Convenience wrapper implementing Section 3.1 end to end for a general
/// boolean matrix: encodes all set bits of `matrix` with F = CellMapper
/// over the matrix's columns, and answers cell-subset queries.
class MatrixFilter {
 public:
  /// Encodes `matrix` with the given parameters and hash family.
  MatrixFilter(const bitmap::BooleanMatrix& matrix, const AbParams& params,
               std::shared_ptr<const hash::HashFamily> family);

  /// Sparse construction: encodes an explicit set-cell list (COO form)
  /// for a rows x cols matrix — the natural input at the scales Section
  /// 3.1 targets, where materializing the dense matrix (rows*cols bits)
  /// would dwarf the filter itself. Duplicate cells are permitted (they
  /// set the same positions).
  MatrixFilter(const std::vector<bitmap::Cell>& set_cells, uint64_t rows,
               uint32_t cols, const AbParams& params,
               std::shared_ptr<const hash::HashFamily> family);

  /// Approximate value of one cell.
  bool Test(uint64_t row, uint32_t col) const;

  /// Approximate answer to a cell-subset query (Figure 5): one bit per
  /// queried cell, in order. Guaranteed superset of the exact answer.
  std::vector<bool> Evaluate(const bitmap::CellQuery& query) const;

  const ApproximateBitmap& filter() const { return filter_; }

 private:
  CellMapper mapper_;
  ApproximateBitmap filter_;
};

}  // namespace ab
}  // namespace abitmap

#endif  // ABITMAP_CORE_APPROXIMATE_BITMAP_H_
