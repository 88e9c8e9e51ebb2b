#ifndef ABITMAP_CORE_MUTABLE_INDEX_H_
#define ABITMAP_CORE_MUTABLE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bitmap/query.h"
#include "bitmap/schema.h"
#include "core/counting_index.h"

namespace abitmap {
namespace ab {

/// Streaming-ingest Approximate Bitmap index: a CountingAbIndex that rows
/// can be inserted into and deleted from *while readers query it*, with
/// readers running lock-free.
///
/// The paper's encoding is build-once ("most of the large scientific data
/// sets are read-only, so we know the parameter s"); under live traffic s
/// keeps moving, and with it the effective α = n/s that the precision
/// model (1 - e^{-k/α})^k is priced on. This class keeps that model
/// honest for a mutating relation:
///
///  - **Writers** (serialized by an internal mutex) insert/delete rows in
///    the counting filters of the current *generation*. Every filter
///    carries a seqlock version counter: a row mutation bumps the touched
///    filter's version odd, applies the cell updates through release
///    stores, then publishes the even version with release ordering —
///    the protocol of obs::SeqlockRing, with no fences, so TSan models it.
///  - **Readers** never lock. A probe snapshots the filter version (spins
///    past odd = write in progress), tests the cells through acquire
///    loads, then revalidates the version; a torn window is retried. Row visibility is a separate atomic live-bit set: insert
///    publishes filter cells *before* the live bit, delete clears the
///    live bit *before* decrementing cells, so a reader that observes a
///    row live is guaranteed its cells are present — the no-false-negative
///    contract extends to concurrent mutation.
///  - **Drift**: each filter's live cell count tracks the effective α.
///    When the worst filter's expected FP (ab_theory's exact model) drifts
///    past `fp_budget_factor` x its as-designed rate, a background thread
///    rebuilds a regrown generation (live rows only, sized with
///    `regrow_headroom`), replays the mutations that raced with the
///    rebuild from a delta log, and swaps it in behind an atomic slot
///    index — in-flight queries pin their generation and finish on the
///    old one.
///
/// Generations live in a small fixed array of *permanent* slots, each with
/// a pin count. Readers pin (fetch_add), re-check the current slot index,
/// and only then dereference; the swapper reuses a slot only once its pin
/// count is zero. Slot storage is type-stable, so the classic
/// load-then-pin race is harmless: a stale pin on a retired slot just
/// delays that slot's reuse.
class MutableAbIndex {
 public:
  struct Options {
    AbConfig config;
    /// Rebuild when worst expected FP > fp_budget_factor x the
    /// generation's as-designed FP (same contract as
    /// AbIndex::NeedsRebuild).
    double fp_budget_factor = 2.0;
    /// New generations size their filters for live_rows * regrow_headroom
    /// cells, leaving room to grow before the next rebuild.
    double regrow_headroom = 2.0;
    /// Start a background rebuild automatically when a mutation pushes
    /// the index past the budget. Explicit Rebuild() always works.
    bool auto_rebuild = true;
  };

  /// Builds generation 0 from a binned dataset (all rows live). The index
  /// is address-stable (readers hold interior pointers), hence the
  /// unique_ptr return.
  static std::unique_ptr<MutableAbIndex> Build(
      const bitmap::BinnedDataset& dataset, const Options& options);

  /// Starts empty over a schema, sized for `expected_rows` (minimum 64).
  /// Rows arrive via InsertRow; capacity grows by drift-triggered
  /// rebuilds.
  static std::unique_ptr<MutableAbIndex> BuildEmpty(
      const std::vector<bitmap::AttributeInfo>& attributes,
      const Options& options, uint64_t expected_rows);

  MutableAbIndex(MutableAbIndex&&) = delete;
  MutableAbIndex& operator=(MutableAbIndex&&) = delete;

  ~MutableAbIndex();

  /// Appends a row (bins[a] = the row's bin of attribute a); returns its
  /// permanent row id. Thread-safe against other writers and readers.
  uint64_t InsertRow(const std::vector<uint32_t>& bins);

  /// Deletes a row. Returns false if the row id is unknown or already
  /// dead. Thread-safe against other writers and readers.
  bool DeleteRow(uint64_t row);

  /// True if `row` is committed and not deleted. Lock-free.
  bool RowLive(uint64_t row) const;

  /// Approximate cell test (row, attr, bin) against the current
  /// generation — pure filter probe, no liveness gate, same one-sided
  /// guarantee as CountingAbIndex::TestCell for live rows. Lock-free.
  bool TestCell(uint64_t row, uint32_t attr, uint32_t bin) const;

  /// Figure 7 evaluation over committed rows; dead rows answer false
  /// (liveness is authoritative, so deleted rows never match). An empty
  /// query.rows means all committed rows. Lock-free; the whole query runs
  /// against one pinned generation.
  std::vector<bool> Evaluate(const bitmap::BitmapQuery& query) const;

  /// Forces a synchronous rebuild of the current live set (id-preserving,
  /// regrown with `regrow_headroom`).
  void Rebuild();

  /// Blocks until no background rebuild is running. Test hook.
  void WaitForRebuild();

  /// Row ids ever allocated (committed inserts; includes deleted rows).
  uint64_t num_rows() const {
    return committed_rows_.load(std::memory_order_acquire);
  }
  /// Rows currently live.
  uint64_t live_rows() const {
    return live_count_.load(std::memory_order_relaxed);
  }
  /// Completed generation swaps since construction.
  uint64_t generation() const {
    return generation_count_.load(std::memory_order_relaxed);
  }
  /// Seqlock retries readers have burned (torn-window evidence).
  uint64_t reader_retries() const {
    return reader_retries_.load(std::memory_order_relaxed);
  }
  /// True while a background rebuild is in flight (telemetry gauge).
  bool rebuild_running() const {
    return rebuild_running_.load(std::memory_order_relaxed);
  }

  /// Worst expected FP across the current generation's filters at their
  /// *live* cell counts — the effective-α health the drift budget gates
  /// on. Lock-free.
  double WorstExpectedFp() const;
  /// The current generation's as-designed FP (budget baseline).
  double DesignFp() const;
  /// True when WorstExpectedFp() exceeds the budget (what auto-rebuild
  /// triggers on).
  bool NeedsRebuild() const;

  /// Per-filter (num_counters, live, k) of the current generation —
  /// enough for a caller to price the exact FP model per filter (the 6σ
  /// statistical gate does). Lock-free snapshot.
  struct FilterStats {
    uint64_t num_counters;
    uint64_t live;
    int k;
  };
  std::vector<FilterStats> FilterStatsSnapshot() const;

  const Options& options() const { return options_; }
  const bitmap::ColumnMapping& mapping() const { return mapping_; }
  uint64_t SizeInBytes() const;

 private:
  /// One immutable-shape index + its seqlock versions. The filters'
  /// *contents* mutate in place (through the atomic cell ops); the shape
  /// (counter counts, k) is fixed for the generation's lifetime.
  struct Generation {
    explicit Generation(CountingAbIndex idx) : index(std::move(idx)) {}
    CountingAbIndex index;
    /// One seqlock version per filter, cache-line padded.
    struct alignas(64) Version {
      std::atomic<uint64_t> v{0};
    };
    std::unique_ptr<Version[]> versions;
    /// As-designed worst FP (what the filters were sized to deliver).
    double design_fp = 0;
  };

  static constexpr size_t kNumSlots = 4;
  struct Slot {
    std::atomic<uint64_t> pins{0};
    std::unique_ptr<Generation> gen;
  };

  /// RAII pin of the current generation (see class comment).
  class PinnedGen;

  MutableAbIndex(const Options& options,
                 std::vector<bitmap::AttributeInfo> attributes);

  std::unique_ptr<Generation> MakeGeneration(
      const std::vector<uint64_t>& column_set_bits, uint64_t num_rows) const;
  void InstallFirstGeneration(std::unique_ptr<Generation> gen);

  // Writer-side helpers; caller holds mu_.
  void WriteRowCells(Generation* gen, uint64_t row, const uint32_t* bins,
                     bool insert);
  void EnsureLiveChunkLocked(uint64_t row);
  bool NeedsRebuildLocked(const Generation& gen) const;
  void StartBackgroundRebuild();
  /// Holds the rebuild token: runs RebuildGeneration until it releases
  /// the token.
  void RunRebuild();
  /// One snapshot/build/replay/swap. Returns true when auto-rebuild must
  /// go again; otherwise it has released rebuild_running_ under mu_.
  bool RebuildGeneration();

  // Reader-side helpers (lock-free).
  std::atomic<uint64_t>* LiveWord(uint64_t row) const;
  bool TestCellIn(const Generation& gen, uint64_t row, uint32_t attr,
                  uint32_t bin) const;

  Options options_;
  std::vector<bitmap::AttributeInfo> attributes_;
  bitmap::ColumnMapping mapping_;

  mutable Slot slots_[kNumSlots];
  std::atomic<uint32_t> current_slot_{0};

  // Reader-visible state.
  std::atomic<uint64_t> committed_rows_{0};
  std::atomic<uint64_t> live_count_{0};
  std::atomic<uint64_t> generation_count_{0};
  mutable std::atomic<uint64_t> reader_retries_{0};
  /// Per-row live bits, chunked so growth never relocates published
  /// words. A chunk pointer is published (program-order) before
  /// committed_rows_ advances past its rows, so a reader's acquire load
  /// of committed_rows_ makes the pointer and the words visible.
  static constexpr size_t kLiveChunkRows = 1 << 16;
  static constexpr size_t kMaxLiveChunks = 1 << 12;  // 2^28 rows
  std::unique_ptr<std::atomic<std::atomic<uint64_t>*>[]> live_chunks_;
  uint32_t live_chunks_allocated_ = 0;  ///< under mu_; dtor cleanup bound

  // Writer state (all under mu_).
  std::mutex mu_;
  std::vector<uint32_t> row_bins_;   ///< attrs-per-row bin log, append-only
  std::vector<uint8_t> row_alive_;   ///< writer-side truth per row
  bool rebuilding_ = false;          ///< delta log active
  struct DeltaOp {
    uint64_t row;
    bool insert;
  };
  std::vector<DeltaOp> delta_log_;

  std::atomic<bool> rebuild_running_{false};
  std::thread rebuild_thread_;
  std::mutex rebuild_thread_mu_;  ///< guards rebuild_thread_ handle
};

}  // namespace ab
}  // namespace abitmap

#endif  // ABITMAP_CORE_MUTABLE_INDEX_H_
