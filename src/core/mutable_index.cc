#include "core/mutable_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/ab_theory.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "util/logging.h"

namespace abitmap {
namespace ab {

namespace {

/// Per-filter design cell counts for a generation sized from
/// `column_set_bits` — the same aggregation CountingAbIndex::BuildEmpty
/// sizes with, so FalsePositiveRateExact at these counts is the FP the
/// filters were *designed* to deliver (the drift budget's denominator).
std::vector<uint64_t> PerFilterCells(const bitmap::ColumnMapping& mapping,
                                     Level level,
                                     const std::vector<uint64_t>& counts) {
  uint32_t d = mapping.num_attributes();
  switch (level) {
    case Level::kPerDataset: {
      uint64_t total = 0;
      for (uint64_t s : counts) total += s;
      return {total};
    }
    case Level::kPerAttribute: {
      std::vector<uint64_t> cells(d, 0);
      for (uint32_t a = 0; a < d; ++a) {
        for (uint32_t b = 0; b < mapping.cardinality(a); ++b) {
          cells[a] += counts[mapping.GlobalColumn(a, b)];
        }
      }
      return cells;
    }
    case Level::kPerColumn:
      return counts;
  }
  AB_CHECK(false);
  return {};
}

uint64_t ScaleCount(uint64_t count, double factor) {
  double scaled = static_cast<double>(count) * factor;
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(scaled)));
}

}  // namespace

/// RAII pin of the current generation. Pin, re-check the slot index is
/// still current, else release and retry; the re-check's acquire load
/// pairs with the swapper's release store, so a successful pin proves the
/// slot's generation pointer (installed before the release store) is
/// visible and cannot be reused while the pin is held.
class MutableAbIndex::PinnedGen {
 public:
  explicit PinnedGen(const MutableAbIndex* index) {
    for (;;) {
      uint32_t s = index->current_slot_.load(std::memory_order_acquire);
      Slot& slot = index->slots_[s];
      slot.pins.fetch_add(1, std::memory_order_acquire);
      if (index->current_slot_.load(std::memory_order_acquire) == s) {
        slot_ = &slot;
        return;
      }
      slot.pins.fetch_sub(1, std::memory_order_release);
    }
  }
  ~PinnedGen() { slot_->pins.fetch_sub(1, std::memory_order_release); }
  PinnedGen(const PinnedGen&) = delete;
  PinnedGen& operator=(const PinnedGen&) = delete;

  const Generation& gen() const { return *slot_->gen; }

 private:
  Slot* slot_;
};

MutableAbIndex::MutableAbIndex(const Options& options,
                               std::vector<bitmap::AttributeInfo> attributes)
    : options_(options),
      attributes_(std::move(attributes)),
      mapping_(attributes_),
      live_chunks_(new std::atomic<std::atomic<uint64_t>*>[kMaxLiveChunks]) {
  AB_CHECK_GE(options_.fp_budget_factor, 1.0);
  AB_CHECK_GE(options_.regrow_headroom, 1.0);
  for (size_t c = 0; c < kMaxLiveChunks; ++c) {
    live_chunks_[c].store(nullptr, std::memory_order_relaxed);
  }
}

MutableAbIndex::~MutableAbIndex() {
  WaitForRebuild();
  for (uint32_t c = 0; c < live_chunks_allocated_; ++c) {
    delete[] live_chunks_[c].load(std::memory_order_relaxed);
  }
}

std::unique_ptr<MutableAbIndex::Generation> MutableAbIndex::MakeGeneration(
    const std::vector<uint64_t>& column_set_bits, uint64_t num_rows) const {
  auto gen = std::make_unique<Generation>(CountingAbIndex::BuildEmpty(
      attributes_, options_.config, column_set_bits, num_rows));
  size_t filters = gen->index.num_filters();
  gen->versions.reset(new Generation::Version[filters]);
  std::vector<uint64_t> design =
      PerFilterCells(mapping_, options_.config.level, column_set_bits);
  AB_CHECK_EQ(design.size(), filters);
  for (size_t f = 0; f < filters; ++f) {
    const CountingApproximateBitmap& filter = gen->index.filter(f);
    gen->design_fp = std::max(
        gen->design_fp, FalsePositiveRateExact(filter.num_counters(),
                                               design[f], filter.k()));
  }
  return gen;
}

void MutableAbIndex::InstallFirstGeneration(std::unique_ptr<Generation> gen) {
  slots_[0].gen = std::move(gen);
  current_slot_.store(0, std::memory_order_release);
}

std::unique_ptr<MutableAbIndex> MutableAbIndex::Build(
    const bitmap::BinnedDataset& dataset, const Options& options) {
  dataset.CheckValid();
  std::unique_ptr<MutableAbIndex> index(
      new MutableAbIndex(options, dataset.attributes));
  uint64_t n_rows = dataset.num_rows();
  uint32_t d = dataset.num_attributes();
  AB_CHECK_LT(n_rows, kLiveChunkRows * kMaxLiveChunks);

  std::vector<uint64_t> counts(index->mapping_.num_columns(), 0);
  for (uint32_t a = 0; a < d; ++a) {
    for (uint32_t v : dataset.values[a]) {
      ++counts[index->mapping_.GlobalColumn(a, v)];
    }
  }
  std::unique_ptr<Generation> gen = index->MakeGeneration(counts, n_rows);

  index->row_bins_.resize(n_rows * d);
  index->row_alive_.assign(n_rows, 1);
  std::vector<uint32_t> bins(d);
  for (uint64_t row = 0; row < n_rows; ++row) {
    for (uint32_t a = 0; a < d; ++a) {
      bins[a] = dataset.values[a][row];
      index->row_bins_[row * d + a] = bins[a];
    }
    gen->index.InsertRowAt(row, bins);
  }
  index->InstallFirstGeneration(std::move(gen));

  // Live bits: every built row starts live. No readers yet, so plain
  // relaxed stores suffice; committed_rows_'s release store publishes.
  {
    std::lock_guard<std::mutex> lock(index->mu_);
    for (uint64_t row = 0; row < n_rows; ++row) {
      index->EnsureLiveChunkLocked(row);
      index->LiveWord(row)->fetch_or(uint64_t{1} << (row % 64),
                                     std::memory_order_relaxed);
    }
  }
  index->live_count_.store(n_rows, std::memory_order_relaxed);
  index->committed_rows_.store(n_rows, std::memory_order_release);
  return index;
}

std::unique_ptr<MutableAbIndex> MutableAbIndex::BuildEmpty(
    const std::vector<bitmap::AttributeInfo>& attributes,
    const Options& options, uint64_t expected_rows) {
  std::unique_ptr<MutableAbIndex> index(
      new MutableAbIndex(options, attributes));
  expected_rows = std::max<uint64_t>(expected_rows, 64);
  // Expected rows spread uniformly over each attribute's bins — the best
  // guess available before any data arrives; drift rebuilds correct it.
  std::vector<uint64_t> counts(index->mapping_.num_columns(), 0);
  for (uint32_t a = 0; a < index->mapping_.num_attributes(); ++a) {
    uint32_t card = std::max<uint32_t>(index->mapping_.cardinality(a), 1);
    for (uint32_t b = 0; b < index->mapping_.cardinality(a); ++b) {
      counts[index->mapping_.GlobalColumn(a, b)] =
          std::max<uint64_t>(1, expected_rows / card);
    }
  }
  index->InstallFirstGeneration(index->MakeGeneration(counts, 0));
  return index;
}

void MutableAbIndex::EnsureLiveChunkLocked(uint64_t row) {
  uint64_t chunk = row / kLiveChunkRows;
  AB_CHECK_LT(chunk, kMaxLiveChunks);
  while (live_chunks_allocated_ <= chunk) {
    auto* words = new std::atomic<uint64_t>[kLiveChunkRows / 64];
    for (size_t w = 0; w < kLiveChunkRows / 64; ++w) {
      words[w].store(0, std::memory_order_relaxed);
    }
    live_chunks_[live_chunks_allocated_].store(words,
                                               std::memory_order_release);
    ++live_chunks_allocated_;
  }
}

std::atomic<uint64_t>* MutableAbIndex::LiveWord(uint64_t row) const {
  std::atomic<uint64_t>* chunk =
      live_chunks_[row / kLiveChunkRows].load(std::memory_order_relaxed);
  AB_DCHECK(chunk != nullptr);
  return chunk + (row % kLiveChunkRows) / 64;
}

bool MutableAbIndex::RowLive(uint64_t row) const {
  if (row >= committed_rows_.load(std::memory_order_acquire)) return false;
  uint64_t word = LiveWord(row)->load(std::memory_order_acquire);
  return (word >> (row % 64)) & 1;
}

void MutableAbIndex::WriteRowCells(Generation* gen, uint64_t row,
                                   const uint32_t* bins, bool insert) {
  uint32_t d = mapping_.num_attributes();
  for (uint32_t a = 0; a < d; ++a) {
    CountingAbIndex::CellProbe probe = gen->index.ProbeFor(row, a, bins[a]);
    std::atomic<uint64_t>& version = gen->versions[probe.filter].v;
    uint64_t v = version.load(std::memory_order_relaxed);
    // Seqlock write window: odd version out, cells through release
    // stores (a reader whose acquire load sees one of them also sees the
    // odd version), even version out with release.
    version.store(v + 1, std::memory_order_relaxed);
    CountingApproximateBitmap* filter = gen->index.mutable_filter(probe.filter);
    if (insert) {
      filter->InsertAtomic(probe.key, probe.cell);
    } else {
      filter->RemoveAtomic(probe.key, probe.cell);
    }
    version.store(v + 2, std::memory_order_release);
  }
}

uint64_t MutableAbIndex::InsertRow(const std::vector<uint32_t>& bins) {
  uint32_t d = mapping_.num_attributes();
  AB_CHECK_EQ(bins.size(), d);
  bool start_rebuild = false;
  uint64_t row;
  {
    std::lock_guard<std::mutex> lock(mu_);
    row = row_alive_.size();
    AB_CHECK_LT(row, kLiveChunkRows * kMaxLiveChunks);
    row_bins_.insert(row_bins_.end(), bins.begin(), bins.end());
    row_alive_.push_back(1);
    EnsureLiveChunkLocked(row);

    Generation* gen =
        slots_[current_slot_.load(std::memory_order_relaxed)].gen.get();
    WriteRowCells(gen, row, bins.data(), /*insert=*/true);
    if (rebuilding_) delta_log_.push_back(DeltaOp{row, /*insert=*/true});

    // Publication order matters: cells (above), then the live bit
    // (release), then committed_rows_ (release). A reader that sees the
    // row live therefore sees all its cells — no false negative window.
    LiveWord(row)->fetch_or(uint64_t{1} << (row % 64),
                            std::memory_order_release);
    live_count_.fetch_add(1, std::memory_order_relaxed);
    committed_rows_.store(row + 1, std::memory_order_release);

    if (options_.auto_rebuild &&
        !rebuild_running_.load(std::memory_order_relaxed) &&
        NeedsRebuildLocked(*gen)) {
      rebuild_running_.store(true, std::memory_order_relaxed);
      start_rebuild = true;
    }
  }
  AB_STATS_INC(obs::Counter::kMutableInserts);
  if (start_rebuild) StartBackgroundRebuild();
  return row;
}

bool MutableAbIndex::DeleteRow(uint64_t row) {
  uint32_t d = mapping_.num_attributes();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (row >= row_alive_.size() || !row_alive_[row]) return false;
    row_alive_[row] = 0;
    // Clear the live bit *first*: a reader that still sees the row live
    // raced the delete and may observe pre-decrement counters (fine);
    // a reader that sees it dead skips the filters entirely. Either way
    // no live row loses a cell.
    LiveWord(row)->fetch_and(~(uint64_t{1} << (row % 64)),
                             std::memory_order_release);
    live_count_.fetch_sub(1, std::memory_order_relaxed);

    Generation* gen =
        slots_[current_slot_.load(std::memory_order_relaxed)].gen.get();
    WriteRowCells(gen, row, &row_bins_[row * d], /*insert=*/false);
    if (rebuilding_) delta_log_.push_back(DeltaOp{row, /*insert=*/false});
  }
  AB_STATS_INC(obs::Counter::kMutableDeletes);
  return true;
}

bool MutableAbIndex::TestCellIn(const Generation& gen, uint64_t row,
                                uint32_t attr, uint32_t bin) const {
  CountingAbIndex::CellProbe probe = gen.index.ProbeFor(row, attr, bin);
  const std::atomic<uint64_t>& version = gen.versions[probe.filter].v;
  int spins = 0;
  for (;;) {
    uint64_t v1 = version.load(std::memory_order_acquire);
    if ((v1 & 1) == 0) {
      // TestAtomic's counter loads are acquire: one that reads a store of
      // a later write window synchronizes with it, so this version load
      // sees that window's odd version (or newer) and the probe retries.
      bool hit = gen.index.filter(probe.filter)
                     .TestAtomic(probe.key, probe.cell);
      if (version.load(std::memory_order_relaxed) == v1) return hit;
    }
    // Torn or in-progress window: retry.
    reader_retries_.fetch_add(1, std::memory_order_relaxed);
    AB_STATS_INC(obs::Counter::kMutableReaderRetries);
    if (++spins > 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

bool MutableAbIndex::TestCell(uint64_t row, uint32_t attr,
                              uint32_t bin) const {
  PinnedGen pin(this);
  return TestCellIn(pin.gen(), row, attr, bin);
}

std::vector<bool> MutableAbIndex::Evaluate(
    const bitmap::BitmapQuery& query) const {
  PinnedGen pin(this);
  const Generation& gen = pin.gen();
  std::vector<uint64_t> all_rows;
  const std::vector<uint64_t>* rows = &query.rows;
  if (query.rows.empty()) {
    uint64_t committed = committed_rows_.load(std::memory_order_acquire);
    if (committed == 0) return {};
    all_rows = bitmap::RowRange(0, committed - 1);
    rows = &all_rows;
  }
  std::vector<bool> out;
  out.reserve(rows->size());
  for (uint64_t row : *rows) {
    if (!RowLive(row)) {
      out.push_back(false);
      continue;
    }
    bool and_part = true;
    for (const bitmap::AttributeRange& range : query.ranges) {
      bool or_part = false;
      for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
        if (TestCellIn(gen, row, range.attr, b)) {
          or_part = true;
          break;
        }
      }
      if (!or_part) {
        and_part = false;
        break;
      }
    }
    out.push_back(and_part);
  }
  return out;
}

bool MutableAbIndex::NeedsRebuildLocked(const Generation& gen) const {
  if (gen.design_fp <= 0) return false;
  double worst = 0;
  size_t filters = gen.index.num_filters();
  for (size_t f = 0; f < filters; ++f) {
    worst = std::max(worst, gen.index.filter(f).ExpectedFalsePositiveRate());
  }
  return worst > gen.design_fp * options_.fp_budget_factor;
}

double MutableAbIndex::WorstExpectedFp() const {
  PinnedGen pin(this);
  double worst = 0;
  size_t filters = pin.gen().index.num_filters();
  for (size_t f = 0; f < filters; ++f) {
    worst = std::max(worst,
                     pin.gen().index.filter(f).ExpectedFalsePositiveRate());
  }
  return worst;
}

double MutableAbIndex::DesignFp() const {
  PinnedGen pin(this);
  return pin.gen().design_fp;
}

bool MutableAbIndex::NeedsRebuild() const {
  PinnedGen pin(this);
  return NeedsRebuildLocked(pin.gen());
}

std::vector<MutableAbIndex::FilterStats> MutableAbIndex::FilterStatsSnapshot()
    const {
  PinnedGen pin(this);
  const CountingAbIndex& index = pin.gen().index;
  std::vector<FilterStats> stats;
  stats.reserve(index.num_filters());
  for (size_t f = 0; f < index.num_filters(); ++f) {
    const CountingApproximateBitmap& filter = index.filter(f);
    stats.push_back(
        FilterStats{filter.num_counters(), filter.LiveRelaxed(), filter.k()});
  }
  return stats;
}

uint64_t MutableAbIndex::SizeInBytes() const {
  PinnedGen pin(this);
  return pin.gen().index.SizeInBytes();
}

void MutableAbIndex::StartBackgroundRebuild() {
  std::lock_guard<std::mutex> lock(rebuild_thread_mu_);
  // The previous rebuild thread (if any) released the token before the
  // caller claimed it, leaving only its stats bookkeeping, so this join
  // is near-immediate; it reaps the handle.
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
  rebuild_thread_ = std::thread([this] { RunRebuild(); });
}

void MutableAbIndex::Rebuild() {
  for (;;) {
    bool expected = false;
    if (rebuild_running_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      break;
    }
    WaitForRebuild();
  }
  RunRebuild();
}

void MutableAbIndex::WaitForRebuild() {
  for (;;) {
    std::thread reaped;
    {
      std::lock_guard<std::mutex> lock(rebuild_thread_mu_);
      if (rebuild_thread_.joinable()) reaped = std::move(rebuild_thread_);
    }
    if (reaped.joinable()) reaped.join();
    if (!rebuild_running_.load(std::memory_order_acquire)) return;
    std::this_thread::yield();
  }
}

void MutableAbIndex::RunRebuild() {
  while (RebuildGeneration()) {
  }
}

bool MutableAbIndex::RebuildGeneration() {
  AB_SPAN("mutable/rebuild");
  auto start = std::chrono::steady_clock::now();
  uint32_t d = mapping_.num_attributes();
  bool again = false;

  // Phase 1 — snapshot the live set and open the delta log.
  std::vector<uint32_t> bins_snapshot;
  std::vector<uint8_t> alive_snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rebuilding_ = true;
    delta_log_.clear();
    bins_snapshot = row_bins_;
    alive_snapshot = row_alive_;
  }
  uint64_t snap_rows = alive_snapshot.size();

  // Phase 2 — build the regrown generation offline, no locks held.
  // Writers keep mutating the old generation; their ops land in the log.
  std::vector<uint64_t> counts(mapping_.num_columns(), 0);
  for (uint64_t row = 0; row < snap_rows; ++row) {
    if (!alive_snapshot[row]) continue;
    for (uint32_t a = 0; a < d; ++a) {
      ++counts[mapping_.GlobalColumn(a, bins_snapshot[row * d + a])];
    }
  }
  for (uint64_t& c : counts) c = ScaleCount(c, options_.regrow_headroom);
  std::unique_ptr<Generation> fresh = MakeGeneration(counts, snap_rows);
  uint64_t carried = 0;
  std::vector<uint32_t> bins(d);
  for (uint64_t row = 0; row < snap_rows; ++row) {
    if (!alive_snapshot[row]) continue;
    for (uint32_t a = 0; a < d; ++a) bins[a] = bins_snapshot[row * d + a];
    fresh->index.InsertRowAt(row, bins);
    ++carried;
  }

  // Phase 3 — replay racing mutations and swap, atomically w.r.t.
  // writers (same critical section, so no op can land old-gen-only).
  {
    AB_SPAN("mutable/rebuild_replay");
    std::lock_guard<std::mutex> lock(mu_);
    bool replayed = !delta_log_.empty();
    for (const DeltaOp& op : delta_log_) {
      for (uint32_t a = 0; a < d; ++a) bins[a] = row_bins_[op.row * d + a];
      if (op.insert) {
        fresh->index.InsertRowAt(op.row, bins);
      } else {
        fresh->index.DeleteRow(op.row, bins);
      }
    }
    delta_log_.clear();
    rebuilding_ = false;

    uint32_t cur = current_slot_.load(std::memory_order_relaxed);
    uint32_t target = (cur + 1) % kNumSlots;
    // The slot's old generation (kNumSlots swaps ago) may still be
    // pinned by a straggling reader; wait it out. Readers never block on
    // mu_, so this cannot deadlock.
    while (slots_[target].pins.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    slots_[target].gen = std::move(fresh);
    current_slot_.store(target, std::memory_order_release);
    generation_count_.fetch_add(1, std::memory_order_relaxed);
    // The replayed mutations can already push the regrown generation over
    // budget. Rebuild again then: no later insert may come to trigger it.
    // Otherwise the token is released under mu_, so an insert landing
    // after the swap sees it free and triggers the next rebuild itself.
    again = options_.auto_rebuild && replayed &&
            NeedsRebuildLocked(*slots_[target].gen);
    if (!again) rebuild_running_.store(false, std::memory_order_release);
  }

  AB_STATS_INC(obs::Counter::kMutableRebuilds);
  AB_STATS_ADD(obs::Counter::kMutableRebuildRows, carried);
  AB_STATS_HIST(obs::Histogram::kMutableRebuildNs,
                static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count()));
  return again;
}

}  // namespace ab
}  // namespace abitmap
