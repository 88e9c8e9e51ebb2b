#include "core/approximate_bitmap.h"

#include <algorithm>
#include <utility>

#include "obs/stats.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/simd.h"

namespace abitmap {
namespace ab {

namespace {

/// Upper bound on k; keeps probe buffers on the stack. The theoretical
/// optimum k = alpha * ln 2 stays far below this for any practical alpha.
constexpr int kMaxHashFunctions = 64;

#if !defined(AB_DISABLE_STATS)
/// Publishes one scalar Test's accounting with a single TLS fetch:
/// the cell, the probes actually hashed/read, and the probes the early
/// exit skipped.
inline void PublishScalarTest(size_t resolved, size_t k) {
  obs::internal::ThreadStatsBlock* b = obs::internal::TlsBlock();
  b->Add(obs::Counter::kAbCellsTested, 1);
  b->Add(obs::Counter::kAbProbesResolved, resolved);
  b->Add(obs::Counter::kAbProbesShortCircuited, k - resolved);
}
#endif

/// Filter size (bits) above which the batched kernel issues software
/// prefetches — ~2 MiB, past typical L2. Below this the filter is
/// cache-resident and the prefetch pass costs more than it hides.
constexpr uint64_t kPrefetchMinFilterBits = uint64_t{1} << 24;

/// The batched insert loop of both build targets, over their store:
/// a window's probe positions are hashed with one ProbesBatch virtual
/// dispatch, every target line of a large filter gets a write-intent
/// prefetch, and then `store(pos)` sets each probe.
template <typename Store>
void InsertBatchWith(const hash::HashFamily& family, int k,
                     util::BitVector* bits, const uint64_t* keys,
                     const hash::CellRef* cells, size_t count,
                     const Store& store) {
  constexpr size_t kWindow = ApproximateBitmap::kBatchWindow;
  const size_t probes_per_cell = static_cast<size_t>(k);
  const uint64_t n = bits->size();
  const bool want_prefetch = n >= kPrefetchMinFilterBits;
  uint64_t probes[kWindow * kMaxHashFunctions];
  for (size_t base = 0; base < count; base += kWindow) {
    const size_t w = std::min(kWindow, count - base);
    family.ProbesBatch(keys + base, cells + base, w, probes_per_cell, n,
                       probes);
    const size_t num_probes = w * probes_per_cell;
    if (want_prefetch) {
      // Every target line before any store: the scattered
      // read-for-ownership misses overlap instead of forming a chain of
      // dependent store stalls.
      for (size_t j = 0; j < num_probes; ++j) {
        bits->PrefetchBitWrite(probes[j]);
      }
    }
    for (size_t j = 0; j < num_probes; ++j) store(probes[j]);
  }
}

}  // namespace

ApproximateBitmap::ApproximateBitmap(
    const AbParams& params, std::shared_ptr<const hash::HashFamily> family)
    : bits_(params.n_bits), k_(params.k), family_(std::move(family)) {
  AB_CHECK_GE(params.n_bits, 8u);
  AB_CHECK_GE(params.k, 1);
  AB_CHECK_LE(params.k, kMaxHashFunctions);
  AB_CHECK(family_ != nullptr);
}

void ApproximateBitmap::Insert(uint64_t key, const hash::CellRef& cell) {
  uint64_t probes[kMaxHashFunctions];
  family_->Probes(key, cell, k_, bits_.size(), probes);
  for (int t = 0; t < k_; ++t) {
    bits_.Set(probes[t]);
  }
  ++insertions_;
  AB_STATS_INC(obs::Counter::kAbCellsInserted);
}

void ApproximateBitmap::InsertBatch(const uint64_t* keys,
                                    const hash::CellRef* cells,
                                    size_t count) {
  InsertBatchWith(*family_, k_, &bits_, keys, cells, count,
                  [this](uint64_t pos) { bits_.Set(pos); });
  insertions_ += count;
  AB_STATS_ADD(obs::Counter::kAbCellsInserted, count);
}

ApproximateBitmap::BuildShard::BuildShard(const ApproximateBitmap& proto)
    : bits_(proto.bits_.size()),
      touched_(util::CeilDiv(
                   util::CeilDiv(proto.bits_.words().size(),
                                 kMergeGranuleWords),
                   64),
               0),
      k_(proto.k_),
      family_(proto.family_) {}

void ApproximateBitmap::BuildShard::InsertBatch(const uint64_t* keys,
                                                const hash::CellRef* cells,
                                                size_t count) {
  InsertBatchWith(*family_, k_, &bits_, keys, cells, count,
                  [this](uint64_t pos) {
                    // Granule index: bit -> word (>>6) -> granule.
                    const size_t g = (pos >> 6) / kMergeGranuleWords;
                    touched_[g >> 6] |= uint64_t{1} << (g & 63);
                    bits_.Set(pos);
                  });
  insertions_ += count;
}

uint64_t ApproximateBitmap::MergeShardRange(const BuildShard& shard,
                                            size_t word_begin,
                                            size_t word_end) {
  AB_CHECK_EQ(bits_.size(), shard.bits_.size());
  AB_CHECK_EQ(k_, shard.k_);
  size_t num_words = bits_.words().size();
  word_end = std::min(word_end, num_words);
  if (word_begin >= word_end) return 0;
  uint64_t merged = 0;
  size_t g_begin = word_begin / kMergeGranuleWords;
  size_t g_end = util::CeilDiv(word_end, kMergeGranuleWords);
  for (size_t g = g_begin; g < g_end; ++g) {
    if (((shard.touched_[g >> 6] >> (g & 63)) & 1) == 0) continue;
    size_t b = std::max(word_begin, g * kMergeGranuleWords);
    size_t e = std::min(word_end, (g + 1) * kMergeGranuleWords);
    bits_.OrRangeWith(shard.bits_, b, e);
    merged += e - b;
  }
  AB_STATS_ADD(obs::Counter::kBuildMergeWordsOred, merged);
  AB_STATS_ADD(obs::Counter::kBuildMergeWordsSkipped,
               (word_end - word_begin) - merged);
  return merged;
}

void ApproximateBitmap::AbsorbShardCount(const BuildShard& shard) {
  insertions_ += shard.insertions_;
  AB_STATS_ADD(obs::Counter::kAbCellsInserted, shard.insertions_);
  AB_STATS_HIST(obs::Histogram::kBuildShardCells, shard.insertions_);
}

bool ApproximateBitmap::Test(uint64_t key, const hash::CellRef& cell) const {
  if (family_->PrefersLazyProbes()) {
    // Figure 5 with early exit on the first zero probe: a negative cell
    // costs ~1/(zero-bit fraction) hash evaluations, not k.
    for (int t = 0; t < k_; ++t) {
      if (!bits_.Get(family_->ProbeAt(key, cell, t, bits_.size()))) {
#if !defined(AB_DISABLE_STATS)
        PublishScalarTest(static_cast<size_t>(t) + 1,
                          static_cast<size_t>(k_));
#endif
        return false;
      }
    }
#if !defined(AB_DISABLE_STATS)
    PublishScalarTest(static_cast<size_t>(k_), static_cast<size_t>(k_));
#endif
    return true;
  }
  // Eager families (one wide digest) get the same early-exit shape: probe
  // positions are pulled one hashing chunk at a time, so a negative cell
  // rejected in the first chunk never pays for the digests behind the
  // remaining k - chunk positions.
  uint64_t probes[kMaxHashFunctions];
  size_t k = static_cast<size_t>(k_);
  size_t chunk = family_->ProbesPerChunk(k, bits_.size());
  if (chunk < 1) chunk = 1;
  for (size_t base = 0; base < k; base += chunk) {
    size_t end = std::min(k, base + chunk);
    family_->ProbesRange(key, cell, base, end, bits_.size(), probes);
    for (size_t t = 0; t < end - base; ++t) {
      if (!bits_.Get(probes[t])) {
#if !defined(AB_DISABLE_STATS)
        PublishScalarTest(base + t + 1, k);
#endif
        return false;
      }
    }
  }
#if !defined(AB_DISABLE_STATS)
  PublishScalarTest(k, k);
#endif
  return true;
}

void ApproximateBitmap::TestBatch(const uint64_t* keys,
                                  const hash::CellRef* cells, size_t count,
                                  uint8_t* out) const {
  for (size_t base = 0; base < count; base += kBatchWindow) {
    size_t w = std::min(kBatchWindow, count - base);
    uint64_t mask = TestBatchMask(keys + base, cells + base, w);
    for (size_t i = 0; i < w; ++i) {
      out[base + i] = static_cast<uint8_t>((mask >> i) & 1);
    }
  }
}

uint64_t ApproximateBitmap::TestBatchMask(const uint64_t* keys,
                                          const hash::CellRef* cells,
                                          size_t count,
                                          ProbeStats* stats) const {
#if defined(AB_DISABLE_STATS)
  (void)stats;
#endif
  AB_DCHECK(count <= kBatchWindow);
  if (count == 0) return 0;
  size_t k = static_cast<size_t>(k_);
  uint64_t n = bits_.size();
  // Rounds hashed per refill. Hashing all k probes up front would cost a
  // window of negatives ~k/2 times the scalar lazy hashing (a negative
  // dies after ~1/(1-fill) probes), which swamps the batching gains
  // whenever the filter is cache-resident. Lazy families therefore hash
  // two rounds at a time (most lanes are dead after the second round at
  // any sane fill ratio); eager families use their natural hashing chunk
  // (one SHA-1 digest's worth of positions).
  size_t chunk = family_->PrefersLazyProbes()
                     ? 2
                     : family_->ProbesPerChunk(k, n);
  chunk = std::min(std::max<size_t>(chunk, 1), k);
  // Prefetching only pays when the filter is too large to sit in cache;
  // for a cache-resident filter the pass is pure issue-slot overhead.
  const bool want_prefetch = n >= kPrefetchMinFilterBits;
  uint64_t alive = count == 64 ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
  // Refill scratch. The first refill probes every lane, so it reads the
  // caller's arrays in place; later refills compact the survivors so the
  // hash batch touches only cells that still need probing.
  uint64_t lane_keys[kBatchWindow];
  hash::CellRef lane_cells[kBatchWindow];
  uint8_t lane_of[kBatchWindow];
  uint64_t probes[kBatchWindow * kMaxHashFunctions];
#if !defined(AB_DISABLE_STATS)
  // Aggregated locally, published once per window: the kernel itself
  // carries no per-probe accounting.
  uint64_t probes_resolved = 0;
#endif
  for (size_t base = 0; base < k && alive; base += chunk) {
    size_t end = std::min(k, base + chunk);
    size_t width = end - base;
    const uint64_t* rkeys = keys;
    const hash::CellRef* rcells = cells;
    size_t m;
    if (base == 0) {
      m = count;
    } else {
      m = 0;
      uint64_t pending = alive;
      while (pending) {
        int i = __builtin_ctzll(pending);
        pending &= pending - 1;
        lane_keys[m] = keys[i];
        lane_cells[m] = cells[i];
        lane_of[m] = static_cast<uint8_t>(i);
        ++m;
      }
      rkeys = lane_keys;
      rcells = lane_cells;
    }
    family_->ProbesBatchRange(rkeys, rcells, m, base, end, n, probes);
    if (want_prefetch) {
      // Issue every prefetch before touching any word: the scattered
      // misses overlap instead of serializing one dependent load per
      // probe.
      for (size_t j = 0; j < m * width; ++j) {
        bits_.PrefetchBit(probes[j]);
      }
    }
    if (util::simd::ActiveSimdLevel() == util::simd::SimdLevel::kAvx2) {
      // Gather/blend resolve: fetch every probe bit of the chunk with the
      // vector gather kernel, then AND each lane's row. The chunk is small
      // (lazy families hash two rounds at a time) so skipping the scalar
      // path's intra-chunk early exit changes execution shape only — the
      // surviving-lane mask is identical.
      uint8_t bitvals[kBatchWindow * kMaxHashFunctions];
      util::simd::GatherBits(bits_.words().data(), probes, m * width,
                             bitvals);
#if !defined(AB_DISABLE_STATS)
      probes_resolved += m * width;  // the gather reads every chunk probe
#endif
      for (size_t j = 0; j < m; ++j) {
        uint8_t all = 1;
        for (size_t t = 0; t < width; ++t) all &= bitvals[j * width + t];
        if (!all) {
          size_t lane = base == 0 ? j : lane_of[j];
          alive &= ~(uint64_t{1} << lane);
        }
      }
      continue;
    }
    // Round-major resolve: probe round t retires for every still-alive
    // cell before round t+1 — the batched analogue of the scalar early
    // exit (lanes killed in round t skip their remaining loads).
    uint64_t live = m == 64 ? ~uint64_t{0} : (uint64_t{1} << m) - 1;
    for (size_t t = 0; t < width && live; ++t) {
      uint64_t pending = live;
#if !defined(AB_DISABLE_STATS)
      // Every lane still live at round start issues exactly one Get.
      probes_resolved += static_cast<uint64_t>(util::simd::PopCount64(live));
#endif
      while (pending) {
        int j = __builtin_ctzll(pending);
        pending &= pending - 1;
        if (!bits_.Get(probes[static_cast<size_t>(j) * width + t])) {
          live &= ~(uint64_t{1} << j);
          size_t lane = base == 0 ? static_cast<size_t>(j) : lane_of[j];
          alive &= ~(uint64_t{1} << lane);
        }
      }
    }
  }
#if !defined(AB_DISABLE_STATS)
  if (stats != nullptr) {
    // Aggregating caller: plain stack adds, no thread-local traffic.
    stats->cells_tested += count;
    stats->windows += 1;
    stats->probes_resolved += probes_resolved;
    stats->probes_short_circuited +=
        static_cast<uint64_t>(count) * k - probes_resolved;
  } else {
    obs::internal::ThreadStatsBlock* b = obs::internal::TlsBlock();
    b->Add(obs::Counter::kAbCellsTested, count);
    b->Add(obs::Counter::kAbBatchWindows, 1);
    b->Add(obs::Counter::kAbProbesResolved, probes_resolved);
    b->Add(obs::Counter::kAbProbesShortCircuited,
           static_cast<uint64_t>(count) * k - probes_resolved);
  }
#endif
  return alive;
}

double ApproximateBitmap::FillRatio() const {
  return static_cast<double>(bits_.Count()) /
         static_cast<double>(bits_.size());
}

double ApproximateBitmap::ExpectedFalsePositiveRate() const {
  return FalsePositiveRateExact(bits_.size(), insertions_, k_);
}

void ApproximateBitmap::Serialize(util::ByteWriter* out) const {
  out->WriteVarint(static_cast<uint64_t>(k_));
  out->WriteVarint(insertions_);
  out->WriteString(family_->name());
  bits_.Serialize(out);
}

util::StatusOr<ApproximateBitmap> ApproximateBitmap::Deserialize(
    util::ByteReader* in, std::shared_ptr<const hash::HashFamily> family) {
  AB_CHECK(family != nullptr);
  uint64_t k, insertions;
  std::string family_name;
  if (!in->ReadVarint(&k) || !in->ReadVarint(&insertions) ||
      !in->ReadString(&family_name)) {
    return util::Status::Corruption("ApproximateBitmap: truncated header");
  }
  if (k < 1 || k > 64) {
    return util::Status::Corruption("ApproximateBitmap: invalid k");
  }
  if (family_name != family->name()) {
    return util::Status::FailedPrecondition(
        "ApproximateBitmap: filter was built with hash family '" +
        family_name + "', not '" + family->name() + "'");
  }
  util::BitVector bits;
  util::Status status = util::BitVector::Deserialize(in, &bits);
  if (!status.ok()) return status;
  if (bits.size() < 8) {
    return util::Status::Corruption("ApproximateBitmap: filter too small");
  }
  return ApproximateBitmap(std::move(bits), static_cast<int>(k),
                           std::move(family), insertions);
}

MatrixFilter::MatrixFilter(const bitmap::BooleanMatrix& matrix,
                           const AbParams& params,
                           std::shared_ptr<const hash::HashFamily> family)
    : mapper_(CellMapper::RowAndColumn(matrix.cols())),
      filter_(params, std::move(family)) {
  // Figure 3: insert every set cell.
  for (uint64_t i = 0; i < matrix.rows(); ++i) {
    for (uint32_t j = 0; j < matrix.cols(); ++j) {
      if (matrix.Get(i, j)) {
        filter_.Insert(mapper_.Key(i, j), hash::CellRef{i, j});
      }
    }
  }
}

MatrixFilter::MatrixFilter(const std::vector<bitmap::Cell>& set_cells,
                           uint64_t rows, uint32_t cols,
                           const AbParams& params,
                           std::shared_ptr<const hash::HashFamily> family)
    : mapper_(CellMapper::RowAndColumn(cols)),
      filter_(params, std::move(family)) {
  for (const bitmap::Cell& c : set_cells) {
    AB_CHECK_LT(c.row, rows);
    AB_CHECK_LT(c.col, cols);
    filter_.Insert(mapper_.Key(c.row, c.col), hash::CellRef{c.row, c.col});
  }
}

bool MatrixFilter::Test(uint64_t row, uint32_t col) const {
  return filter_.Test(mapper_.Key(row, col), hash::CellRef{row, col});
}

std::vector<bool> MatrixFilter::Evaluate(
    const bitmap::CellQuery& query) const {
  std::vector<bool> out;
  out.reserve(query.size());
  for (const bitmap::Cell& c : query) {
    out.push_back(Test(c.row, c.col));
  }
  return out;
}

}  // namespace ab
}  // namespace abitmap
