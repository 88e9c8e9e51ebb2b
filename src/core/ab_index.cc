#include "core/ab_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "core/ab_theory.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/simd.h"

namespace abitmap {
namespace ab {

namespace {

/// Fills the trace fields every evaluation variant shares: the shape of
/// the shared plan, the analytic precision prediction, and the dispatch
/// level the kernels ran at. Probe-level fields are accumulated by the
/// kernel itself.
void FillEvalTrace(const AbIndex& index, const bitmap::BitmapQuery& query,
                   size_t plan_size, size_t rows, obs::QueryTrace* trace) {
  if (trace == nullptr) return;
  trace->rows_evaluated += rows;
  trace->attrs_in_plan = plan_size;
  trace->predicted_precision = index.EstimateQueryPrecision(query);
  trace->simd_level =
      util::simd::SimdLevelName(util::simd::ActiveSimdLevel());
}

/// Per-column set-bit histogram: entry [global column] = number of rows in
/// that bin.
std::vector<uint64_t> ComputeColumnHistogram(const bitmap::BinnedDataset& dataset,
                                    const bitmap::ColumnMapping& mapping) {
  std::vector<uint64_t> counts(mapping.num_columns(), 0);
  for (uint32_t a = 0; a < dataset.num_attributes(); ++a) {
    for (uint32_t v : dataset.values[a]) {
      ++counts[mapping.GlobalColumn(a, v)];
    }
  }
  return counts;
}

std::shared_ptr<const hash::HashFamily> MakeFamily(HashScheme scheme,
                                                   uint32_t num_groups) {
  switch (scheme) {
    case HashScheme::kIndependent:
      return hash::MakeIndependentFamily();
    case HashScheme::kSha1:
      return hash::MakeSha1Family();
    case HashScheme::kDoubleHash:
      return hash::MakeDoubleHashFamily();
    case HashScheme::kCircular:
      return hash::MakeCircularFamily();
    case HashScheme::kColumnGroup:
      return hash::MakeColumnGroupFamily(num_groups);
  }
  AB_CHECK(false);
  return nullptr;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kPerDataset:
      return "per-dataset";
    case Level::kPerAttribute:
      return "per-attribute";
    case Level::kPerColumn:
      return "per-column";
  }
  return "?";
}

const char* HashSchemeName(HashScheme scheme) {
  switch (scheme) {
    case HashScheme::kIndependent:
      return "independent";
    case HashScheme::kSha1:
      return "sha1";
    case HashScheme::kDoubleHash:
      return "double";
    case HashScheme::kCircular:
      return "circular";
    case HashScheme::kColumnGroup:
      return "column-group";
  }
  return "?";
}

LevelSizeReport ComputeLevelSize(const bitmap::BinnedDataset& dataset,
                                 Level level, double alpha) {
  bitmap::ColumnMapping mapping(dataset.attributes);
  uint64_t n_rows = dataset.num_rows();
  uint32_t d = dataset.num_attributes();
  LevelSizeReport report;
  switch (level) {
    case Level::kPerDataset: {
      uint64_t s = n_rows * d;
      report.num_filters = 1;
      report.single_bytes = AbSizeBits(s, alpha) / 8;
      report.avg_bytes = report.single_bytes;
      report.total_bytes = report.single_bytes;
      break;
    }
    case Level::kPerAttribute: {
      uint64_t per = AbSizeBits(n_rows, alpha) / 8;
      report.num_filters = d;
      report.single_bytes = per;
      report.avg_bytes = per;
      report.total_bytes = per * d;
      break;
    }
    case Level::kPerColumn: {
      std::vector<uint64_t> counts = ComputeColumnHistogram(dataset, mapping);
      report.num_filters = counts.size();
      uint64_t total = 0;
      uint64_t largest = 0;
      for (uint64_t s : counts) {
        // Empty bins still cost one minimal filter; use one byte floor.
        uint64_t bytes = s == 0 ? 1 : AbSizeBits(s, alpha) / 8;
        if (bytes == 0) bytes = 1;
        total += bytes;
        largest = std::max(largest, bytes);
      }
      report.single_bytes = largest;
      report.avg_bytes = counts.empty() ? 0 : total / counts.size();
      report.total_bytes = total;
      break;
    }
  }
  return report;
}

Level ChooseLevel(const bitmap::BinnedDataset& dataset, double alpha) {
  Level best = Level::kPerDataset;
  uint64_t best_bytes =
      ComputeLevelSize(dataset, Level::kPerDataset, alpha).total_bytes;
  for (Level level : {Level::kPerAttribute, Level::kPerColumn}) {
    uint64_t bytes = ComputeLevelSize(dataset, level, alpha).total_bytes;
    if (bytes < best_bytes) {
      best_bytes = bytes;
      best = level;
    }
  }
  return best;
}

AbIndex::AbIndex(const AbConfig& config, bitmap::ColumnMapping mapping,
                 uint64_t num_rows)
    : config_(config),
      mapping_(std::move(mapping)),
      num_rows_(num_rows),
      mapper_(config.level == Level::kPerColumn ||
                      config.degenerate_row_only_mapping
                  ? CellMapper::RowOnly()
                  : CellMapper::RowAndColumn(mapping_.num_columns())) {}

AbIndex AbIndex::Build(const bitmap::BinnedDataset& dataset,
                       const AbConfig& config) {
  HashScheme scheme = config.scheme;
  if (config.level == Level::kPerColumn) {
    AB_CHECK(scheme != HashScheme::kColumnGroup);
  }
  return Build(dataset, config, [scheme](uint32_t num_groups) {
    return MakeFamily(scheme, num_groups);
  });
}

AbIndex AbIndex::Build(const bitmap::BinnedDataset& dataset,
                       const AbConfig& config, const FamilyFactory& factory) {
  AB_SPAN("ab/build");
  obs::ScopedLatencyTimer timer(obs::Histogram::kBuildLatencyNs);
  AbIndex index = MakeSkeleton(dataset, config, factory);
  // Figure 3: insert every set bit of the bitmap table. Iterating the
  // dataset column-by-column visits exactly the set cells (one per
  // attribute per row) without materializing the table.
  for (uint32_t a = 0; a < dataset.num_attributes(); ++a) {
    index.InsertAttributeCells(dataset, a, 0, dataset.num_rows());
  }
  index.built_fp_ = index.WorstExpectedFp();
  AB_STATS_INC(obs::Counter::kIndexBuilds);
  AB_STATS_ADD(obs::Counter::kIndexRowsIndexed, dataset.num_rows());
  return index;
}

AbIndex AbIndex::BuildParallel(const bitmap::BinnedDataset& dataset,
                               const AbConfig& config, int num_threads) {
  HashScheme scheme = config.scheme;
  return BuildParallel(
      dataset, config,
      [scheme](uint32_t num_groups) { return MakeFamily(scheme, num_groups); },
      num_threads);
}

int AbIndex::ClampBuildThreads(int num_threads, uint64_t num_rows) {
  uint64_t threads =
      std::min<uint64_t>(std::max(num_threads, 1), num_rows);
  // A build is CPU-bound: more workers than cores only adds context
  // switches and cache thrash (measured 1.7x slower at 8 workers on one
  // core), never speed. Callers that really want an oversubscribed pool
  // can pass one to the pool overload, which takes it as given.
  threads = std::min<uint64_t>(
      threads, static_cast<uint64_t>(util::DefaultThreadCount()));
  return static_cast<int>(threads);
}

AbIndex AbIndex::BuildParallel(const bitmap::BinnedDataset& dataset,
                               const AbConfig& config,
                               const FamilyFactory& factory,
                               int num_threads) {
  AB_CHECK_GE(num_threads, 1);
  int threads = ClampBuildThreads(num_threads, dataset.num_rows());
  if (threads <= 1) return Build(dataset, config, factory);
  util::ThreadPool pool(threads);
  return BuildParallel(dataset, config, factory, &pool);
}

AbIndex AbIndex::BuildParallel(const bitmap::BinnedDataset& dataset,
                               const AbConfig& config,
                               util::ThreadPool* pool) {
  HashScheme scheme = config.scheme;
  return BuildParallel(
      dataset, config,
      [scheme](uint32_t num_groups) { return MakeFamily(scheme, num_groups); },
      pool);
}

namespace {

/// Below this many cells a parallel pass costs more in thread fan-out
/// than the inserts themselves.
constexpr uint64_t kSerialCellFloor = 8192;

}  // namespace

AbIndex AbIndex::BuildParallel(const bitmap::BinnedDataset& dataset,
                               const AbConfig& config,
                               const FamilyFactory& factory,
                               util::ThreadPool* pool) {
  int threads = pool == nullptr ? 1 : pool->num_threads();
  uint64_t d = dataset.num_attributes();
  if (threads <= 1 || dataset.num_rows() * d < kSerialCellFloor ||
      (config.level == Level::kPerColumn && d == 1)) {
    return Build(dataset, config, factory);
  }
  AB_SPAN("ab/build/parallel");
  obs::ScopedLatencyTimer timer(obs::Histogram::kBuildLatencyNs);
  AbIndex index = MakeSkeleton(dataset, config, factory);
  // Attribute ownership needs an attribute's cells to reach filters no
  // other attribute touches (true at the per-column and per-attribute
  // levels) and enough attributes to keep every worker busy; otherwise
  // row chunks fill private shards that merge afterwards.
  if (config.level == Level::kPerColumn ||
      (config.level == Level::kPerAttribute &&
       d >= static_cast<uint64_t>(threads))) {
    index.BuildAttributeOwner(dataset, pool);
  } else {
    index.BuildPrivateShards(dataset, pool);
  }
  index.built_fp_ = index.WorstExpectedFp();
  AB_STATS_INC(obs::Counter::kIndexBuildsParallel);
  AB_STATS_ADD(obs::Counter::kIndexRowsIndexed, dataset.num_rows());
  return index;
}

double AbIndex::WorstExpectedFp() const {
  double worst = 0;
  for (const ApproximateBitmap& f : filters_) {
    worst = std::max(worst, f.ExpectedFalsePositiveRate());
  }
  return worst;
}

AbIndex AbIndex::MakeSkeleton(const bitmap::BinnedDataset& dataset,
                              const AbConfig& config,
                              const FamilyFactory& factory) {
  dataset.CheckValid();
  AB_CHECK_GE(config.alpha, 1.0);
  AbIndex index(config, bitmap::ColumnMapping(dataset.attributes),
                dataset.num_rows());
  const bitmap::ColumnMapping& mapping = index.mapping_;
  uint64_t n_rows = dataset.num_rows();
  uint32_t d = dataset.num_attributes();
  index.column_set_bits_ = ComputeColumnHistogram(dataset, mapping);

  auto pick_k = [&config](double alpha) {
    return config.k > 0 ? config.k : OptimalK(alpha);
  };
  auto make_params = [&](uint64_t set_bits) {
    AbParams params = AbParams::ForAlpha(config.alpha, 1, set_bits);
    if (config.n_bits_override != 0) {
      params.n_bits = config.n_bits_override;
      params.alpha = static_cast<double>(params.n_bits) /
                     static_cast<double>(set_bits);
    }
    // The filter caps k at 64; the optimum exceeds that only for alpha
    // beyond any practical size budget.
    params.k = std::min(pick_k(params.alpha), 64);
    // Tiny filters still get a word-sized bit array.
    params.n_bits = std::max<uint64_t>(params.n_bits, 8);
    return params;
  };

  switch (config.level) {
    case Level::kPerDataset: {
      index.filters_.emplace_back(make_params(n_rows * d),
                                  factory(mapping.num_columns()));
      break;
    }
    case Level::kPerAttribute: {
      index.filters_.reserve(d);
      for (uint32_t a = 0; a < d; ++a) {
        index.filters_.emplace_back(make_params(n_rows),
                                    factory(mapping.cardinality(a)));
      }
      break;
    }
    case Level::kPerColumn: {
      std::shared_ptr<const hash::HashFamily> family = factory(1);
      index.filters_.reserve(index.column_set_bits_.size());
      for (uint64_t s : index.column_set_bits_) {
        index.filters_.emplace_back(make_params(std::max<uint64_t>(s, 1)),
                                    family);
      }
      break;
    }
  }

  (void)n_rows;
  return index;
}

namespace {

/// Cells buffered per batch-insert flush. A multiple of the filter's
/// hashing window; large enough that the loop bookkeeping amortizes,
/// small enough that the key/cell staging arrays stay in L1.
constexpr size_t kInsertBuffer = 256;

}  // namespace

template <typename Sink>
void AbIndex::ForEachAttributeCellBatch(const bitmap::BinnedDataset& dataset,
                                        uint32_t a, uint64_t row_begin,
                                        uint64_t row_end,
                                        Sink&& sink) const {
  const std::vector<uint32_t>& column_values = dataset.values[a];
  uint64_t keys[kInsertBuffer];
  hash::CellRef cells[kInsertBuffer];
  size_t m = 0;
  for (uint64_t i = row_begin; i < row_end; ++i) {
    uint32_t gcol = mapping_.GlobalColumn(a, column_values[i]);
    keys[m] = mapper_.Key(i, gcol);
    cells[m] = hash::CellRef{i, gcol};
    if (++m == kInsertBuffer) {
      sink(keys, cells, m);
      m = 0;
    }
  }
  if (m > 0) sink(keys, cells, m);
}

void AbIndex::InsertAttributeCells(const bitmap::BinnedDataset& dataset,
                                   uint32_t a, uint64_t row_begin,
                                   uint64_t row_end) {
  if (config_.level == Level::kPerColumn) {
    // Routing is per-cell here (one filter per bitmap column), so a
    // column scan has no single-filter window to batch-hash; the filters
    // are also tiny, so the scalar path loses nothing to memory stalls.
    const std::vector<uint32_t>& column_values = dataset.values[a];
    for (uint64_t i = row_begin; i < row_end; ++i) {
      uint32_t gcol = mapping_.GlobalColumn(a, column_values[i]);
      filters_[gcol].Insert(mapper_.Key(i, gcol), hash::CellRef{i, gcol});
    }
    return;
  }
  // Per-dataset / per-attribute: one attribute's cells all route to one
  // filter, so the column scan feeds the batched kernel directly.
  ApproximateBitmap* filter = &filters_[Route(a, mapping_.GlobalColumn(a, 0))];
  ForEachAttributeCellBatch(
      dataset, a, row_begin, row_end,
      [filter](const uint64_t* keys, const hash::CellRef* cells, size_t m) {
        filter->InsertBatch(keys, cells, m);
      });
}

void AbIndex::BuildAttributeOwner(const bitmap::BinnedDataset& dataset,
                                  util::ThreadPool* pool) {
  // One worker per attribute range: attribute a's cells route to filter a
  // (per-attribute) or to the columns only attribute a produces
  // (per-column), so owners never share a filter and every store is
  // plain. Zero extra memory, zero merge; parallelism caps at d.
  uint64_t n_rows = dataset.num_rows();
  pool->ParallelFor(
      0, dataset.num_attributes(), [&](uint64_t ab, uint64_t ae, int) {
        AB_SPAN("ab/build/attr-owner");
        for (uint64_t a = ab; a < ae; ++a) {
          InsertAttributeCells(dataset, static_cast<uint32_t>(a), 0, n_rows);
        }
      });
}

void AbIndex::BuildPrivateShards(const bitmap::BinnedDataset& dataset,
                                 util::ThreadPool* pool) {
  uint64_t n_rows = dataset.num_rows();
  int shards = util::ThreadPool::NumChunksFor(pool->num_threads(), n_rows);
  // Populates `target` from the attribute range [attr_begin, attr_end):
  // per-dataset routes all attributes to the one filter, per-attribute
  // one at a time. Workers fill private same-shape shards with plain
  // stores, then the shards merge by disjoint word ranges — each merge
  // worker owns a range of the destination and ORs every shard's dirty
  // granules in it, so the merge itself runs with plain stores too.
  auto build_filter = [&](uint32_t attr_begin, uint32_t attr_end,
                          ApproximateBitmap* target) {
    std::vector<ApproximateBitmap::BuildShard> worker_shards;
    worker_shards.reserve(shards);
    for (int t = 0; t < shards; ++t) {
      worker_shards.emplace_back(*target);
    }
    pool->ParallelFor(
        0, n_rows, [&](uint64_t begin, uint64_t end, int chunk) {
          AB_SPAN("ab/build/shard");
          for (uint32_t a = attr_begin; a < attr_end; ++a) {
            ForEachAttributeCellBatch(
                dataset, a, begin, end,
                [&worker_shards, chunk](const uint64_t* keys,
                                        const hash::CellRef* cells,
                                        size_t m) {
                  worker_shards[chunk].InsertBatch(keys, cells, m);
                });
          }
        });
    size_t num_words = target->bits().words().size();
    pool->ParallelFor(0, num_words,
                      [&](uint64_t word_begin, uint64_t word_end, int) {
                        AB_SPAN("ab/build/merge-ranged");
                        for (const ApproximateBitmap::BuildShard& shard :
                             worker_shards) {
                          target->MergeShardRange(shard, word_begin,
                                                  word_end);
                        }
                      });
    for (const ApproximateBitmap::BuildShard& shard : worker_shards) {
      target->AbsorbShardCount(shard);
    }
  };
  uint32_t d = dataset.num_attributes();
  if (config_.level == Level::kPerDataset) {
    build_filter(0, d, &filters_[0]);
  } else {
    for (uint32_t a = 0; a < d; ++a) {
      build_filter(a, a + 1, &filters_[a]);
    }
  }
}

size_t AbIndex::Route(uint32_t attr, uint32_t global_col) const {
  switch (config_.level) {
    case Level::kPerDataset:
      return 0;
    case Level::kPerAttribute:
      return attr;
    case Level::kPerColumn:
      return global_col;
  }
  AB_CHECK(false);
  return 0;
}

uint64_t AbIndex::SizeInBytes() const {
  uint64_t total = 0;
  for (const ApproximateBitmap& f : filters_) total += f.SizeInBytes();
  return total;
}

bool AbIndex::TestCell(uint64_t row, uint32_t attr, uint32_t bin) const {
  uint32_t gcol = mapping_.GlobalColumn(attr, bin);
  return filters_[Route(attr, gcol)].Test(mapper_.Key(row, gcol),
                                          hash::CellRef{row, gcol});
}

uint64_t AbIndex::RangeSelectivityRows(
    const bitmap::AttributeRange& range) const {
  uint64_t rows = 0;
  for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
    rows += column_set_bits_[mapping_.GlobalColumn(range.attr, b)];
  }
  return rows;
}

std::vector<const bitmap::AttributeRange*> AbIndex::MakePlan(
    const bitmap::BitmapQuery& query) const {
  // Probe the most selective attribute first so the AND short-circuits as
  // early as possible (like any conjunctive query plan).
  std::vector<const bitmap::AttributeRange*> plan;
  plan.reserve(query.ranges.size());
  for (const bitmap::AttributeRange& range : query.ranges) {
    AB_DCHECK(range.lo_bin <= range.hi_bin);
    plan.push_back(&range);
  }
  if (!config_.preserve_query_order && plan.size() > 1) {
    std::sort(plan.begin(), plan.end(),
              [this](const bitmap::AttributeRange* a,
                     const bitmap::AttributeRange* b) {
                return RangeSelectivityRows(*a) < RangeSelectivityRows(*b);
              });
  }
  return plan;
}

std::vector<bool> AbIndex::Evaluate(const bitmap::BitmapQuery& query) const {
  AB_SPAN("ab/eval/scalar");
  obs::ScopedLatencyTimer timer(obs::Histogram::kEvalLatencyNs);
  std::vector<uint64_t> all_rows;
  const std::vector<uint64_t>* rows = &query.rows;
  if (query.rows.empty()) {
    all_rows = bitmap::RowRange(0, num_rows_ - 1);
    rows = &all_rows;
  }
  std::vector<const bitmap::AttributeRange*> plan = MakePlan(query);
  std::vector<bool> out;
  out.reserve(rows->size());
#if !defined(AB_DISABLE_STATS)
  uint64_t cells_probed = 0;
  uint64_t rows_matched = 0;
#endif
  for (uint64_t i : *rows) {
    AB_DCHECK(i < num_rows_);
    bool and_part = true;
    for (const bitmap::AttributeRange* range : plan) {
      bool or_part = false;
      for (uint32_t b = range->lo_bin; b <= range->hi_bin; ++b) {
#if !defined(AB_DISABLE_STATS)
        ++cells_probed;
#endif
        if (TestCell(i, range->attr, b)) {
          // Short-circuit: one bin hit satisfies the attribute.
          or_part = true;
          break;
        }
      }
      if (!or_part) {
        // Short-circuit: one failed attribute disqualifies the row.
        and_part = false;
        break;
      }
    }
#if !defined(AB_DISABLE_STATS)
    rows_matched += and_part ? 1 : 0;
#endif
    out.push_back(and_part);
  }
#if !defined(AB_DISABLE_STATS)
  {
    obs::internal::ThreadStatsBlock* b = obs::internal::TlsBlock();
    b->Add(obs::Counter::kIndexQueries, 1);
    b->Add(obs::Counter::kIndexEvalScalar, 1);
    b->Add(obs::Counter::kIndexRowsEvaluated, rows->size());
    b->Add(obs::Counter::kIndexRowsMatched, rows_matched);
    b->Add(obs::Counter::kIndexCellsProbed, cells_probed);
  }
  AB_STATS_HIST(obs::Histogram::kEvalRowsPerQuery, rows->size());
#endif
  return out;
}

void AbIndex::EvaluateRowsBatched(
    const std::vector<const bitmap::AttributeRange*>& plan,
    const uint64_t* rows, size_t count, uint8_t* out,
    obs::QueryTrace* trace) const {
  constexpr size_t W = ApproximateBitmap::kBatchWindow;
  uint64_t keys[W];
  hash::CellRef cells[W];
  uint8_t lane_of[W];  // probe slot -> window lane
#if !defined(AB_DISABLE_STATS)
  // Probe accounting lives in locals; one publish per kernel call (and
  // one batch of relaxed atomic adds into the shared trace) keeps the
  // per-window cost at zero. The filter-level view aggregates through
  // ProbeStats — TestBatchMask publishes nothing when handed an
  // accumulator — and doubles as the index-level cells/windows tally
  // (every probe this kernel issues goes through it).
  uint64_t rows_matched = 0;
  uint64_t rows_short_circuited = 0;
  ApproximateBitmap::ProbeStats probe_stats;
  ApproximateBitmap::ProbeStats* probe_stats_ptr = &probe_stats;
#else
  ApproximateBitmap::ProbeStats* probe_stats_ptr = nullptr;
#endif
  for (size_t base = 0; base < count; base += W) {
    size_t w = std::min(W, count - base);
    const uint64_t* wrows = rows + base;
    // Bit i of the masks below tracks window lane i (row wrows[i]).
    uint64_t alive = w == 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
    for (size_t pi = 0; pi < plan.size(); ++pi) {
      const bitmap::AttributeRange* range = plan[pi];
      uint64_t or_mask = 0;
      for (uint32_t b = range->lo_bin; b <= range->hi_bin; ++b) {
        // A lane that already hit one of this attribute's bins is
        // satisfied (the scalar loop's inner break); a lane dead from an
        // earlier attribute is out entirely (the outer break).
        uint64_t pending = alive & ~or_mask;
        if (pending == 0) break;
        uint32_t gcol = mapping_.GlobalColumn(range->attr, b);
        const ApproximateBitmap& filter = filters_[Route(range->attr, gcol)];
        size_t m = 0;
        while (pending) {
          int i = __builtin_ctzll(pending);
          pending &= pending - 1;
          AB_DCHECK(wrows[i] < num_rows_);
          keys[m] = mapper_.Key(wrows[i], gcol);
          cells[m] = hash::CellRef{wrows[i], gcol};
          lane_of[m] = static_cast<uint8_t>(i);
          ++m;
        }
        uint64_t hits = filter.TestBatchMask(keys, cells, m, probe_stats_ptr);
        while (hits) {
          int j = __builtin_ctzll(hits);
          hits &= hits - 1;
          or_mask |= uint64_t{1} << lane_of[j];
        }
      }
#if !defined(AB_DISABLE_STATS)
      // Lanes dying before the plan's last attribute skip the remaining
      // attributes entirely — the batched form of the scalar outer break.
      if (pi + 1 < plan.size()) {
        rows_short_circuited += static_cast<uint64_t>(
            util::simd::PopCount64(alive) -
            util::simd::PopCount64(alive & or_mask));
      }
#endif
      alive &= or_mask;
      if (alive == 0) break;
    }
#if !defined(AB_DISABLE_STATS)
    rows_matched += static_cast<uint64_t>(util::simd::PopCount64(alive));
#endif
    for (size_t i = 0; i < w; ++i) {
      out[base + i] = static_cast<uint8_t>((alive >> i) & 1);
    }
  }
#if !defined(AB_DISABLE_STATS)
  {
    obs::internal::ThreadStatsBlock* b = obs::internal::TlsBlock();
    b->Add(obs::Counter::kAbCellsTested, probe_stats.cells_tested);
    b->Add(obs::Counter::kAbBatchWindows, probe_stats.windows);
    b->Add(obs::Counter::kAbProbesResolved, probe_stats.probes_resolved);
    b->Add(obs::Counter::kAbProbesShortCircuited,
           probe_stats.probes_short_circuited);
    b->Add(obs::Counter::kIndexCellsProbed, probe_stats.cells_tested);
    b->Add(obs::Counter::kIndexRowsMatched, rows_matched);
  }
  if (trace != nullptr) {
    // Relaxed atomic adds: parallel chunks share one trace record.
    std::atomic_ref<uint64_t>(trace->cells_probed)
        .fetch_add(probe_stats.cells_tested, std::memory_order_relaxed);
    std::atomic_ref<uint64_t>(trace->probe_windows)
        .fetch_add(probe_stats.windows, std::memory_order_relaxed);
    std::atomic_ref<uint64_t>(trace->rows_matched)
        .fetch_add(rows_matched, std::memory_order_relaxed);
    std::atomic_ref<uint64_t>(trace->rows_short_circuited)
        .fetch_add(rows_short_circuited, std::memory_order_relaxed);
  }
#else
  (void)trace;
#endif
}

std::vector<bool> AbIndex::EvaluateBatched(
    const bitmap::BitmapQuery& query) const {
  return EvaluateBatched(query, nullptr);
}

std::vector<bool> AbIndex::EvaluateBatched(const bitmap::BitmapQuery& query,
                                           obs::QueryTrace* trace) const {
  AB_SPAN("ab/eval/batched");
  obs::ScopedLatencyTimer timer(obs::Histogram::kEvalLatencyNs);
  std::vector<uint64_t> all_rows;
  const std::vector<uint64_t>* rows = &query.rows;
  if (query.rows.empty()) {
    all_rows = bitmap::RowRange(0, num_rows_ - 1);
    rows = &all_rows;
  }
  std::vector<const bitmap::AttributeRange*> plan = MakePlan(query);
  std::vector<uint8_t> scratch(rows->size());
  EvaluateRowsBatched(plan, rows->data(), rows->size(), scratch.data(),
                      trace);
  FillEvalTrace(*this, query, plan.size(), rows->size(), trace);
#if !defined(AB_DISABLE_STATS)
  {
    obs::internal::ThreadStatsBlock* b = obs::internal::TlsBlock();
    b->Add(obs::Counter::kIndexQueries, 1);
    b->Add(obs::Counter::kIndexEvalBatched, 1);
    b->Add(obs::Counter::kIndexRowsEvaluated, rows->size());
  }
  AB_STATS_HIST(obs::Histogram::kEvalRowsPerQuery, rows->size());
#endif
  return std::vector<bool>(scratch.begin(), scratch.end());
}

std::vector<bool> AbIndex::EvaluateParallel(const bitmap::BitmapQuery& query,
                                            int num_threads) const {
  if (num_threads <= 1) return EvaluateBatched(query);
  util::ThreadPool pool(num_threads);
  return EvaluateParallel(query, &pool);
}

std::vector<bool> AbIndex::EvaluateParallel(const bitmap::BitmapQuery& query,
                                            util::ThreadPool* pool) const {
  return EvaluateParallel(query, pool, nullptr);
}

std::vector<bool> AbIndex::EvaluateParallel(const bitmap::BitmapQuery& query,
                                            util::ThreadPool* pool,
                                            obs::QueryTrace* trace) const {
  if (pool == nullptr || pool->num_threads() <= 1) {
    return EvaluateBatched(query, trace);
  }
  AB_SPAN("ab/eval/parallel");
  obs::ScopedLatencyTimer timer(obs::Histogram::kEvalLatencyNs);
  std::vector<uint64_t> all_rows;
  const std::vector<uint64_t>* rows = &query.rows;
  if (query.rows.empty()) {
    all_rows = bitmap::RowRange(0, num_rows_ - 1);
    rows = &all_rows;
  }
  std::vector<const bitmap::AttributeRange*> plan = MakePlan(query);
  // Workers write bytes into disjoint chunks of one scratch buffer (a
  // std::vector<bool> would pack 64 lanes per word and race across chunk
  // boundaries); the packed result is assembled once at the end.
  std::vector<uint8_t> scratch(rows->size());
  const uint64_t* row_data = rows->data();
  uint8_t* out_data = scratch.data();
  pool->ParallelFor(0, rows->size(),
                    [this, &plan, row_data, out_data, trace](
                        uint64_t begin, uint64_t end, int /*chunk*/) {
                      AB_SPAN("ab/eval/chunk");
                      EvaluateRowsBatched(plan, row_data + begin,
                                          end - begin, out_data + begin,
                                          trace);
                    });
  FillEvalTrace(*this, query, plan.size(), rows->size(), trace);
#if !defined(AB_DISABLE_STATS)
  {
    obs::internal::ThreadStatsBlock* b = obs::internal::TlsBlock();
    b->Add(obs::Counter::kIndexQueries, 1);
    b->Add(obs::Counter::kIndexEvalParallel, 1);
    b->Add(obs::Counter::kIndexRowsEvaluated, rows->size());
  }
  AB_STATS_HIST(obs::Histogram::kEvalRowsPerQuery, rows->size());
#endif
  return std::vector<bool>(scratch.begin(), scratch.end());
}

double AbIndex::EstimateQueryPrecision(
    const bitmap::BitmapQuery& query) const {
  if (query.ranges.empty() || num_rows_ == 0) return 1.0;
  double p_true = 1.0;
  double p_reported = 1.0;
  for (const bitmap::AttributeRange& range : query.ranges) {
    double sel = static_cast<double>(RangeSelectivityRows(range)) /
                 static_cast<double>(num_rows_);
    // Worst filter FP among the bins probed (bins of one attribute can
    // live in different filters only at the per-column level).
    double fp = 0;
    for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
      uint32_t gcol = mapping_.GlobalColumn(range.attr, b);
      fp = std::max(
          fp, filters_[Route(range.attr, gcol)].ExpectedFalsePositiveRate());
    }
    double width = static_cast<double>(range.hi_bin - range.lo_bin + 1);
    double p_false_pass = 1.0 - std::pow(1.0 - fp, width);
    p_true *= sel;
    p_reported *= sel + (1.0 - sel) * p_false_pass;
  }
  if (p_reported <= 0) return 1.0;
  return std::min(1.0, p_true / p_reported);
}

void AbIndex::Serialize(util::ByteWriter* out) const {
  out->WriteU8(static_cast<uint8_t>(config_.level));
  out->WriteDouble(config_.alpha);
  out->WriteVarint(static_cast<uint64_t>(config_.k));
  out->WriteU8(static_cast<uint8_t>(config_.scheme));
  out->WriteVarint(config_.n_bits_override);
  out->WriteU8(config_.degenerate_row_only_mapping ? 1 : 0);
  out->WriteVarint(mapping_.num_attributes());
  for (uint32_t a = 0; a < mapping_.num_attributes(); ++a) {
    out->WriteVarint(mapping_.cardinality(a));
  }
  out->WriteVarint(num_rows_);
  out->WriteVarint(filters_.size());
  for (const ApproximateBitmap& f : filters_) {
    f.Serialize(out);
  }
  for (uint64_t c : column_set_bits_) {
    out->WriteVarint(c);
  }
  out->WriteDouble(built_fp_);
}

util::StatusOr<AbIndex> AbIndex::Deserialize(util::ByteReader* in) {
  // Peek the scheme from the fixed-layout prefix to build the default
  // factory, then parse normally.
  AbConfig probe;
  {
    util::ByteReader peek = *in;
    uint8_t level, scheme;
    double alpha;
    uint64_t k;
    if (!peek.ReadU8(&level) || !peek.ReadDouble(&alpha) ||
        !peek.ReadVarint(&k) || !peek.ReadU8(&scheme)) {
      return util::Status::Corruption("AbIndex: truncated config");
    }
    if (scheme > static_cast<uint8_t>(HashScheme::kColumnGroup)) {
      return util::Status::Corruption("AbIndex: invalid hash scheme");
    }
    probe.scheme = static_cast<HashScheme>(scheme);
  }
  HashScheme scheme = probe.scheme;
  return Deserialize(in, [scheme](uint32_t num_groups) {
    return MakeFamily(scheme, num_groups);
  });
}

util::StatusOr<AbIndex> AbIndex::Deserialize(util::ByteReader* in,
                                             const FamilyFactory& factory) {
  AbConfig config;
  uint8_t level, scheme, degenerate;
  uint64_t k, override_bits, num_attrs, num_rows, num_filters;
  if (!in->ReadU8(&level) || !in->ReadDouble(&config.alpha) ||
      !in->ReadVarint(&k) || !in->ReadU8(&scheme) ||
      !in->ReadVarint(&override_bits) || !in->ReadU8(&degenerate) ||
      !in->ReadVarint(&num_attrs)) {
    return util::Status::Corruption("AbIndex: truncated config");
  }
  if (level > static_cast<uint8_t>(Level::kPerColumn) ||
      scheme > static_cast<uint8_t>(HashScheme::kColumnGroup)) {
    return util::Status::Corruption("AbIndex: invalid enum value");
  }
  config.level = static_cast<Level>(level);
  config.k = static_cast<int>(k);
  config.scheme = static_cast<HashScheme>(scheme);
  config.n_bits_override = override_bits;
  config.degenerate_row_only_mapping = degenerate != 0;

  std::vector<bitmap::AttributeInfo> attributes;
  attributes.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    uint64_t cardinality;
    if (!in->ReadVarint(&cardinality) || cardinality == 0 ||
        cardinality > (uint64_t{1} << 31)) {
      return util::Status::Corruption("AbIndex: invalid cardinality");
    }
    attributes.push_back(bitmap::AttributeInfo{
        "A" + std::to_string(a), static_cast<uint32_t>(cardinality)});
  }
  if (!in->ReadVarint(&num_rows) || !in->ReadVarint(&num_filters)) {
    return util::Status::Corruption("AbIndex: truncated counts");
  }

  AbIndex index(config, bitmap::ColumnMapping(attributes), num_rows);
  // The filter count must match what the level implies.
  uint64_t expected_filters = 0;
  switch (config.level) {
    case Level::kPerDataset:
      expected_filters = 1;
      break;
    case Level::kPerAttribute:
      expected_filters = num_attrs;
      break;
    case Level::kPerColumn:
      expected_filters = index.mapping_.num_columns();
      break;
  }
  if (num_filters != expected_filters) {
    return util::Status::Corruption("AbIndex: filter count mismatch");
  }
  index.filters_.reserve(num_filters);
  for (uint64_t f = 0; f < num_filters; ++f) {
    uint32_t num_groups = 1;
    if (config.level == Level::kPerDataset) {
      num_groups = index.mapping_.num_columns();
    } else if (config.level == Level::kPerAttribute) {
      num_groups = index.mapping_.cardinality(static_cast<uint32_t>(f));
    }
    util::StatusOr<ApproximateBitmap> filter =
        ApproximateBitmap::Deserialize(in, factory(num_groups));
    if (!filter.ok()) return filter.status();
    index.filters_.push_back(std::move(filter).value());
  }
  index.column_set_bits_.resize(index.mapping_.num_columns());
  for (uint64_t c = 0; c < index.column_set_bits_.size(); ++c) {
    if (!in->ReadVarint(&index.column_set_bits_[c])) {
      return util::Status::Corruption("AbIndex: truncated histograms");
    }
  }
  if (!in->ReadDouble(&index.built_fp_)) {
    return util::Status::Corruption("AbIndex: truncated statistics");
  }
  return index;
}

util::Status AbIndex::SaveToFile(const std::string& path) const {
  util::ByteWriter payload;
  Serialize(&payload);
  return util::WriteFileAtomic(
      path, util::WrapEnvelope(util::PayloadType::kAbIndex, payload.bytes()));
}

util::StatusOr<AbIndex> AbIndex::LoadFromFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  util::Status status = util::ReadFile(path, &bytes);
  if (!status.ok()) return status;
  std::vector<uint8_t> payload;
  status = util::UnwrapEnvelope(bytes, util::PayloadType::kAbIndex, &payload);
  if (!status.ok()) return status;
  util::ByteReader reader(payload);
  return Deserialize(&reader);
}

}  // namespace ab
}  // namespace abitmap
