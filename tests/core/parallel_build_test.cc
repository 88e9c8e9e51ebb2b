// Correctness contract of the parallel, batch-hashed build pipeline: every
// insert-side kernel (InsertBatch, private build shards and their ranged
// merge, pool-parallel index builds, pool-parallel WAH/BBC column
// compression) must produce results bit-identical to the serial scalar
// path. Parallel construction is a wall-clock change, never a semantic
// one — the filters are pure unions of per-cell bit sets and OR commutes.

#include <cstdint>
#include <random>
#include <vector>

#include "gtest/gtest.h"

#include "bbc/bbc_vector.h"
#include "bitmap/bitmap_table.h"
#include "core/ab_index.h"
#include "core/approximate_bitmap.h"
#include "data/generators.h"
#include "hash/hash_family.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "wah/wah_query.h"

namespace abitmap {
namespace ab {
namespace {

struct CellBatch {
  std::vector<uint64_t> keys;
  std::vector<hash::CellRef> cells;
};

CellBatch RandomCells(size_t count, uint64_t seed) {
  CellBatch batch;
  std::mt19937_64 rng(seed);
  batch.keys.reserve(count);
  batch.cells.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    batch.keys.push_back(rng());
    batch.cells.push_back(
        hash::CellRef{rng() % 50000, static_cast<uint32_t>(rng() % 16)});
  }
  return batch;
}

ApproximateBitmap MakeFilter(uint64_t n_bits, int k) {
  AbParams params;
  params.n_bits = n_bits;
  params.k = k;
  return ApproximateBitmap(params, hash::MakeIndependentFamily());
}

TEST(InsertBatchTest, MatchesScalarInsertBitForBit) {
  // Counts straddling window boundaries: empty, sub-window, exact
  // windows, and a ragged tail.
  for (size_t count : {size_t{0}, size_t{1}, size_t{31}, size_t{32},
                       size_t{64}, size_t{507}}) {
    CellBatch batch = RandomCells(count, 42 + count);
    ApproximateBitmap scalar = MakeFilter(1 << 14, 5);
    ApproximateBitmap batched = MakeFilter(1 << 14, 5);
    for (size_t i = 0; i < count; ++i) {
      scalar.Insert(batch.keys[i], batch.cells[i]);
    }
    batched.InsertBatch(batch.keys.data(), batch.cells.data(), count);
    ASSERT_EQ(scalar.bits(), batched.bits()) << "count " << count;
    ASSERT_EQ(scalar.insertions(), batched.insertions());
    ASSERT_EQ(scalar.insertions(), count);
  }
}

TEST(ParallelBuildTest, StableAcrossThreadCountsAndRepeatedRuns) {
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "det", 3000, 3, 8, data::Distribution::kZipf, 5);
  for (Level level :
       {Level::kPerDataset, Level::kPerAttribute, Level::kPerColumn}) {
    AbConfig cfg;
    cfg.level = level;
    cfg.alpha = 8;
    AbIndex reference = AbIndex::Build(d, cfg);
    for (int threads : {1, 2, 8}) {
      // The pool overload takes the worker count as given (the
      // num_threads overload clamps to hardware concurrency, which
      // would silently serialize this sweep on small CI hosts).
      util::ThreadPool tpool(threads);
      for (int run = 0; run < 2; ++run) {
        AbIndex parallel = AbIndex::BuildParallel(d, cfg, &tpool);
        ASSERT_EQ(reference.num_filters(), parallel.num_filters());
        for (size_t f = 0; f < reference.num_filters(); ++f) {
          ASSERT_EQ(reference.filter(f).bits(), parallel.filter(f).bits())
              << LevelName(level) << " threads=" << threads << " run=" << run
              << " filter " << f;
          ASSERT_EQ(reference.filter(f).insertions(),
                    parallel.filter(f).insertions());
        }
      }
    }
    // The pool-reusing overload follows the same contract.
    util::ThreadPool pool(4);
    AbIndex pooled = AbIndex::BuildParallel(d, cfg, &pool);
    for (size_t f = 0; f < reference.num_filters(); ++f) {
      ASSERT_EQ(reference.filter(f).bits(), pooled.filter(f).bits())
          << LevelName(level) << " pooled filter " << f;
    }
  }
}

TEST(ParallelBuildTest, WahPoolBuildIsByteIdenticalToSerial) {
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "wah", 2500, 3, 10, data::Distribution::kZipf, 29);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  wah::WahIndex serial = wah::WahIndex::Build(table);
  util::ThreadPool pool(4);
  wah::WahIndex parallel = wah::WahIndex::Build(table, &pool);
  ASSERT_EQ(serial.num_columns(), parallel.num_columns());
  for (uint32_t j = 0; j < serial.num_columns(); ++j) {
    ASSERT_EQ(serial.column(j), parallel.column(j)) << "column " << j;
  }
  // Null / single-threaded pools take the serial path.
  wah::WahIndex fallback = wah::WahIndex::Build(table, nullptr);
  for (uint32_t j = 0; j < serial.num_columns(); ++j) {
    ASSERT_EQ(serial.column(j), fallback.column(j));
  }
}

TEST(ParallelBuildTest, BbcParallelColumnsMatchSerialCompress) {
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "bbc", 1500, 2, 12, data::Distribution::kZipf, 41);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  std::vector<const util::BitVector*> columns;
  for (uint32_t j = 0; j < table.num_columns(); ++j) {
    columns.push_back(&table.column(j));
  }
  util::ThreadPool pool(4);
  std::vector<bbc::BbcVector> parallel =
      bbc::CompressColumnsParallel(columns, &pool);
  std::vector<bbc::BbcVector> fallback =
      bbc::CompressColumnsParallel(columns, nullptr);
  ASSERT_EQ(parallel.size(), columns.size());
  for (size_t j = 0; j < columns.size(); ++j) {
    bbc::BbcVector serial = bbc::BbcVector::Compress(*columns[j]);
    ASSERT_TRUE(serial == parallel[j]) << "column " << j;
    ASSERT_TRUE(serial == fallback[j]) << "column " << j;
  }
}

// ---------------------------------------------------------------------
// The two parallel paths (attribute ownership, private shards with a
// ranged merge) and the serial fallback, as BuildParallel picks them.
// ---------------------------------------------------------------------

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(util::simd::SimdLevel level)
      : prev_(util::simd::ActiveSimdLevel()) {
    util::simd::SetSimdLevelForTesting(level);
  }
  ~ScopedSimdLevel() { util::simd::SetSimdLevelForTesting(prev_); }

 private:
  util::simd::SimdLevel prev_;
};

TEST(ParallelBuildTest, PathsBitIdenticalAcrossLevelsWidthsPoolsSimd) {
  // Every level x attribute count x pool size x SIMD level the CPU
  // supports must reproduce the serial build: each filter's bits and
  // insertion count, and the index's as-built FP. 9,000 rows clear the
  // serial cell floor even at d == 1, so the grid reaches all three
  // paths:
  //  * serial: per-column with d == 1;
  //  * attribute ownership: per-column with d >= 2, per-attribute with
  //    d >= pool size (d == 2 at pool 2, d == 6 at pools 2-4);
  //  * private shards: per-dataset, per-attribute with d < pool size.
  // The reference is built once per (level, d) at the default dispatch
  // level; SIMD parity makes the comparison meaningful across levels.
  const util::simd::SimdLevel kLevels[] = {
      util::simd::SimdLevel::kScalar, util::simd::SimdLevel::kSse2,
      util::simd::SimdLevel::kAvx2, util::simd::SimdLevel::kNeon};
  for (uint32_t d : {1u, 2u, 6u}) {
    bitmap::BinnedDataset data = data::MakeSynthetic(
        "paths", 9000, d, 8, data::Distribution::kZipf, 77 + d);
    for (Level level :
         {Level::kPerDataset, Level::kPerAttribute, Level::kPerColumn}) {
      AbConfig cfg;
      cfg.level = level;
      cfg.alpha = 8;
      AbIndex reference = AbIndex::Build(data, cfg);
      for (int threads : {2, 3, 4, 8}) {
        util::ThreadPool pool(threads);
        for (util::simd::SimdLevel simd : kLevels) {
          ScopedSimdLevel scoped(simd);
          // A level the CPU lacks clamps to one already in the sweep.
          if (util::simd::ActiveSimdLevel() != simd) continue;
          AbIndex parallel = AbIndex::BuildParallel(data, cfg, &pool);
          ASSERT_EQ(reference.num_filters(), parallel.num_filters());
          for (size_t f = 0; f < reference.num_filters(); ++f) {
            EXPECT_TRUE(reference.filter(f).bits() ==
                        parallel.filter(f).bits())
                << LevelName(level) << " d=" << d << " threads=" << threads
                << " simd=" << util::simd::SimdLevelName(simd) << " filter "
                << f;
            EXPECT_EQ(reference.filter(f).insertions(),
                      parallel.filter(f).insertions())
                << LevelName(level) << " d=" << d << " threads=" << threads
                << " filter " << f;
            EXPECT_EQ(reference.filter(f).ExpectedFalsePositiveRate(),
                      parallel.filter(f).ExpectedFalsePositiveRate())
                << LevelName(level) << " d=" << d << " threads=" << threads
                << " filter " << f;
          }
        }
      }
    }
  }
}

TEST(BuildShardTest, RangedMergeEqualsSerialAndSkipsCleanGranules) {
  // A sparse shard (100 probes into a 65536-word filter) leaves most
  // merge granules untouched; the ranged merge must OR exactly the dirty
  // ones and still reproduce serial insertion bit for bit.
  constexpr size_t kCount = 20;
  CellBatch batch = RandomCells(kCount, 1234);
  ApproximateBitmap serial = MakeFilter(uint64_t{1} << 22, 5);
  for (size_t i = 0; i < kCount; ++i) {
    serial.Insert(batch.keys[i], batch.cells[i]);
  }
  ApproximateBitmap::BuildShard shard(serial);
  shard.InsertBatch(batch.keys.data(), batch.cells.data(), kCount);
  EXPECT_EQ(shard.insertions(), kCount);

  size_t num_words = serial.bits().words().size();
  // Whole-range merge: far fewer words ORed than the filter holds.
  ApproximateBitmap whole = MakeFilter(uint64_t{1} << 22, 5);
  uint64_t merged = whole.MergeShardRange(shard, 0, num_words);
  whole.AbsorbShardCount(shard);
  EXPECT_EQ(serial.bits(), whole.bits());
  EXPECT_EQ(serial.insertions(), whole.insertions());
  EXPECT_GT(merged, 0u);
  EXPECT_LE(merged, kCount * 5 * ApproximateBitmap::kMergeGranuleWords);
  EXPECT_LT(merged, num_words / 4);

  // The same merge split into three disjoint ranges (as the parallel
  // ranged merge issues them) produces the identical filter.
  ApproximateBitmap split = MakeFilter(uint64_t{1} << 22, 5);
  uint64_t merged_split = 0;
  size_t bounds[] = {0, num_words / 3, num_words / 2, num_words};
  for (int r = 0; r < 3; ++r) {
    merged_split += split.MergeShardRange(shard, bounds[r], bounds[r + 1]);
  }
  split.AbsorbShardCount(shard);
  EXPECT_EQ(serial.bits(), split.bits());
  EXPECT_EQ(merged, merged_split);

  // A range the shard never touched merges zero words.
  ApproximateBitmap empty_target = MakeFilter(uint64_t{1} << 22, 5);
  ApproximateBitmap::BuildShard clean(serial);
  EXPECT_EQ(empty_target.MergeShardRange(clean, 0, num_words), 0u);
}

}  // namespace
}  // namespace ab
}  // namespace abitmap
