// The engine's Roaring index (engine::ExactIndex) bit-identical to
// WahIndex and the uncompressed BitmapTable across the seed datasets
// (scaled), random query shapes, forced SIMD dispatch levels, and
// pool-vs-serial builds.

#include <memory>
#include <random>
#include <vector>

#include "data/generators.h"
#include "engine/exact_index.h"
#include "gtest/gtest.h"
#include "roaring/roaring_bitmap.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "wah/wah_query.h"

namespace abitmap {
namespace roaring {
namespace {

using engine::ExactIndex;

using util::simd::ActiveSimdLevel;
using util::simd::SetSimdLevelForTesting;
using util::simd::SimdLevel;

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(ActiveSimdLevel()) {
    SetSimdLevelForTesting(level);
  }
  ~ScopedSimdLevel() { SetSimdLevelForTesting(prev_); }

 private:
  SimdLevel prev_;
};

const SimdLevel kForcedLevels[] = {SimdLevel::kScalar, SimdLevel::kSse2,
                                   SimdLevel::kAvx2, SimdLevel::kNeon};

bitmap::BinnedDataset SmallDataset(uint64_t rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  bitmap::BinnedDataset d;
  d.name = "small";
  d.attributes = {{"A", 8}, {"B", 5}, {"C", 12}};
  for (const bitmap::AttributeInfo& a : d.attributes) {
    std::vector<uint32_t> col;
    col.reserve(rows);
    for (uint64_t i = 0; i < rows; ++i) col.push_back(rng() % a.cardinality);
    d.values.push_back(col);
  }
  return d;
}

std::vector<bitmap::BitmapQuery> RandomQueries(
    const bitmap::BinnedDataset& d, int count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<bitmap::BitmapQuery> queries;
  for (int t = 0; t < count; ++t) {
    bitmap::BitmapQuery q;
    uint32_t num_attrs = static_cast<uint32_t>(d.attributes.size());
    uint32_t in_query = 1 + rng() % std::min<uint32_t>(3, num_attrs);
    for (uint32_t a = 0; a < in_query; ++a) {
      uint32_t attr = rng() % num_attrs;
      uint32_t c = d.attributes[attr].cardinality;
      uint32_t lo = rng() % c;
      uint32_t hi = std::min<uint32_t>(lo + rng() % 4, c - 1);
      q.ranges.push_back({attr, lo, hi});
    }
    if (t % 3 == 1) {
      uint64_t rows = d.values[0].size();
      uint64_t lo = rng() % rows;
      q.rows = bitmap::RowRange(lo, std::min(lo + rng() % 500, rows - 1));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// The plan evaluated in the compressed domain over `columns`: MultiOr of
/// each range's bins, And across ranges (at least one range).
RoaringBitmap CompressedPlan(const std::vector<RoaringBitmap>& columns,
                             const bitmap::ColumnMapping& mapping,
                             const bitmap::BitmapQuery& q) {
  RoaringBitmap result;
  for (size_t i = 0; i < q.ranges.size(); ++i) {
    const bitmap::AttributeRange& range = q.ranges[i];
    std::vector<const RoaringBitmap*> bins;
    for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
      bins.push_back(&columns[mapping.GlobalColumn(range.attr, b)]);
    }
    RoaringBitmap attr = RoaringBitmap::MultiOr(bins);
    result = i == 0 ? std::move(attr) : And(result, attr);
  }
  return result;
}

void ExpectIdenticalToWah(const bitmap::BinnedDataset& d, uint64_t seed) {
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  wah::WahIndex wah_index = wah::WahIndex::Build(table);
  ExactIndex roaring_index = ExactIndex::Build(table, nullptr);
  EXPECT_EQ(roaring_index.num_rows(), table.num_rows());
  EXPECT_EQ(roaring_index.num_columns(), table.num_columns());

  // Column-level round trip: every Roaring column expands to the verbatim
  // column WAH compresses.
  std::vector<RoaringBitmap> columns;
  for (uint32_t j = 0; j < roaring_index.num_columns(); ++j) {
    EXPECT_EQ(roaring_index.DecompressColumn(j), table.column(j))
        << "column " << j;
    columns.push_back(RoaringBitmap::FromBitVector(table.column(j)));
    columns.back().Optimize();
  }

  for (const bitmap::BitmapQuery& q : RandomQueries(d, 25, seed)) {
    util::BitVector roaring_bits = roaring_index.ExecuteBitwiseBits(q);
    util::BitVector wah_bits = wah_index.ExecuteBitwiseBits(q);
    EXPECT_EQ(roaring_bits, wah_bits);
    EXPECT_EQ(roaring_index.Evaluate(q), wah_index.Evaluate(q));
    // The same plan in the compressed domain: FindNextSet walks its result
    // identically to the bits.
    const RoaringBitmap compressed =
        CompressedPlan(columns, table.mapping(), q);
    uint64_t pos = compressed.FindNextSet(0);
    size_t expect_pos = wah_bits.FindNextSet(0);
    while (expect_pos < wah_bits.size()) {
      ASSERT_EQ(pos, expect_pos);
      pos = compressed.FindNextSet(pos + 1);
      expect_pos = wah_bits.FindNextSet(expect_pos + 1);
    }
    EXPECT_EQ(pos, RoaringBitmap::kNoBit);
  }
}

TEST(RoaringIndexTest, MatchesWahOnSmallRandomDataset) {
  ExpectIdenticalToWah(SmallDataset(3000, 5), 101);
}

TEST(RoaringIndexTest, MatchesWahOnSeedDatasets) {
  ExpectIdenticalToWah(data::MakeUniformDataset(42, 20), 102);
  ExpectIdenticalToWah(data::MakeLandsatDataset(43, 40), 103);
  ExpectIdenticalToWah(data::MakeHepDataset(44, 100), 104);
}

TEST(RoaringIndexTest, MatchesWahUnderForcedSimdLevels) {
  bitmap::BinnedDataset d = SmallDataset(4000, 6);
  for (SimdLevel level : kForcedLevels) {
    ScopedSimdLevel guard(level);
    ExpectIdenticalToWah(d, 105);
  }
}

TEST(RoaringIndexTest, PooledBuildIdenticalToSerial) {
  bitmap::BinnedDataset d = data::MakeLandsatDataset(43, 60);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  ExactIndex serial = ExactIndex::Build(table, nullptr);
  for (int threads : {2, 8}) {
    util::ThreadPool pool(threads);
    ExactIndex pooled = ExactIndex::Build(table, &pool);
    ASSERT_EQ(pooled.num_columns(), serial.num_columns());
    for (uint32_t j = 0; j < serial.num_columns(); ++j) {
      EXPECT_EQ(pooled.DecompressColumn(j), serial.DecompressColumn(j))
          << "column " << j;
    }
    EXPECT_EQ(pooled.SizeInBytes(), serial.SizeInBytes());
  }
}

TEST(RoaringIndexTest, EmptyAndAllRowQueries) {
  bitmap::BinnedDataset d = SmallDataset(2000, 7);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  ExactIndex index = ExactIndex::Build(table, nullptr);

  // No predicates: every row qualifies, over the whole relation and over
  // a subset.
  bitmap::BitmapQuery all;
  util::BitVector bits = index.ExecuteBitwiseBits(all);
  EXPECT_EQ(bits.Count(), 2000u);
  EXPECT_EQ(index.Evaluate(all), std::vector<bool>(2000, true));
  all.rows = {1999, 0, 7, 7};
  EXPECT_EQ(index.Evaluate(all), std::vector<bool>(4, true));

  // Disjoint single-bin predicates can produce an empty result.
  bitmap::BitmapQuery q;
  q.ranges = {{0, 0, 0}, {0, 1, 1}};
  // Rows in bin 0 of A are not in bin 1 of A (equality encoding).
  EXPECT_EQ(index.ExecuteBitwiseBits(q).Count(), 0u);
  EXPECT_EQ(index.Evaluate(q), std::vector<bool>(2000, false));
  q.rows = bitmap::RowRange(100, 199);
  EXPECT_EQ(index.Evaluate(q), std::vector<bool>(100, false));
}

}  // namespace
}  // namespace roaring
}  // namespace abitmap
