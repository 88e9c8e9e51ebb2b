#include "engine/exact_index.h"

#include <algorithm>
#include <random>

#include "bitmap/bitmap_table.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "roaring/roaring_bitmap.h"
#include "util/bitvector.h"
#include "wah/wah_query.h"

namespace abitmap {
namespace engine {
namespace {

bitmap::BinnedDataset SmallDataset(uint64_t rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  bitmap::BinnedDataset d;
  d.name = "small";
  d.attributes = {{"A", 8}, {"B", 5}, {"C", 12}};
  for (const bitmap::AttributeInfo& a : d.attributes) {
    std::vector<uint32_t> col;
    col.reserve(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      col.push_back(static_cast<uint32_t>(rng() % a.cardinality));
    }
    d.values.push_back(col);
  }
  return d;
}

TEST(ExactIndexTest, MatchesWahIndexOnEveryBackend) {
  bitmap::BinnedDataset dataset = SmallDataset(3000, 21);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(dataset);
  wah::WahIndex reference = wah::WahIndex::Build(table);
  std::mt19937_64 rng(22);
  // "auto", "" and "roaring" are spellings of one index: equal sizes, and
  // every column equal to the table's.
  const uint64_t size = ExactIndex::Build(table, nullptr).SizeInBytes();
  for (const char* backend : {"auto", "", "roaring"}) {
    ExactIndex index = ExactIndex::Build(table, nullptr, backend);
    EXPECT_EQ(index.SizeInBytes(), size) << '"' << backend << '"';
    ASSERT_EQ(index.num_columns(), table.num_columns());
    for (uint32_t j = 0; j < index.num_columns(); ++j) {
      ASSERT_EQ(index.DecompressColumn(j), table.column(j))
          << backend << " column " << j;
    }
    for (int trial = 0; trial < 15; ++trial) {
      bitmap::BitmapQuery q;
      uint32_t attr = static_cast<uint32_t>(rng() % 3);
      uint32_t card = table.mapping().cardinality(attr);
      uint32_t lo = static_cast<uint32_t>(rng() % card);
      uint32_t hi = lo + static_cast<uint32_t>(rng() % (card - lo));
      q.ranges.push_back(bitmap::AttributeRange{attr, lo, hi});
      if (trial % 3 == 1) {
        uint32_t attr2 = (attr + 1) % 3;
        uint32_t card2 = table.mapping().cardinality(attr2);
        q.ranges.push_back(
            bitmap::AttributeRange{attr2, 0, (card2 - 1) / 2});
      }
      if (trial % 2 == 1) {
        uint64_t start = rng() % 2000;
        q.rows = bitmap::RowRange(start, start + 800);
      }
      EXPECT_EQ(index.ExecuteBitwiseBits(q), reference.ExecuteBitwiseBits(q))
          << backend << " trial " << trial;
      EXPECT_EQ(index.Evaluate(q), reference.Evaluate(q))
          << backend << " trial " << trial;
    }
  }
  // Any other value is a programming error.
  EXPECT_DEATH(ExactIndex::Build(table, nullptr, "wah"), "AB_CHECK");
}

TEST(ExactIndexTest, PooledBuildIdenticalToSerial) {
  bitmap::BinnedDataset dataset = SmallDataset(2500, 23);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(dataset);
  ExactIndex serial = ExactIndex::Build(table, nullptr);
  for (int threads : {2, 8}) {
    util::ThreadPool pool(threads);
    ExactIndex parallel = ExactIndex::Build(table, &pool);
    ASSERT_EQ(parallel.num_columns(), serial.num_columns());
    for (uint32_t j = 0; j < serial.num_columns(); ++j) {
      EXPECT_EQ(parallel.DecompressColumn(j), serial.DecompressColumn(j));
    }
    EXPECT_EQ(parallel.SizeInBytes(), serial.SizeInBytes());
  }
}

/// Two full 2^16-row chunks plus a partial third, with one attribute per
/// container shape: S (50 bins, random) gives array containers, D (2 bins,
/// random) bitsets, R (4 bins in 3000-row stripes) runs, and H (6 bins)
/// leaves bins 0-2 without a container in chunk 1.
bitmap::BinnedDataset ChunkedDataset(uint64_t rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  bitmap::BinnedDataset d;
  d.name = "chunked";
  d.attributes = {{"S", 50}, {"D", 2}, {"R", 4}, {"H", 6}};
  d.values.assign(4, std::vector<uint32_t>(rows));
  for (uint64_t r = 0; r < rows; ++r) {
    d.values[0][r] = static_cast<uint32_t>(rng() % 50);
    d.values[1][r] = static_cast<uint32_t>(rng() % 2);
    d.values[2][r] = static_cast<uint32_t>((r / 3000) % 4);
    uint32_t h = static_cast<uint32_t>(rng() % 6);
    d.values[3][r] = (r >> 16) == 1 ? 3 + h % 3 : h;
  }
  return d;
}

/// The bin-level truth for one row: every range holds the row's bin.
bool BinOracle(const bitmap::BinnedDataset& d, const bitmap::BitmapQuery& q,
               uint64_t row) {
  for (const bitmap::AttributeRange& range : q.ranges) {
    uint32_t v = d.values[range.attr][row];
    if (v < range.lo_bin || v > range.hi_bin) return false;
  }
  return true;
}

/// Row subsets shaped to reach every corner of the chunked evaluation.
std::vector<std::pair<std::string, std::vector<uint64_t>>> RowShapes(
    uint64_t rows, std::mt19937_64* rng) {
  std::vector<std::pair<std::string, std::vector<uint64_t>>> shapes;
  shapes.push_back({"contiguous", bitmap::RowRange(1000, 1999)});
  shapes.push_back({"first boundary", bitmap::RowRange(65500, 65600)});
  shapes.push_back({"second boundary", bitmap::RowRange(131000, 131200)});
  shapes.push_back({"last partial chunk", bitmap::RowRange(rows - 300, rows - 1)});
  shapes.push_back({"single row", {65536}});
  shapes.push_back({"whole relation span", bitmap::RowRange(0, rows - 1)});
  shapes.push_back({"hole chunk", bitmap::RowRange(70000, 72000)});
  std::vector<uint64_t> scattered;
  for (int i = 0; i < 600; ++i) scattered.push_back((*rng)() % rows);
  std::sort(scattered.begin(), scattered.end());
  shapes.push_back({"scattered", scattered});
  std::vector<uint64_t> unsorted = scattered;
  std::shuffle(unsorted.begin(), unsorted.end(), *rng);
  shapes.push_back({"unsorted", unsorted});
  std::vector<uint64_t> dups = {65535, 65536, 0, rows - 1, 65535, 7, 7};
  dups.insert(dups.end(), unsorted.begin(), unsorted.begin() + 100);
  dups.insert(dups.end(), unsorted.begin(), unsorted.begin() + 50);
  std::shuffle(dups.begin(), dups.end(), *rng);
  shapes.push_back({"duplicates", dups});
  // A dense cluster and a sparse scatter in one request: some chunks
  // answer from word windows, others row by row.
  std::vector<uint64_t> mixed = bitmap::RowRange(66000, 66500);
  for (int i = 0; i < 20; ++i) mixed.push_back((*rng)() % 65536);
  std::shuffle(mixed.begin(), mixed.end(), *rng);
  shapes.push_back({"mixed density", mixed});
  return shapes;
}

TEST(ExactIndexTest, DirectAccessSubsetsMatchWholeRelationThenPick) {
  const uint64_t rows = 140000;  // chunks 0, 1 full; chunk 2 partial
  bitmap::BinnedDataset dataset = ChunkedDataset(rows, 41);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(dataset);
  // The dataset reaches every container kind of the run-optimized columns.
  std::vector<uint64_t> census(3, 0);
  for (uint32_t j = 0; j < table.num_columns(); ++j) {
    roaring::RoaringBitmap column =
        roaring::RoaringBitmap::FromBitVector(table.column(j));
    column.Optimize();
    for (size_t c = 0; c < column.num_containers(); ++c) {
      census[static_cast<size_t>(column.container(c).kind())]++;
    }
  }
  for (roaring::ContainerKind kind :
       {roaring::ContainerKind::kArray, roaring::ContainerKind::kBitset,
        roaring::ContainerKind::kRun}) {
    EXPECT_GT(census[static_cast<size_t>(kind)], 0u)
        << roaring::ContainerKindName(kind);
  }
  std::mt19937_64 rng(42);
  auto shapes = RowShapes(rows, &rng);
  // 1-3 predicates; H's bins 0-2 have no container in chunk 1.
  std::vector<std::vector<bitmap::AttributeRange>> plans = {
      {{0, 10, 24}},
      {{3, 0, 2}},
      {{2, 1, 2}, {1, 1, 1}},
      {{0, 0, 30}, {3, 1, 4}},
      {{0, 5, 45}, {1, 0, 0}, {2, 0, 1}},
      {{3, 0, 1}, {2, 0, 3}, {0, 0, 49}},
  };
  ExactIndex index = ExactIndex::Build(table, nullptr);
  for (size_t p = 0; p < plans.size(); ++p) {
    bitmap::BitmapQuery q;
    q.ranges = plans[p];
    util::BitVector whole = index.ExecuteBitwiseBits(q);
    for (const auto& [name, subset] : shapes) {
      q.rows = subset;
      std::vector<bool> got = index.Evaluate(q);
      ASSERT_EQ(got.size(), subset.size());
      for (size_t i = 0; i < subset.size(); ++i) {
        ASSERT_EQ(got[i], whole.Get(subset[i]))
            << "plan " << p << " " << name << " row " << subset[i];
        ASSERT_EQ(got[i], BinOracle(dataset, q, subset[i]))
            << "plan " << p << " " << name << " row " << subset[i];
      }
    }
  }
}

TEST(ExactIndexTest, RoaringIndexSubsetsMatchWholeRelationThenPick) {
  // A second chunked dataset and plan through the same Roaring columns,
  // plus the no-predicate request.
  const uint64_t rows = 140000;
  bitmap::BinnedDataset dataset = ChunkedDataset(rows, 43);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(dataset);
  ExactIndex index = ExactIndex::Build(table, nullptr);
  std::mt19937_64 rng(44);
  bitmap::BitmapQuery q;
  q.ranges = {{0, 3, 40}, {3, 0, 3}};
  util::BitVector whole = index.ExecuteBitwiseBits(q);
  for (const auto& [name, subset] : RowShapes(rows, &rng)) {
    q.rows = subset;
    std::vector<bool> got = index.Evaluate(q);
    ASSERT_EQ(got.size(), subset.size());
    for (size_t i = 0; i < subset.size(); ++i) {
      ASSERT_EQ(got[i], whole.Get(subset[i])) << name << " row " << subset[i];
      ASSERT_EQ(got[i], BinOracle(dataset, q, subset[i]))
          << name << " row " << subset[i];
    }
  }
  // No predicates: every requested row qualifies.
  q.ranges.clear();
  q.rows = {139999, 0, 65536};
  EXPECT_EQ(index.Evaluate(q), std::vector<bool>(3, true));
}

}  // namespace
}  // namespace engine
}  // namespace abitmap
