#include "engine/exact_index.h"

#include <algorithm>
#include <random>

#include "bitmap/bitmap_table.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "roaring/roaring_index.h"
#include "util/bitvector.h"
#include "wah/wah_query.h"

namespace abitmap {
namespace engine {
namespace {

/// A column with `runs` runs of `run_len` set bits, evenly spaced over
/// `rows` rows — lets a test dial density and run structure separately.
util::BitVector MakeRunColumn(uint64_t rows, uint64_t runs,
                              uint64_t run_len) {
  util::BitVector bits(rows);
  uint64_t stride = rows / runs;
  for (uint64_t r = 0; r < runs; ++r) {
    uint64_t start = r * stride;
    for (uint64_t i = 0; i < run_len && start + i < rows; ++i) {
      bits.Set(start + i);
    }
  }
  return bits;
}

TEST(ColumnProfileTest, CountsBitsAndRuns) {
  util::BitVector bits(1000);
  // Three runs: [10,12], {100}, [500,539].
  for (uint64_t i : {10, 11, 12, 100}) bits.Set(i);
  for (uint64_t i = 500; i < 540; ++i) bits.Set(i);
  ColumnProfile p = ProfileColumn(bits);
  EXPECT_EQ(p.rows, 1000u);
  EXPECT_EQ(p.set_bits, 44u);
  EXPECT_EQ(p.runs, 3u);
  EXPECT_NEAR(p.density(), 0.044, 1e-9);
  EXPECT_NEAR(p.avg_run_length(), 44.0 / 3.0, 1e-9);
}

TEST(ColumnProfileTest, RunsAcrossWordBoundaries) {
  // One run straddling the bit-63/64 boundary must count once, not twice.
  util::BitVector bits(256);
  for (uint64_t i = 60; i < 70; ++i) bits.Set(i);
  EXPECT_EQ(ProfileColumn(bits).runs, 1u);
  // A run starting exactly at a word boundary.
  util::BitVector at_boundary(256);
  for (uint64_t i = 128; i < 130; ++i) at_boundary.Set(i);
  EXPECT_EQ(ProfileColumn(at_boundary).runs, 1u);
}

TEST(ChooseBackendTest, ThresholdTable) {
  auto profile = [](uint64_t rows, uint64_t set_bits, uint64_t runs) {
    ColumnProfile p;
    p.rows = rows;
    p.set_bits = set_bits;
    p.runs = runs;
    return p;
  };
  // Sparse (<1%) -> Roaring, regardless of run structure.
  EXPECT_EQ(ChooseBackend(profile(100000, 500, 500)), BackendChoice::kRoaring);
  EXPECT_EQ(ChooseBackend(profile(100000, 900, 10)), BackendChoice::kRoaring);
  // Long runs (>= 31 set bits per run) -> WAH.
  EXPECT_EQ(ChooseBackend(profile(100000, 40000, 1000)), BackendChoice::kWah);
  // Dense and fragmented -> AB-preferred.
  EXPECT_EQ(ChooseBackend(profile(100000, 30000, 15000)), BackendChoice::kAb);
  // Low density with mid-length runs -> BBC.
  EXPECT_EQ(ChooseBackend(profile(100000, 3000, 300)), BackendChoice::kBbc);
  // Mid-density fragmented -> Roaring.
  EXPECT_EQ(ChooseBackend(profile(100000, 10000, 9000)),
            BackendChoice::kRoaring);
}

TEST(BackendChoiceTest, NamesRoundTrip) {
  for (size_t i = 0; i < kNumBackendChoices; ++i) {
    BackendChoice c = static_cast<BackendChoice>(i);
    BackendChoice parsed;
    ASSERT_TRUE(ParseBackendChoice(BackendChoiceName(c), &parsed));
    EXPECT_EQ(parsed, c);
  }
  BackendChoice unused;
  EXPECT_FALSE(ParseBackendChoice("auto", &unused));
  EXPECT_FALSE(ParseBackendChoice("", &unused));
  EXPECT_FALSE(ParseBackendChoice("WAH", &unused));
}

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
  for (const char* backend : {"auto", "wah", "bbc", "roaring", "ab"}) {
    ExactIndex index = ExactIndex::Build(table, nullptr, backend);
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
      EXPECT_EQ(parallel.column_choice(j), serial.column_choice(j));
      EXPECT_EQ(parallel.DecompressColumn(j), serial.DecompressColumn(j));
    }
    EXPECT_EQ(parallel.SizeInBytes(), serial.SizeInBytes());
  }
}

TEST(ExactIndexTest, PlanLabelsAndDirectAccess) {
  bitmap::BinnedDataset dataset = SmallDataset(1200, 24);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(dataset);

  ExactIndex roaring_only = ExactIndex::Build(table, nullptr, "roaring");
  bitmap::BitmapQuery q;
  q.ranges.push_back(bitmap::AttributeRange{0, 0, 3});
  EXPECT_STREQ(roaring_only.PlanBackendLabel(q), "roaring");
  EXPECT_TRUE(roaring_only.PlanHasDirectAccess(q));

  // kAb columns are stored as Roaring, so they keep direct access.
  ExactIndex ab_only = ExactIndex::Build(table, nullptr, "ab");
  EXPECT_STREQ(ab_only.PlanBackendLabel(q), "ab");
  EXPECT_TRUE(ab_only.PlanHasDirectAccess(q));
  bitmap::BitmapQuery empty;
  EXPECT_STREQ(ab_only.PlanBackendLabel(empty), "none");
  EXPECT_TRUE(ab_only.PlanHasDirectAccess(empty));

  for (const char* backend : {"wah", "bbc"}) {
    ExactIndex rle = ExactIndex::Build(table, nullptr, backend);
    EXPECT_STREQ(rle.PlanBackendLabel(q), backend);
    EXPECT_FALSE(rle.PlanHasDirectAccess(q)) << backend;
  }
}

TEST(ExactIndexTest, SelectorPicksExpectedBackendsOnShapedColumns) {
  // Columns engineered to each selector regime, round-tripped through a
  // one-attribute table per shape so Build sees exactly that bitmap.
  const uint64_t rows = 200000;
  struct Shape {
    util::BitVector bits;
    BackendChoice want;
  };
  std::vector<Shape> shapes;
  {
    // 0.1% density, scattered singletons -> Roaring.
    util::BitVector sparse(rows);
    for (uint64_t i = 0; i < rows; i += 1000) sparse.Set(i);
    shapes.push_back({std::move(sparse), BackendChoice::kRoaring});
  }
  {
    // 20% density in runs of 100 -> WAH (avg run >= 31).
    shapes.push_back(
        {MakeRunColumn(rows, rows / 500, 100), BackendChoice::kWah});
  }
  {
    // 50% density alternating bits -> AB-preferred (dense, run length 1).
    util::BitVector dense(rows);
    for (uint64_t i = 0; i < rows; i += 2) dense.Set(i);
    shapes.push_back({std::move(dense), BackendChoice::kAb});
  }
  {
    // 2% density in runs of 10 -> BBC.
    shapes.push_back(
        {MakeRunColumn(rows, rows / 500, 10), BackendChoice::kBbc});
  }
  for (size_t s = 0; s < shapes.size(); ++s) {
    EXPECT_EQ(ChooseBackend(ProfileColumn(shapes[s].bits)), shapes[s].want)
        << "shape " << s;
  }
}

TEST(ExactIndexTest, SeedDatasetsRoundTripUnderSelector) {
  for (const bitmap::BinnedDataset& dataset :
       {data::MakeUniformDataset(31, 20), data::MakeLandsatDataset(32, 30),
        data::MakeHepDataset(33, 60)}) {
    bitmap::BitmapTable table = bitmap::BitmapTable::Build(dataset);
    ExactIndex index = ExactIndex::Build(table, nullptr);
    uint64_t total = 0;
    for (uint64_t c : index.choice_counts()) total += c;
    ASSERT_EQ(total, index.num_columns());
    for (uint32_t j = 0; j < index.num_columns(); ++j) {
      ASSERT_EQ(index.DecompressColumn(j), table.column(j)) << "column " << j;
    }
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
  // The dataset reaches every container kind.
  std::vector<uint64_t> census =
      roaring::RoaringIndex::Build(table).ContainerCensus();
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
  for (const char* backend : {"roaring", "ab", "auto", "wah", "bbc"}) {
    ExactIndex index = ExactIndex::Build(table, nullptr, backend);
    if (std::string(backend) == "auto") {
      // The selector mixes backends: R's long stripes land on WAH, so a
      // plan touching R falls back to whole-relation-then-pick.
      bitmap::BitmapQuery mixed;
      mixed.ranges = plans[2];
      EXPECT_STREQ(index.PlanBackendLabel(mixed), "mixed");
      EXPECT_FALSE(index.PlanHasDirectAccess(mixed));
      bitmap::BitmapQuery direct;
      direct.ranges = plans[0];
      EXPECT_TRUE(index.PlanHasDirectAccess(direct));
    }
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
              << backend << " plan " << p << " " << name << " row "
              << subset[i];
          ASSERT_EQ(got[i], BinOracle(dataset, q, subset[i]))
              << backend << " plan " << p << " " << name << " row "
              << subset[i];
        }
      }
    }
  }
}

TEST(ExactIndexTest, RoaringIndexSubsetsMatchWholeRelationThenPick) {
  const uint64_t rows = 140000;
  bitmap::BinnedDataset dataset = ChunkedDataset(rows, 43);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(dataset);
  roaring::RoaringIndex index = roaring::RoaringIndex::Build(table);
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
