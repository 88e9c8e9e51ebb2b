#include "core/ab_index.h"

#include <random>
#include <tuple>

#include "gtest/gtest.h"

#include "bitmap/bitmap_table.h"
#include "data/generators.h"
#include "data/metrics.h"
#include "data/query_gen.h"

namespace abitmap {
namespace ab {
namespace {

bitmap::BinnedDataset TestDataset(uint64_t rows, uint64_t seed) {
  return data::MakeSynthetic("test", rows, 3, 10, data::Distribution::kUniform,
                             seed);
}

TEST(AbIndexTest, LevelNames) {
  EXPECT_STREQ(LevelName(Level::kPerDataset), "per-dataset");
  EXPECT_STREQ(LevelName(Level::kPerAttribute), "per-attribute");
  EXPECT_STREQ(LevelName(Level::kPerColumn), "per-column");
  EXPECT_STREQ(HashSchemeName(HashScheme::kIndependent), "independent");
}

TEST(AbIndexTest, FilterCountPerLevel) {
  bitmap::BinnedDataset d = TestDataset(1000, 1);
  AbConfig cfg;
  cfg.alpha = 8;
  cfg.level = Level::kPerDataset;
  EXPECT_EQ(AbIndex::Build(d, cfg).num_filters(), 1u);
  cfg.level = Level::kPerAttribute;
  EXPECT_EQ(AbIndex::Build(d, cfg).num_filters(), 3u);
  cfg.level = Level::kPerColumn;
  EXPECT_EQ(AbIndex::Build(d, cfg).num_filters(), 30u);
}

class AbIndexLevelTest : public ::testing::TestWithParam<Level> {};

TEST_P(AbIndexLevelTest, NoFalseNegativesOnCells) {
  bitmap::BinnedDataset d = TestDataset(800, 2);
  AbConfig cfg;
  cfg.level = GetParam();
  cfg.alpha = 8;
  AbIndex index = AbIndex::Build(d, cfg);
  // Every true cell of the bitmap table must test positive.
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint64_t i = 0; i < 800; ++i) {
      EXPECT_TRUE(index.TestCell(i, a, d.values[a][i]))
          << "row " << i << " attr " << a;
    }
  }
}

TEST_P(AbIndexLevelTest, QueriesAreSupersetsOfExact) {
  bitmap::BinnedDataset d = TestDataset(1200, 3);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  AbConfig cfg;
  cfg.level = GetParam();
  cfg.alpha = 8;
  AbIndex index = AbIndex::Build(d, cfg);

  data::QueryGenParams qp;
  qp.num_queries = 25;
  qp.rows_queried = 300;
  qp.seed = 11;
  for (const bitmap::BitmapQuery& q : data::GenerateQueries(d, qp)) {
    std::vector<bool> exact = table.Evaluate(q);
    std::vector<bool> approx = index.Evaluate(q);
    data::QueryAccuracy acc = data::CompareResults(exact, approx);
    EXPECT_EQ(acc.false_negatives, 0u);
    EXPECT_EQ(acc.recall(), 1.0);
  }
}

TEST_P(AbIndexLevelTest, PrecisionIsHighAtAlpha16) {
  bitmap::BinnedDataset d = TestDataset(2000, 4);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  AbConfig cfg;
  cfg.level = GetParam();
  cfg.alpha = 16;
  AbIndex index = AbIndex::Build(d, cfg);

  data::QueryGenParams qp;
  qp.num_queries = 40;
  qp.rows_queried = 500;
  qp.seed = 13;
  data::BatchAccuracy batch;
  for (const bitmap::BitmapQuery& q : data::GenerateQueries(d, qp)) {
    batch.Add(data::CompareResults(table.Evaluate(q), index.Evaluate(q)));
  }
  // Paper: alpha=16 precision approaches 1 (Figure 11a).
  EXPECT_GT(batch.precision(), 0.95) << LevelName(GetParam());
  EXPECT_EQ(batch.false_negatives, 0u);
}

INSTANTIATE_TEST_SUITE_P(Levels, AbIndexLevelTest,
                         ::testing::Values(Level::kPerDataset,
                                           Level::kPerAttribute,
                                           Level::kPerColumn),
                         [](const ::testing::TestParamInfo<Level>& info) {
                           switch (info.param) {
                             case Level::kPerDataset:
                               return "PerDataset";
                             case Level::kPerAttribute:
                               return "PerAttribute";
                             default:
                               return "PerColumn";
                           }
                         });

TEST(AbIndexTest, SizeMatchesComputeLevelSize) {
  bitmap::BinnedDataset d = TestDataset(1500, 5);
  for (Level level :
       {Level::kPerDataset, Level::kPerAttribute, Level::kPerColumn}) {
    AbConfig cfg;
    cfg.level = level;
    cfg.alpha = 4;
    AbIndex index = AbIndex::Build(d, cfg);
    LevelSizeReport report = ComputeLevelSize(d, level, 4);
    EXPECT_EQ(index.SizeInBytes(), report.total_bytes) << LevelName(level);
    EXPECT_EQ(index.num_filters(), report.num_filters);
  }
}

TEST(AbIndexTest, ComputeLevelSizeMatchesPaperShapes) {
  // Section 4.2: per-attribute ABs can be alpha_1 = alpha_2 smaller each;
  // one per-attribute AB is 1/d-th the per-dataset AB when d is a power of
  // two fraction... concretely verify with d=4 attributes.
  bitmap::BinnedDataset d =
      data::MakeSynthetic("t4", 4096, 4, 8, data::Distribution::kUniform, 6);
  LevelSizeReport ds = ComputeLevelSize(d, Level::kPerDataset, 4);
  LevelSizeReport attr = ComputeLevelSize(d, Level::kPerAttribute, 4);
  // s_dataset = 4*N and d=4 ABs of s=N: identical total when everything is
  // a power of two.
  EXPECT_EQ(ds.total_bytes, attr.total_bytes);
  EXPECT_EQ(attr.single_bytes * 4, attr.total_bytes);
}

TEST(AbIndexTest, ChooseLevelPrefersSmallerTotal) {
  bitmap::BinnedDataset d = TestDataset(1000, 7);
  Level chosen = ChooseLevel(d, 8);
  uint64_t chosen_bytes = ComputeLevelSize(d, chosen, 8).total_bytes;
  for (Level level :
       {Level::kPerDataset, Level::kPerAttribute, Level::kPerColumn}) {
    EXPECT_LE(chosen_bytes, ComputeLevelSize(d, level, 8).total_bytes);
  }
}

TEST(AbIndexTest, OptimalKChosenWhenUnset) {
  bitmap::BinnedDataset d = TestDataset(500, 8);
  AbConfig cfg;
  cfg.level = Level::kPerAttribute;
  cfg.alpha = 8;
  cfg.k = 0;  // auto
  AbIndex index = AbIndex::Build(d, cfg);
  // Realized alpha is n_bits / N which is >= 8; optimal k near alpha*ln2.
  double realized = static_cast<double>(index.filter(0).size_bits()) / 500.0;
  EXPECT_EQ(index.filter(0).k(), OptimalK(realized));
}

TEST(AbIndexTest, ExplicitKRespected) {
  bitmap::BinnedDataset d = TestDataset(500, 9);
  AbConfig cfg;
  cfg.alpha = 8;
  cfg.k = 3;
  AbIndex index = AbIndex::Build(d, cfg);
  EXPECT_EQ(index.filter(0).k(), 3);
}

TEST(AbIndexTest, DegenerateRowOnlyMappingSaturates) {
  // Section 3.2.2's warning: F(i,j)=i at the per-dataset level sets the
  // same k bits for every attribute of row i; any queried cell of an
  // inserted row then reports 1, so the FP rate over non-matching cells
  // approaches 1.
  bitmap::BinnedDataset d = TestDataset(400, 10);
  AbConfig cfg;
  cfg.level = Level::kPerDataset;
  cfg.alpha = 8;
  cfg.degenerate_row_only_mapping = true;
  AbIndex index = AbIndex::Build(d, cfg);
  uint64_t fp = 0, negatives = 0;
  for (uint64_t i = 0; i < 400; ++i) {
    for (uint32_t b = 0; b < 10; ++b) {
      if (d.values[0][i] != b) {
        ++negatives;
        if (index.TestCell(i, 0, b)) ++fp;
      }
    }
  }
  EXPECT_EQ(fp, negatives);  // every negative cell is a false positive
}

TEST(AbIndexTest, ParallelBuildIsBitIdenticalToSerial) {
  bitmap::BinnedDataset d = TestDataset(3000, 21);
  for (Level level :
       {Level::kPerDataset, Level::kPerAttribute, Level::kPerColumn}) {
    AbConfig cfg;
    cfg.level = level;
    cfg.alpha = 8;
    AbIndex serial = AbIndex::Build(d, cfg);
    AbIndex parallel = AbIndex::BuildParallel(d, cfg, 4);
    ASSERT_EQ(serial.num_filters(), parallel.num_filters());
    for (size_t f = 0; f < serial.num_filters(); ++f) {
      EXPECT_EQ(serial.filter(f).bits(), parallel.filter(f).bits())
          << LevelName(level) << " filter " << f;
      EXPECT_EQ(serial.filter(f).insertions(),
                parallel.filter(f).insertions());
    }
  }
}

TEST(AbIndexTest, ParallelBuildSingleThreadDegenerates) {
  bitmap::BinnedDataset d = TestDataset(200, 22);
  AbConfig cfg;
  cfg.alpha = 8;
  AbIndex serial = AbIndex::Build(d, cfg);
  AbIndex parallel = AbIndex::BuildParallel(d, cfg, 1);
  EXPECT_EQ(serial.filter(0).bits(), parallel.filter(0).bits());
}

TEST(AbIndexTest, ParallelBuildMoreThreadsThanRows) {
  bitmap::BinnedDataset d = TestDataset(5, 23);
  AbConfig cfg;
  cfg.alpha = 8;
  AbIndex parallel = AbIndex::BuildParallel(d, cfg, 16);
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint64_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(parallel.TestCell(i, a, d.values[a][i]));
    }
  }
}

TEST(AbIndexTest, ColumnGroupSchemeWorksAtAttributeLevel) {
  bitmap::BinnedDataset d = TestDataset(600, 12);
  AbConfig cfg;
  cfg.level = Level::kPerAttribute;
  cfg.alpha = 8;
  cfg.scheme = HashScheme::kColumnGroup;
  cfg.k = 2;
  AbIndex index = AbIndex::Build(d, cfg);
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint64_t i = 0; i < 600; ++i) {
      EXPECT_TRUE(index.TestCell(i, a, d.values[a][i]));
    }
  }
}

TEST(AbIndexTest, Sha1SchemeNoFalseNegatives) {
  bitmap::BinnedDataset d = TestDataset(500, 13);
  AbConfig cfg;
  cfg.alpha = 8;
  cfg.scheme = HashScheme::kSha1;
  cfg.k = 4;
  AbIndex index = AbIndex::Build(d, cfg);
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint64_t i = 0; i < 500; ++i) {
      EXPECT_TRUE(index.TestCell(i, a, d.values[a][i]));
    }
  }
}

TEST(AbIndexTest, PrecisionImprovesWithAlpha) {
  // Figure 11(a): precision rises steadily with alpha.
  bitmap::BinnedDataset d = TestDataset(2000, 14);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  data::QueryGenParams qp;
  qp.num_queries = 30;
  qp.rows_queried = 400;
  qp.seed = 15;
  std::vector<bitmap::BitmapQuery> queries = data::GenerateQueries(d, qp);

  double prev = 0;
  for (double alpha : {2.0, 4.0, 8.0, 16.0}) {
    AbConfig cfg;
    cfg.alpha = alpha;
    AbIndex index = AbIndex::Build(d, cfg);
    data::BatchAccuracy batch;
    for (const bitmap::BitmapQuery& q : queries) {
      batch.Add(data::CompareResults(table.Evaluate(q), index.Evaluate(q)));
    }
    EXPECT_GE(batch.precision(), prev - 0.05) << alpha;
    prev = batch.precision();
  }
  EXPECT_GT(prev, 0.95);
}

}  // namespace
}  // namespace ab
}  // namespace abitmap
