// Tests for the query-planning and maintenance features of AbIndex:
// selectivity-ordered evaluation, analytic precision estimation, appends
// and the rebuild advisory.

#include <random>

#include "gtest/gtest.h"

#include "bitmap/bitmap_table.h"
#include "core/ab_index.h"
#include "data/generators.h"
#include "data/metrics.h"
#include "data/query_gen.h"
#include "util/byte_io.h"

namespace abitmap {
namespace ab {
namespace {

bitmap::BinnedDataset SkewedDataset(uint64_t rows, uint64_t seed) {
  // Attribute 0 uniform over 20 bins, attribute 1 zipf over 20 bins:
  // selectivities differ strongly between attributes.
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "mixed", rows, 1, 20, data::Distribution::kUniform, seed);
  bitmap::BinnedDataset z = data::MakeSynthetic(
      "z", rows, 1, 20, data::Distribution::kZipf, seed + 1, 1.2);
  d.attributes.push_back(z.attributes[0]);
  d.values.push_back(z.values[0]);
  return d;
}

TEST(SelectivityOrderingTest, OrderedAndUnorderedAgree) {
  bitmap::BinnedDataset d = SkewedDataset(2000, 1);
  AbConfig ordered_cfg;
  ordered_cfg.alpha = 8;
  AbConfig unordered_cfg = ordered_cfg;
  unordered_cfg.preserve_query_order = true;
  AbIndex ordered = AbIndex::Build(d, ordered_cfg);
  AbIndex unordered = AbIndex::Build(d, unordered_cfg);

  data::QueryGenParams qp;
  qp.num_queries = 30;
  qp.rows_queried = 500;
  for (const bitmap::BitmapQuery& q : data::GenerateQueries(d, qp)) {
    EXPECT_EQ(ordered.Evaluate(q), unordered.Evaluate(q));
  }
}

TEST(SelectivityOrderingTest, HistogramsMatchData) {
  bitmap::BinnedDataset d = SkewedDataset(3000, 2);
  AbConfig cfg;
  cfg.alpha = 8;
  AbIndex index = AbIndex::Build(d, cfg);
  for (uint32_t a = 0; a < 2; ++a) {
    uint64_t total = 0;
    for (uint32_t b = 0; b < 20; ++b) {
      uint64_t expected = 0;
      for (uint32_t v : d.values[a]) expected += v == b;
      EXPECT_EQ(index.ColumnSetBits(a, b), expected) << a << "," << b;
      total += expected;
    }
    EXPECT_EQ(total, 3000u);
  }
}

TEST(SelectivityOrderingTest, RangeSelectivityViaPublicHistogram) {
  bitmap::BinnedDataset d = SkewedDataset(1000, 3);
  AbConfig cfg;
  cfg.alpha = 8;
  AbIndex index = AbIndex::Build(d, cfg);
  // The zipf attribute's first bin dominates; its histogram entry must be
  // far larger than the tail bin's.
  EXPECT_GT(index.ColumnSetBits(1, 0), index.ColumnSetBits(1, 19) * 4);
}

TEST(PrecisionEstimateTest, TracksMeasuredPrecision) {
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "u", 5000, 3, 12, data::Distribution::kUniform, 4);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  data::QueryGenParams qp;
  qp.num_queries = 60;
  qp.rows_queried = 1000;
  qp.seed = 5;
  std::vector<bitmap::BitmapQuery> queries = data::GenerateQueries(d, qp);

  for (double alpha : {4.0, 8.0, 16.0}) {
    AbConfig cfg;
    cfg.alpha = alpha;
    AbIndex index = AbIndex::Build(d, cfg);
    data::BatchAccuracy batch;
    double estimate_sum = 0;
    for (const bitmap::BitmapQuery& q : queries) {
      batch.Add(data::CompareResults(table.Evaluate(q), index.Evaluate(q)));
      estimate_sum += index.EstimateQueryPrecision(q);
    }
    double measured = batch.precision();
    double estimated = estimate_sum / queries.size();
    // The independence-assumption estimate must land near the measurement.
    EXPECT_NEAR(estimated, measured, 0.12)
        << "alpha=" << alpha << " measured=" << measured;
  }
}

TEST(PrecisionEstimateTest, EmptyQueryIsExact) {
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "u", 100, 2, 4, data::Distribution::kUniform, 6);
  AbConfig cfg;
  cfg.alpha = 8;
  AbIndex index = AbIndex::Build(d, cfg);
  bitmap::BitmapQuery q;
  EXPECT_EQ(index.EstimateQueryPrecision(q), 1.0);
}

TEST(PrecisionEstimateTest, MoreSelectiveQueriesEstimateLowerPrecision) {
  // Precision = true/reported: with rarer true matches the same FP floor
  // hurts more. The estimator must reflect that.
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "u", 5000, 2, 20, data::Distribution::kUniform, 7);
  AbConfig cfg;
  cfg.alpha = 8;
  AbIndex index = AbIndex::Build(d, cfg);
  bitmap::BitmapQuery narrow;
  narrow.ranges = {{0, 3, 3}, {1, 7, 7}};  // ~0.25% of rows
  bitmap::BitmapQuery wide;
  wide.ranges = {{0, 0, 9}, {1, 0, 9}};  // ~25% of rows
  EXPECT_LT(index.EstimateQueryPrecision(narrow),
            index.EstimateQueryPrecision(wide));
}

TEST(AppendTest, StatisticsSurviveSerialization) {
  bitmap::BinnedDataset d = SkewedDataset(1000, 16);
  AbConfig cfg;
  cfg.alpha = 8;
  AbIndex original = AbIndex::Build(d, cfg);
  util::ByteWriter w;
  original.Serialize(&w);
  util::ByteReader r(w.bytes());
  util::StatusOr<AbIndex> back = AbIndex::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  for (uint32_t a = 0; a < 2; ++a) {
    for (uint32_t b = 0; b < 20; ++b) {
      EXPECT_EQ(back.value().ColumnSetBits(a, b), original.ColumnSetBits(a, b));
    }
  }
  bitmap::BitmapQuery q;
  q.ranges = {{0, 1, 3}, {1, 0, 2}};
  EXPECT_DOUBLE_EQ(back.value().EstimateQueryPrecision(q),
                   original.EstimateQueryPrecision(q));
  EXPECT_EQ(back.value().built_fp(), original.built_fp());
}

}  // namespace
}  // namespace ab
}  // namespace abitmap
