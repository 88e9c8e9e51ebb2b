// Statistical self-verification of the paper's precision model (Section
// 4): over a seeded (alpha, k, encoding level) grid, the observed false
// positive rate of cell probes must sit inside a binomial confidence band
// around the analytic rate FP = (1 - e^{-k/alpha})^k — evaluated with the
// *realized* parameters, since AbSizeBits rounds filter sizes up to
// powers of two (realized alpha = n/s >= requested alpha). The exact
// finite-n formula FalsePositiveRateExact(n, s, k) is the per-filter
// expectation; a companion test bounds its distance to the asymptotic
// closed form.
//
// Every trial probes cells whose ground-truth value is 0 (bin != the
// row's actual value), so any 1 answered is a false positive and any
// false negative would be a hard contract violation.

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "gtest/gtest.h"

#include "bitmap/bitmap_table.h"
#include "core/ab_index.h"
#include "core/ab_theory.h"
#include "data/generators.h"
#include "data/query_gen.h"
#include "obs/trace.h"

namespace abitmap {
namespace {

struct GridPoint {
  ab::Level level;
  double alpha;
  int k;  // 0 = optimal for alpha
};

// The filter AbIndex routes cell (attr, global_col) to — mirrors the
// index's level-based routing, which the public filter() accessor exposes
// by construction order (dataset: one filter; attribute: one per attr;
// column: one per global column).
size_t RouteFilter(const ab::AbIndex& index, uint32_t attr,
                   uint32_t global_col) {
  switch (index.level()) {
    case ab::Level::kPerDataset:
      return 0;
    case ab::Level::kPerAttribute:
      return attr;
    case ab::Level::kPerColumn:
      return global_col;
  }
  return 0;
}

TEST(PrecisionModelTest, ObservedFpWithinBinomialBandAcrossGrid) {
  const std::vector<GridPoint> grid = {
      {ab::Level::kPerDataset, 4.0, 0},  {ab::Level::kPerDataset, 8.0, 0},
      {ab::Level::kPerAttribute, 4.0, 0}, {ab::Level::kPerAttribute, 8.0, 0},
      {ab::Level::kPerAttribute, 16.0, 0}, {ab::Level::kPerAttribute, 8.0, 2},
      {ab::Level::kPerColumn, 4.0, 0},   {ab::Level::kPerColumn, 8.0, 0},
  };
  const uint64_t kRows = 2000;
  const uint32_t kAttrs = 3;
  const uint32_t kBins = 8;
  bitmap::BinnedDataset dataset =
      data::MakeSynthetic("precision", kRows, kAttrs, kBins,
                          data::Distribution::kUniform, /*seed=*/11);

  for (const GridPoint& point : grid) {
    ab::AbConfig config;
    config.level = point.level;
    config.alpha = point.alpha;
    config.k = point.k;
    ab::AbIndex index = ab::AbIndex::Build(dataset, config);

    // Probe every truly-zero cell; accumulate the per-probe expectation
    // from the responsible filter's realized (n, s, k).
    double expected_fp = 0;
    double variance = 0;
    uint64_t observed_fp = 0;
    uint64_t probes = 0;
    for (uint64_t row = 0; row < kRows; ++row) {
      for (uint32_t attr = 0; attr < kAttrs; ++attr) {
        uint32_t true_bin = dataset.values[attr][row];
        for (uint32_t bin = 0; bin < kBins; ++bin) {
          if (bin == true_bin) {
            // The no-false-negative guarantee, checked while we're here.
            ASSERT_TRUE(index.TestCell(row, attr, bin));
            continue;
          }
          const ab::ApproximateBitmap& filter = index.filter(RouteFilter(
              index, attr, index.mapping().GlobalColumn(attr, bin)));
          double p = ab::FalsePositiveRateExact(
              filter.size_bits(), filter.insertions(), filter.k());
          expected_fp += p;
          variance += p * (1 - p);
          observed_fp += index.TestCell(row, attr, bin) ? 1 : 0;
          ++probes;
        }
      }
    }
    ASSERT_GT(probes, 0u);
    // Binomial band: 6 sigma plus a small model-error cushion (probes
    // into one filter are not perfectly independent; the exact formula
    // itself assumes independent bit occupancy).
    double band = 6.0 * std::sqrt(variance) + 0.02 * expected_fp + 10.0;
    EXPECT_NEAR(static_cast<double>(observed_fp), expected_fp, band)
        << "level=" << ab::LevelName(point.level)
        << " alpha=" << point.alpha << " k=" << point.k
        << " probes=" << probes;
  }
}

TEST(PrecisionModelTest, AsymptoticFormulaTracksExactAtRealizedAlpha) {
  // FP = (1 - e^{-k/alpha})^k with alpha = n/s must agree with the exact
  // finite-n rate to well under the confidence bands used above.
  for (double alpha : {2.0, 4.0, 8.0, 16.0}) {
    for (uint64_t s : {500ull, 5000ull, 50000ull}) {
      int k = ab::OptimalK(alpha);
      uint64_t n = ab::AbSizeBits(s, alpha);
      double realized_alpha =
          static_cast<double>(n) / static_cast<double>(s);
      double asymptotic = ab::FalsePositiveRate(realized_alpha, k);
      double exact = ab::FalsePositiveRateExact(n, s, k);
      EXPECT_NEAR(asymptotic, exact, 0.01 * exact + 1e-9)
          << "alpha=" << alpha << " s=" << s << " k=" << k;
    }
  }
}

TEST(PrecisionModelTest, TracePredictionMatchesObservedQueryPrecision) {
  // Query-level check of the estimator surfaced in QueryTrace: over a
  // seeded workload on uniform data (where the estimator's independence
  // assumption holds), the AB's total reported rows must track the
  // prediction total_true / predicted_precision.
  bitmap::BinnedDataset dataset =
      data::MakeSynthetic("trace", /*rows=*/20000, /*attrs=*/4,
                          /*cardinality=*/10, data::Distribution::kUniform,
                          /*seed=*/17);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(dataset);
  ab::AbConfig config;
  config.level = ab::Level::kPerAttribute;
  config.alpha = 8;
  ab::AbIndex index = ab::AbIndex::Build(dataset, config);

  data::QueryGenParams params;
  params.num_queries = 40;
  params.qdim = 2;
  params.bins_per_attr = 3;
  params.rows_queried = 2000;
  params.seed = 23;
  std::vector<bitmap::BitmapQuery> queries =
      data::GenerateQueries(dataset, params);
  ASSERT_FALSE(queries.empty());

  double expected_reported = 0;
  uint64_t total_reported = 0;
  for (const bitmap::BitmapQuery& q : queries) {
    obs::QueryTrace trace;
    std::vector<bool> approx = index.EvaluateBatched(q, &trace);
    std::vector<bool> exact = table.Evaluate(q);
    ASSERT_EQ(approx.size(), exact.size());
    uint64_t true_matches = 0;
    for (size_t i = 0; i < exact.size(); ++i) {
      if (exact[i]) {
        ++true_matches;
        ASSERT_TRUE(approx[i]);  // no false negatives, ever
      }
      total_reported += approx[i] ? 1 : 0;
    }
    ASSERT_GT(trace.predicted_precision, 0.0);
    ASSERT_LE(trace.predicted_precision, 1.0);
    expected_reported +=
        static_cast<double>(true_matches) / trace.predicted_precision;
  }
  // Generous aggregate band: the estimator is analytic, the observation
  // binomial; 15% relative plus an absolute floor keeps the test stable
  // across hash families while still catching a broken model (which is
  // off by integer factors, not percent).
  EXPECT_NEAR(static_cast<double>(total_reported), expected_reported,
              0.15 * expected_reported + 100.0);
}

}  // namespace
}  // namespace abitmap
