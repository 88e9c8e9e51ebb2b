#include "bitmap/binning.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "gtest/gtest.h"
#include "serve/workload.h"

namespace abitmap {
namespace bitmap {
namespace {

TEST(BinnerTest, EquiWidthBasics) {
  std::vector<double> values = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Binner b = Binner::EquiWidth(values, 5);
  EXPECT_EQ(b.cardinality(), 5u);
  EXPECT_EQ(b.BinOf(0.0), 0u);
  EXPECT_EQ(b.BinOf(1.9), 0u);
  EXPECT_EQ(b.BinOf(2.1), 1u);
  EXPECT_EQ(b.BinOf(9.9), 4u);
  EXPECT_EQ(b.BinOf(10.0), 4u);
}

TEST(BinnerTest, EquiWidthOutOfRangeClamped) {
  std::vector<double> values = {0, 10};
  Binner b = Binner::EquiWidth(values, 4);
  EXPECT_EQ(b.BinOf(-100.0), 0u);
  EXPECT_EQ(b.BinOf(100.0), 3u);
}

TEST(BinnerTest, EquiWidthConstantColumn) {
  std::vector<double> values(50, 3.14);
  Binner b = Binner::EquiWidth(values, 4);
  EXPECT_EQ(b.cardinality(), 4u);
  for (double v : values) EXPECT_EQ(b.BinOf(v), 0u);
}

TEST(BinnerTest, SingleBin) {
  std::vector<double> values = {1, 2, 3};
  Binner b = Binner::EquiWidth(values, 1);
  EXPECT_EQ(b.cardinality(), 1u);
  EXPECT_EQ(b.BinOf(-5), 0u);
  EXPECT_EQ(b.BinOf(5), 0u);
}

TEST(BinnerTest, EquiDepthBalancesCounts) {
  // 10,000 exponentially distributed values: equi-width would crowd the
  // low bins; equi-depth must keep them balanced.
  std::mt19937_64 rng(5);
  std::exponential_distribution<double> dist(1.0);
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(dist(rng));

  Binner b = Binner::EquiDepth(values, 10);
  std::vector<int> counts(10, 0);
  for (double v : values) ++counts[b.BinOf(v)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(BinnerTest, EquiDepthHandlesHeavyDuplicates) {
  // 90% of values identical: duplicate boundaries must collapse without
  // crashing, and every value must still map to a valid bin.
  std::vector<double> values(900, 1.0);
  for (int i = 0; i < 100; ++i) values.push_back(2.0 + i);
  Binner b = Binner::EquiDepth(values, 8);
  for (double v : values) EXPECT_LT(b.BinOf(v), b.cardinality());
}

TEST(BinnerTest, ApplyMatchesBinOf) {
  std::vector<double> values = {5.5, 1.1, 9.9, 3.3};
  Binner b = Binner::EquiWidth(values, 3);
  std::vector<uint32_t> binned = b.Apply(values);
  ASSERT_EQ(binned.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(binned[i], b.BinOf(values[i]));
  }
}

TEST(BinnerTest, BoundariesAreSorted) {
  std::mt19937_64 rng(17);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(std::uniform_real_distribution<double>(-50, 50)(rng));
  }
  for (uint32_t bins : {2u, 5u, 16u, 64u}) {
    Binner w = Binner::EquiWidth(values, bins);
    Binner d = Binner::EquiDepth(values, bins);
    EXPECT_TRUE(std::is_sorted(w.boundaries().begin(), w.boundaries().end()));
    EXPECT_TRUE(std::is_sorted(d.boundaries().begin(), d.boundaries().end()));
    EXPECT_EQ(w.cardinality(), bins);
    EXPECT_EQ(d.cardinality(), bins);
  }
}

/// Every value of `values`, each fine boundary with its two neighbouring
/// doubles, the infinities and NaN: FineOf must nest inside BinOf, and
/// the codes must stay below fine_cardinality().
void ExpectNested(const NestedBinner& b, const std::vector<double>& values) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> probes = values;
  for (double f : b.fine_boundaries()) {
    probes.push_back(f);
    probes.push_back(std::nextafter(f, -kInf));
    probes.push_back(std::nextafter(f, kInf));
  }
  probes.push_back(-kInf);
  probes.push_back(kInf);
  probes.push_back(std::numeric_limits<double>::quiet_NaN());
  for (double v : probes) {
    uint32_t code = b.FineOf(v);
    ASSERT_EQ(code / NestedBinner::kSubBins, b.BinOf(v)) << v;
    ASSERT_LT(code, b.fine_cardinality()) << v;
  }
  // The batched search agrees with the single one.
  std::vector<uint32_t> codes(probes.size());
  b.FineOf(probes.data(), probes.size(), codes.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(codes[i], b.FineOf(probes[i])) << probes[i];
  }
  // The coarse boundaries sit verbatim between the sub-boundaries.
  const std::vector<double>& coarse = b.coarse().boundaries();
  ASSERT_EQ(b.fine_boundaries().size(), b.fine_cardinality() - 1);
  for (size_t i = 0; i < coarse.size(); ++i) {
    EXPECT_EQ(b.fine_boundaries()[(i + 1) * NestedBinner::kSubBins - 1],
              coarse[i]);
  }
  EXPECT_TRUE(std::is_sorted(b.fine_boundaries().begin(),
                             b.fine_boundaries().end()));
}

/// Whether two boundary lists hold the same doubles, bit for bit.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::signbit(x) == std::signbit(y) && (x == y);
         });
}

TEST(NestedBinnerTest, FineCodesNestInsideBins) {
  // The seed table's three columns.
  engine::Table seed = serve::MakeSeedTable(20000, 1);
  for (uint32_t c = 0; c < seed.num_columns(); ++c) {
    SCOPED_TRACE(seed.column_names()[c]);
    NestedBinner b = NestedBinner::EquiDepth(seed.column(c), 16);
    EXPECT_TRUE(SameBits(b.coarse().boundaries(),
                         Binner::EquiDepth(seed.column(c), 16).boundaries()));
    ExpectNested(b, seed.column(c));
  }
  // An integer column with heavy ties: 70% zeros, the rest in 0..4.
  std::mt19937_64 rng(3);
  std::vector<double> ties;
  for (int i = 0; i < 5000; ++i) {
    ties.push_back(rng() % 10 < 7 ? 0.0 : static_cast<double>(rng() % 5));
  }
  {
    SCOPED_TRACE("ties");
    ExpectNested(NestedBinner::EquiDepth(ties, 16), ties);
    ExpectNested(NestedBinner::EquiWidth(ties, 16), ties);
  }
  // A constant column: every value in one bin, the other bins empty.
  std::vector<double> constant(300, 2.5);
  {
    SCOPED_TRACE("constant");
    NestedBinner depth = NestedBinner::EquiDepth(constant, 16);
    NestedBinner width = NestedBinner::EquiWidth(constant, 16);
    ExpectNested(depth, constant);
    ExpectNested(width, constant);
    EXPECT_EQ(width.BinOf(2.5), 0u);
  }
  // A single bin: the code is the sub-bin alone.
  {
    SCOPED_TRACE("one bin");
    NestedBinner one = NestedBinner::EquiDepth(seed.column(0), 1);
    EXPECT_EQ(one.fine_cardinality(), NestedBinner::kSubBins);
    ExpectNested(one, seed.column(0));
  }
}

TEST(NestedBinnerTest, EquiWidthKeepsCoarseBoundariesVerbatim) {
  // The coarse boundaries are Binner::EquiWidth's own, not recomputed as
  // lo + width * b.
  engine::Table seed = serve::MakeSeedTable(20000, 2);
  for (uint32_t c = 0; c < seed.num_columns(); ++c) {
    SCOPED_TRACE(seed.column_names()[c]);
    for (uint32_t bins : {3u, 10u, 16u}) {
      NestedBinner b = NestedBinner::EquiWidth(seed.column(c), bins);
      EXPECT_TRUE(
          SameBits(b.coarse().boundaries(),
                   Binner::EquiWidth(seed.column(c), bins).boundaries()));
      ExpectNested(b, seed.column(c));
    }
  }
}

TEST(NestedBinnerTest, NonPowerOfTwoBinCount) {
  // 10 bins make 160 codes, which need 8 bits.
  engine::Table seed = serve::MakeSeedTable(20000, 3);
  NestedBinner b = NestedBinner::EquiDepth(seed.column(2), 10);
  EXPECT_EQ(b.coarse().cardinality(), 10u);
  EXPECT_EQ(b.fine_cardinality(), 160u);
  uint32_t max_code = 0;
  for (double v : seed.column(2)) max_code = std::max(max_code, b.FineOf(v));
  EXPECT_EQ(max_code, 159u);
  ExpectNested(b, seed.column(2));
}

TEST(NestedBinnerTest, SubBinsAreEquiDepthInsideEachBin) {
  // 64,000 distinct values in 16 bins: each bin's 4,000 values split into
  // sub-bins of 250.
  std::vector<double> values;
  for (int i = 0; i < 64000; ++i) values.push_back(i * 0.5);
  std::shuffle(values.begin(), values.end(), std::mt19937_64(9));
  NestedBinner b = NestedBinner::EquiDepth(values, 16);
  std::vector<int> counts(b.fine_cardinality(), 0);
  for (double v : values) ++counts[b.FineOf(v)];
  for (int c : counts) EXPECT_EQ(c, 250);
}

/// Each code's observed range equals a brute-force scan of `values`
/// (an empty code reads [+inf, -inf]) and lies inside the code's
/// boundaries. Returns the number of empty codes.
uint32_t ExpectObservedRanges(const NestedBinner& b,
                              const std::vector<double>& values) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> min(b.fine_cardinality(), kInf);
  std::vector<double> max(b.fine_cardinality(), -kInf);
  for (double v : values) {
    const uint32_t c = b.FineOf(v);
    min[c] = std::min(min[c], v);
    max[c] = std::max(max[c], v);
  }
  const std::vector<double>& f = b.fine_boundaries();
  uint32_t empty = 0;
  for (uint32_t c = 0; c < b.fine_cardinality(); ++c) {
    EXPECT_EQ(b.observed_min(c), min[c]) << "code " << c;
    EXPECT_EQ(b.observed_max(c), max[c]) << "code " << c;
    if (min[c] > max[c]) {
      ++empty;
      continue;
    }
    if (c > 0) EXPECT_LE(f[c - 1], b.observed_min(c)) << "code " << c;
    if (c < f.size()) EXPECT_LT(b.observed_max(c), f[c]) << "code " << c;
  }
  return empty;
}

TEST(NestedBinnerTest, ObservedRangesBoundEachCode) {
  engine::Table seed = serve::MakeSeedTable(20000, 1);
  for (uint32_t c = 0; c < seed.num_columns(); ++c) {
    SCOPED_TRACE(seed.column_names()[c]);
    ExpectObservedRanges(NestedBinner::EquiDepth(seed.column(c), 16),
                         seed.column(c));
    ExpectObservedRanges(NestedBinner::EquiWidth(seed.column(c), 16),
                         seed.column(c));
    ExpectObservedRanges(NestedBinner::EquiDepth(seed.column(c), 10),
                         seed.column(c));
  }
  // Heavy ties collapse sub-boundaries, leaving empty codes between them.
  std::mt19937_64 rng(3);
  std::vector<double> ties;
  for (int i = 0; i < 5000; ++i) {
    ties.push_back(rng() % 10 < 7 ? 0.0 : static_cast<double>(rng() % 5));
  }
  {
    SCOPED_TRACE("ties");
    EXPECT_GT(ExpectObservedRanges(NestedBinner::EquiDepth(ties, 16), ties),
              0u);
    EXPECT_GT(ExpectObservedRanges(NestedBinner::EquiWidth(ties, 16), ties),
              0u);
  }
  // A constant column: one code holds [2.5, 2.5], every other is empty.
  std::vector<double> constant(300, 2.5);
  for (const NestedBinner& b : {NestedBinner::EquiDepth(constant, 16),
                                NestedBinner::EquiWidth(constant, 16)}) {
    SCOPED_TRACE("constant");
    EXPECT_EQ(ExpectObservedRanges(b, constant), b.fine_cardinality() - 1);
    EXPECT_EQ(b.observed_min(b.FineOf(2.5)), 2.5);
    EXPECT_EQ(b.observed_max(b.FineOf(2.5)), 2.5);
  }
  // Infinite values land in the first and last codes' ranges.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> infinite = seed.column(0);
  infinite[0] = -kInf;
  infinite[1] = kInf;
  {
    SCOPED_TRACE("infinite");
    NestedBinner b = NestedBinner::EquiDepth(infinite, 16);
    ExpectObservedRanges(b, infinite);
    EXPECT_EQ(b.observed_min(0), -kInf);
    EXPECT_EQ(b.observed_max(b.fine_cardinality() - 1), kInf);
  }
}

}  // namespace
}  // namespace bitmap
}  // namespace abitmap
