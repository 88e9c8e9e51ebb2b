#include "engine/table.h"

#include <cmath>
#include <random>

#include "gtest/gtest.h"

namespace abitmap {
namespace engine {
namespace {

util::StatusOr<Table> MakeTable() {
  return Table::FromColumns(
      "t", {"x", "y"},
      {{1.0, 2.0, 3.0, 4.0, 5.0}, {10.0, 20.0, 30.0, 40.0, 50.0}});
}

TEST(TableTest, FromColumnsBasics) {
  util::StatusOr<Table> t = MakeTable();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().num_rows(), 5u);
  EXPECT_EQ(t.value().num_columns(), 2u);
  EXPECT_EQ(t.value().value(2, 1), 30.0);
  EXPECT_EQ(t.value().ColumnIndex("y"), 1);
  EXPECT_EQ(t.value().ColumnIndex("nope"), -1);
}

TEST(TableTest, RejectsRaggedColumns) {
  util::StatusOr<Table> t =
      Table::FromColumns("t", {"a", "b"}, {{1.0, 2.0}, {1.0}});
  EXPECT_FALSE(t.ok());
}

TEST(TableTest, RejectsEmpty) {
  EXPECT_FALSE(Table::FromColumns("t", {}, {}).ok());
  EXPECT_FALSE(Table::FromColumns("t", {"a"}, {{}}).ok());
}

TEST(TableTest, RejectsNaN) {
  // A base NaN has no bin to sit in, so the engine's whole-relation verify
  // never meets one: tables, ingest and the serve layer all reject it.
  util::StatusOr<Table> t = Table::FromColumns(
      "t", {"a", "b"}, {{1.0, 2.0}, {3.0, std::nan("")}});
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), util::StatusCode::kInvalidArgument);
  CsvDocument doc;
  ASSERT_TRUE(ParseCsv("x\n1\nnan\n", &doc).ok());
  EXPECT_FALSE(Table::FromCsv("csv", doc).ok());
}

TEST(TableTest, FromCsv) {
  CsvDocument doc;
  ASSERT_TRUE(ParseCsv("x,y\n1.5,2\n-3,4e2\n", &doc).ok());
  util::StatusOr<Table> t = Table::FromCsv("csv", doc);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t.value().num_rows(), 2u);
  EXPECT_DOUBLE_EQ(t.value().value(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(t.value().value(1, 1), 400.0);
}

TEST(TableTest, FromCsvRejectsNonNumeric) {
  CsvDocument doc;
  ASSERT_TRUE(ParseCsv("x\nhello\n", &doc).ok());
  util::StatusOr<Table> t = Table::FromCsv("csv", doc);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(TableTest, DiscretizeEquiDepth) {
  std::mt19937_64 rng(4);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(std::exponential_distribution<double>(1.0)(rng));
  }
  util::StatusOr<Table> t = Table::FromColumns("t", {"v"}, {values});
  ASSERT_TRUE(t.ok());
  BinningSpec spec;
  spec.kind = BinningSpec::Kind::kEquiDepth;
  spec.bins = 10;
  Table::Discretized d = t.value().Discretize(spec);
  d.dataset.CheckValid();
  EXPECT_EQ(d.dataset.num_rows(), 1000u);
  EXPECT_EQ(d.dataset.attributes[0].cardinality, 10u);
  EXPECT_EQ(d.dataset.attributes[0].name, "v");
  std::vector<int> counts(10, 0);
  for (uint32_t b : d.dataset.values[0]) ++counts[b];
  for (int c : counts) {
    EXPECT_GT(c, 50);
    EXPECT_LT(c, 200);
  }
}

TEST(TableTest, DiscretizeBinsMatchBinner) {
  util::StatusOr<Table> t = MakeTable();
  ASSERT_TRUE(t.ok());
  BinningSpec spec;
  spec.kind = BinningSpec::Kind::kEquiWidth;
  spec.bins = 4;
  Table::Discretized d = t.value().Discretize(spec);
  for (uint64_t r = 0; r < 5; ++r) {
    for (uint32_t c = 0; c < 2; ++c) {
      EXPECT_EQ(d.dataset.values[c][r],
                d.binners[c].BinOf(t.value().value(r, c)));
    }
  }
}

TEST(TableTest, PerColumnSpecs) {
  util::StatusOr<Table> t = MakeTable();
  ASSERT_TRUE(t.ok());
  std::vector<BinningSpec> specs(2);
  specs[0].bins = 2;
  specs[1].bins = 5;
  Table::Discretized d = t.value().Discretize(specs);
  EXPECT_EQ(d.dataset.attributes[0].cardinality, 2u);
  EXPECT_EQ(d.dataset.attributes[1].cardinality, 5u);
}

}  // namespace
}  // namespace engine
}  // namespace abitmap
