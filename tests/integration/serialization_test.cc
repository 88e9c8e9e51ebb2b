// Serialization round-trips and corruption injection across every
// persistable structure.

#include <cstdio>
#include <random>

#include "gtest/gtest.h"

#include "bbc/bbc_vector.h"
#include "bitmap/bitmap_table.h"
#include "core/ab_index.h"
#include "data/generators.h"
#include "data/query_gen.h"
#include "util/byte_io.h"
#include "util/file_io.h"
#include "wah/wah_query.h"
#include "wah/wah_vector.h"

namespace abitmap {
namespace {

util::BitVector RandomBits(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  util::BitVector out(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng() % 3 == 0) out.Set(i);
  }
  return out;
}

TEST(BitVectorSerializationTest, RoundTrip) {
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 1000u}) {
    util::BitVector original = RandomBits(n, n + 1);
    util::ByteWriter w;
    original.Serialize(&w);
    util::ByteReader r(w.bytes());
    util::BitVector back;
    ASSERT_TRUE(util::BitVector::Deserialize(&r, &back).ok()) << n;
    EXPECT_EQ(back, original) << n;
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(BitVectorSerializationTest, RejectsNonzeroPadding) {
  util::BitVector v = RandomBits(70, 1);
  util::ByteWriter w;
  v.Serialize(&w);
  // The final word's padding bits live at the end of the buffer; set one.
  std::vector<uint8_t> bytes = w.bytes();
  bytes.back() |= 0x80;  // bit 71 of the second word
  util::ByteReader r(bytes);
  util::BitVector back;
  EXPECT_EQ(util::BitVector::Deserialize(&r, &back).code(),
            util::StatusCode::kCorruption);
}

template <typename T>
class WahSerializationTypedTest : public ::testing::Test {};
using WahWordTypes = ::testing::Types<uint32_t, uint64_t>;
TYPED_TEST_SUITE(WahSerializationTypedTest, WahWordTypes);

TYPED_TEST(WahSerializationTypedTest, RoundTrip) {
  for (size_t n : {0u, 1u, 31u, 62u, 1000u, 50000u}) {
    auto original = wah::WahVectorT<TypeParam>::Compress(RandomBits(n, n));
    util::ByteWriter w;
    original.Serialize(&w);
    util::ByteReader r(w.bytes());
    wah::WahVectorT<TypeParam> back;
    ASSERT_TRUE(wah::WahVectorT<TypeParam>::Deserialize(&r, &back).ok()) << n;
    EXPECT_EQ(back, original) << n;
    EXPECT_EQ(back.Decompress(), original.Decompress()) << n;
  }
}

TYPED_TEST(WahSerializationTypedTest, RejectsGroupAccountingMismatch) {
  auto v = wah::WahVectorT<TypeParam>::Compress(RandomBits(1000, 3));
  util::ByteWriter w;
  v.Serialize(&w);
  std::vector<uint8_t> bytes = w.bytes();
  // Corrupt the bit count in the header (first varint byte).
  bytes[0] ^= 0x01;
  util::ByteReader r(bytes);
  wah::WahVectorT<TypeParam> back;
  EXPECT_FALSE(wah::WahVectorT<TypeParam>::Deserialize(&r, &back).ok());
}

TEST(BbcSerializationTest, RoundTrip) {
  for (size_t n : {0u, 1u, 8u, 9u, 5000u}) {
    bbc::BbcVector original = bbc::BbcVector::Compress(RandomBits(n, n + 7));
    util::ByteWriter w;
    original.Serialize(&w);
    util::ByteReader r(w.bytes());
    bbc::BbcVector back;
    ASSERT_TRUE(bbc::BbcVector::Deserialize(&r, &back).ok()) << n;
    EXPECT_EQ(back, original) << n;
  }
}

TEST(BbcSerializationTest, RejectsTruncatedLiteralRun) {
  bbc::BbcVector v = bbc::BbcVector::Compress(RandomBits(500, 9));
  util::ByteWriter w;
  v.Serialize(&w);
  std::vector<uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() - 3);  // chop the stream, keep the header intact
  util::ByteReader r(bytes);
  bbc::BbcVector back;
  EXPECT_FALSE(bbc::BbcVector::Deserialize(&r, &back).ok());
}

TEST(WahIndexSerializationTest, RoundTripPreservesAnswers) {
  bitmap::BinnedDataset d =
      data::MakeSynthetic("t", 1500, 3, 9, data::Distribution::kUniform, 12);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  wah::WahIndex original = wah::WahIndex::Build(table);

  util::ByteWriter w;
  original.Serialize(&w);
  util::ByteReader r(w.bytes());
  util::StatusOr<wah::WahIndex> back = wah::WahIndex::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().SizeInBytes(), original.SizeInBytes());

  data::QueryGenParams qp;
  qp.num_queries = 10;
  qp.rows_queried = 300;
  for (const bitmap::BitmapQuery& q : data::GenerateQueries(d, qp)) {
    EXPECT_EQ(back.value().Evaluate(q), original.Evaluate(q));
  }
}

TEST(WahIndexSerializationTest, TruncationRejected) {
  bitmap::BinnedDataset d =
      data::MakeSynthetic("t", 500, 2, 5, data::Distribution::kUniform, 13);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);
  wah::WahIndex original = wah::WahIndex::Build(table);
  util::ByteWriter w;
  original.Serialize(&w);
  std::vector<uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() / 2);
  util::ByteReader r(bytes);
  EXPECT_FALSE(wah::WahIndex::Deserialize(&r).ok());
}

class AbIndexSerializationTest : public ::testing::TestWithParam<ab::Level> {
 protected:
  bitmap::BinnedDataset dataset_ =
      data::MakeSynthetic("t", 2000, 3, 12, data::Distribution::kUniform, 5);
};

TEST_P(AbIndexSerializationTest, RoundTripPreservesAnswers) {
  ab::AbConfig cfg;
  cfg.level = GetParam();
  cfg.alpha = 8;
  ab::AbIndex original = ab::AbIndex::Build(dataset_, cfg);

  util::ByteWriter w;
  original.Serialize(&w);
  util::ByteReader r(w.bytes());
  util::StatusOr<ab::AbIndex> back = ab::AbIndex::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_EQ(back.value().SizeInBytes(), original.SizeInBytes());
  EXPECT_EQ(back.value().num_filters(), original.num_filters());

  data::QueryGenParams qp;
  qp.num_queries = 15;
  qp.rows_queried = 400;
  for (const bitmap::BitmapQuery& q : data::GenerateQueries(dataset_, qp)) {
    EXPECT_EQ(back.value().Evaluate(q), original.Evaluate(q));
  }
}

TEST_P(AbIndexSerializationTest, FileRoundTrip) {
  ab::AbConfig cfg;
  cfg.level = GetParam();
  cfg.alpha = 4;
  ab::AbIndex original = ab::AbIndex::Build(dataset_, cfg);
  // One file per level: ctest runs the three instances as concurrent
  // processes, which would otherwise overwrite each other's file.
  std::string path = ::testing::TempDir() + "/abitmap_index_test_" +
                     std::to_string(static_cast<int>(GetParam())) + ".abit";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  util::StatusOr<ab::AbIndex> back = ab::AbIndex::LoadFromFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  for (uint64_t row : {uint64_t{0}, uint64_t{999}, uint64_t{1999}}) {
    for (uint32_t attr = 0; attr < 3; ++attr) {
      for (uint32_t bin = 0; bin < 12; ++bin) {
        EXPECT_EQ(back.value().TestCell(row, attr, bin),
                  original.TestCell(row, attr, bin));
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Levels, AbIndexSerializationTest,
                         ::testing::Values(ab::Level::kPerDataset,
                                           ab::Level::kPerAttribute,
                                           ab::Level::kPerColumn),
                         [](const ::testing::TestParamInfo<ab::Level>& info) {
                           switch (info.param) {
                             case ab::Level::kPerDataset:
                               return "PerDataset";
                             case ab::Level::kPerAttribute:
                               return "PerAttribute";
                             default:
                               return "PerColumn";
                           }
                         });

TEST(AbIndexSerializationTest2, SchemesRoundTrip) {
  bitmap::BinnedDataset d =
      data::MakeSynthetic("t", 500, 2, 8, data::Distribution::kUniform, 6);
  for (ab::HashScheme scheme :
       {ab::HashScheme::kIndependent, ab::HashScheme::kSha1,
        ab::HashScheme::kDoubleHash, ab::HashScheme::kColumnGroup}) {
    ab::AbConfig cfg;
    cfg.level = ab::Level::kPerAttribute;
    cfg.alpha = 8;
    cfg.scheme = scheme;
    ab::AbIndex original = ab::AbIndex::Build(d, cfg);
    util::ByteWriter w;
    original.Serialize(&w);
    util::ByteReader r(w.bytes());
    util::StatusOr<ab::AbIndex> back = ab::AbIndex::Deserialize(&r);
    ASSERT_TRUE(back.ok())
        << ab::HashSchemeName(scheme) << ": " << back.status().ToString();
    // No false negatives through the round trip.
    for (uint64_t i = 0; i < 500; ++i) {
      for (uint32_t a = 0; a < 2; ++a) {
        ASSERT_TRUE(back.value().TestCell(i, a, d.values[a][i]));
      }
    }
  }
}

TEST(AbIndexSerializationTest2, WrongFamilyRejected) {
  bitmap::BinnedDataset d =
      data::MakeSynthetic("t", 300, 2, 6, data::Distribution::kUniform, 7);
  ab::AbConfig cfg;
  cfg.alpha = 8;
  cfg.scheme = ab::HashScheme::kIndependent;
  ab::AbIndex original = ab::AbIndex::Build(d, cfg);
  util::ByteWriter w;
  original.Serialize(&w);
  util::ByteReader r(w.bytes());
  // Force a mismatched family via the factory overload.
  util::StatusOr<ab::AbIndex> back = ab::AbIndex::Deserialize(
      &r, [](uint32_t) { return hash::MakeDoubleHashFamily(); });
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(AbIndexSerializationTest2, CorruptedPayloadRejected) {
  bitmap::BinnedDataset d =
      data::MakeSynthetic("t", 300, 2, 6, data::Distribution::kUniform, 8);
  ab::AbConfig cfg;
  cfg.alpha = 8;
  ab::AbIndex original = ab::AbIndex::Build(d, cfg);
  std::string path = ::testing::TempDir() + "/abitmap_corrupt_test.abit";
  ASSERT_TRUE(original.SaveToFile(path).ok());

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(util::ReadFile(path, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0xFF;  // flip a payload byte
  ASSERT_TRUE(util::WriteFileAtomic(path, bytes).ok());

  util::StatusOr<ab::AbIndex> back = ab::AbIndex::LoadFromFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), util::StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace abitmap
