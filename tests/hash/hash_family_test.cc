#include "hash/hash_family.h"

#include <memory>
#include <ostream>

#include "hash/sha1.h"
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace abitmap {
namespace hash {
namespace {

// Shared behaviour every family must satisfy, checked over a parameterized
// sweep of (family, k, n).
struct FamilyCase {
  const char* label;
  std::unique_ptr<HashFamily> (*make)();
};

// Without this, gtest prints the case as raw bytes — two pointers that
// move with ASLR — so the registered test names changed on every build.
void PrintTo(const FamilyCase& c, std::ostream* os) { *os << c.label; }

std::unique_ptr<HashFamily> MakeIndep() { return MakeIndependentFamily(); }
std::unique_ptr<HashFamily> MakeSha() { return MakeSha1Family(); }
std::unique_ptr<HashFamily> MakeDouble() { return MakeDoubleHashFamily(); }
std::unique_ptr<HashFamily> MakeCirc() { return MakeCircularFamily(); }
std::unique_ptr<HashFamily> MakeColGroup() { return MakeColumnGroupFamily(8); }

class HashFamilyContractTest : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(HashFamilyContractTest, ProbesInRange) {
  std::unique_ptr<HashFamily> family = GetParam().make();
  const uint64_t n = 1 << 12;
  uint64_t probes[16];
  for (uint64_t key = 0; key < 500; ++key) {
    CellRef cell{key / 8, static_cast<uint32_t>(key % 8)};
    for (size_t k = 1; k <= 12; ++k) {
      family->Probes(key, cell, k, n, probes);
      for (size_t t = 0; t < k; ++t) {
        EXPECT_LT(probes[t], n) << GetParam().label;
      }
    }
  }
}

TEST_P(HashFamilyContractTest, Deterministic) {
  std::unique_ptr<HashFamily> family = GetParam().make();
  const uint64_t n = 1 << 10;
  uint64_t a[8], b[8];
  CellRef cell{123, 4};
  family->Probes(777, cell, 8, n, a);
  family->Probes(777, cell, 8, n, b);
  for (int t = 0; t < 8; ++t) EXPECT_EQ(a[t], b[t]) << GetParam().label;
}

TEST_P(HashFamilyContractTest, PrefixStability) {
  // Probes for k functions must be a prefix of probes for k+1: an AB built
  // with k functions probes the same positions regardless of buffer size.
  std::unique_ptr<HashFamily> family = GetParam().make();
  const uint64_t n = 1 << 10;
  uint64_t small[4], large[8];
  CellRef cell{55, 3};
  family->Probes(991, cell, 4, n, small);
  family->Probes(991, cell, 8, n, large);
  for (int t = 0; t < 4; ++t) EXPECT_EQ(small[t], large[t]) << GetParam().label;
}

TEST_P(HashFamilyContractTest, ProbeAtMatchesBulkProbes) {
  // The lazy single-probe path used by membership tests must agree with
  // the bulk path used by insertion, or false negatives would appear.
  std::unique_ptr<HashFamily> family = GetParam().make();
  const uint64_t n = 1 << 11;
  uint64_t bulk[12];
  for (uint64_t key = 0; key < 200; ++key) {
    CellRef cell{key * 3, static_cast<uint32_t>(key % 8)};
    family->Probes(key, cell, 12, n, bulk);
    for (size_t t = 0; t < 12; ++t) {
      EXPECT_EQ(family->ProbeAt(key, cell, t, n), bulk[t])
          << GetParam().label << " key " << key << " t " << t;
    }
  }
}

TEST_P(HashFamilyContractTest, HasName) {
  EXPECT_FALSE(GetParam().make()->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, HashFamilyContractTest,
    ::testing::Values(FamilyCase{"independent", &MakeIndep},
                      FamilyCase{"sha1", &MakeSha},
                      FamilyCase{"double", &MakeDouble},
                      FamilyCase{"circular", &MakeCirc},
                      FamilyCase{"column_group", &MakeColGroup}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return info.param.label;
    });

TEST(IndependentFamilyTest, DistinctFunctionsProduceDistinctProbes) {
  std::unique_ptr<HashFamily> family = MakeIndependentFamily();
  const uint64_t n = 1 << 20;
  uint64_t probes[10];
  family->Probes(123456789, CellRef{}, 10, n, probes);
  std::set<uint64_t> unique(probes, probes + 10);
  // With n = 1M, ten independent hashes collide with negligible chance.
  EXPECT_GE(unique.size(), 9u);
}

TEST(IndependentFamilyTest, MoreThanPoolSizeFunctions) {
  std::unique_ptr<HashFamily> family = MakeIndependentFamily();
  const uint64_t n = 1 << 20;
  uint64_t probes[16];
  family->Probes(42, CellRef{}, 16, n, probes);
  // Salted reuse beyond the 10-function pool must not repeat the base
  // function's value.
  EXPECT_NE(probes[0], probes[10]);
  EXPECT_NE(probes[1], probes[11]);
}

TEST(Sha1FamilyTest, MatchesDigestSplit) {
  // For n = 2^16 and k = 10, probes must be exactly the ten 16-bit pieces
  // of SHA-1(key) — the paper's Table 1 layout.
  std::unique_ptr<HashFamily> family = MakeSha1Family();
  uint64_t key = 0xDEADBEEF;
  uint64_t probes[10];
  family->Probes(key, CellRef{}, 10, 1 << 16, probes);
  Sha1::Digest d = Sha1::Hash(&key, sizeof(key));
  for (int t = 0; t < 10; ++t) {
    EXPECT_EQ(probes[t], DigestBits(d, t * 16, 16)) << t;
  }
}

TEST(Sha1FamilyTest, ExtendsBeyondOneDigest) {
  // m = 16 gives 10 pieces per digest; k = 12 needs a second digest.
  std::unique_ptr<HashFamily> family = MakeSha1Family();
  uint64_t probes[12];
  family->Probes(7, CellRef{}, 12, 1 << 16, probes);
  for (int t = 0; t < 12; ++t) EXPECT_LT(probes[t], 1u << 16);
}

TEST(DoubleHashFamilyTest, ArithmeticProgression) {
  std::unique_ptr<HashFamily> family = MakeDoubleHashFamily();
  const uint64_t n = 1 << 10;
  uint64_t probes[6];
  family->Probes(33, CellRef{}, 6, n, probes);
  uint64_t step = (probes[1] + n - probes[0]) % n;
  for (int t = 1; t < 6; ++t) {
    EXPECT_EQ(probes[t], (probes[t - 1] + step) % n);
  }
  EXPECT_EQ(step % 2, 1u);  // odd step cycles a power-of-two table
}

TEST(CircularFamilyTest, FirstProbeIsModulo) {
  std::unique_ptr<HashFamily> family = MakeCircularFamily();
  uint64_t probes[1];
  family->Probes(100, CellRef{}, 1, 32, probes);
  EXPECT_EQ(probes[0], 100 % 32u);
  family->Probes(31, CellRef{}, 1, 32, probes);
  EXPECT_EQ(probes[0], 31u);
}

TEST(ColumnGroupFamilyTest, GroupsByColumn) {
  // H(i, j) = j*g + (i mod g) with g = n / num_groups.
  std::unique_ptr<HashFamily> family = MakeColumnGroupFamily(4);
  const uint64_t n = 64;  // 4 groups of 16
  uint64_t probes[1];
  family->Probes(0, CellRef{5, 2}, 1, n, probes);
  EXPECT_EQ(probes[0], 2 * 16 + (5 % 16));
  family->Probes(0, CellRef{21, 0}, 1, n, probes);
  EXPECT_EQ(probes[0], 21 % 16u);
  // Probes for column j always land inside group j.
  for (uint64_t row = 0; row < 100; ++row) {
    for (uint32_t col = 0; col < 4; ++col) {
      for (size_t k = 1; k <= 4; ++k) {
        uint64_t p[4];
        family->Probes(0, CellRef{row, col}, k, n, p);
        for (size_t t = 0; t < k; ++t) {
          EXPECT_GE(p[t], col * 16u);
          EXPECT_LT(p[t], (col + 1) * 16u);
        }
      }
    }
  }
}

TEST(SingleKindFamilyTest, MatchesUnderlyingHash) {
  for (HashKind kind : AllHashKinds()) {
    std::unique_ptr<HashFamily> family = MakeSingleKindFamily(kind);
    uint64_t probes[1];
    family->Probes(5150, CellRef{}, 1, 997, probes);
    EXPECT_EQ(probes[0], HashKey(kind, 5150) % 997) << HashKindName(kind);
  }
}

}  // namespace
}  // namespace hash
}  // namespace abitmap
