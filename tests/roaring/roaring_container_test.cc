// Container-level fuzz parity against BitVector ground truth: every
// representation pair (flat array/bitset x run-optimized) under
// AND/OR/XOR/ANDNOT, across cardinalities straddling the 4096
// promotion/demotion boundary, with the galloping and linear array
// intersections forced in turn (bit-identical by contract) and the word
// kernels forced to every SIMD dispatch level.

#include <algorithm>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "roaring/container.h"
#include "util/bitvector.h"
#include "util/simd.h"

namespace abitmap {
namespace roaring {
namespace {

using util::BitVector;
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

class ScopedGallop {
 public:
  explicit ScopedGallop(int force) { Container::SetGallopForTesting(force); }
  ~ScopedGallop() { Container::SetGallopForTesting(-1); }
};

const SimdLevel kForcedLevels[] = {SimdLevel::kScalar, SimdLevel::kSse2,
                                   SimdLevel::kAvx2, SimdLevel::kNeon};

/// Sorted unique values drawn uniformly until `count` distinct.
std::vector<uint16_t> UniformSet(std::mt19937_64* rng, size_t count) {
  std::vector<bool> present(Container::kCapacity, false);
  size_t have = 0;
  while (have < count) {
    uint16_t v = static_cast<uint16_t>((*rng)());
    if (!present[v]) {
      present[v] = true;
      ++have;
    }
  }
  std::vector<uint16_t> out;
  out.reserve(count);
  for (uint32_t v = 0; v < Container::kCapacity; ++v) {
    if (present[v]) out.push_back(static_cast<uint16_t>(v));
  }
  return out;
}

/// Sorted values forming `runs` random runs of length in [1, max_len].
std::vector<uint16_t> RunSet(std::mt19937_64* rng, size_t runs,
                             uint32_t max_len) {
  std::vector<bool> present(Container::kCapacity, false);
  for (size_t r = 0; r < runs; ++r) {
    uint32_t start = static_cast<uint32_t>((*rng)() % Container::kCapacity);
    uint32_t len = 1 + static_cast<uint32_t>((*rng)() % max_len);
    for (uint32_t v = start; v < std::min(start + len, Container::kCapacity);
         ++v) {
      present[v] = true;
    }
  }
  std::vector<uint16_t> out;
  for (uint32_t v = 0; v < Container::kCapacity; ++v) {
    if (present[v]) out.push_back(static_cast<uint16_t>(v));
  }
  return out;
}

BitVector ToBits(const std::vector<uint16_t>& values) {
  BitVector bits(Container::kCapacity);
  for (uint16_t v : values) bits.Set(v);
  return bits;
}

std::vector<uint16_t> FromBits(const BitVector& bits) {
  std::vector<uint16_t> out;
  for (uint32_t v = 0; v < Container::kCapacity; ++v) {
    if (bits.Get(v)) out.push_back(static_cast<uint16_t>(v));
  }
  return out;
}

Container MakeFlat(const std::vector<uint16_t>& values) {
  return Container::FromSortedValues(values.data(), values.size());
}

Container MakeRunOptimized(const std::vector<uint16_t>& values) {
  Container c = MakeFlat(values);
  c.Optimize();
  return c;
}

/// The interesting value-set shapes: empty, singletons, uniform sparse,
/// uniform dense, the exact promotion boundaries, run-heavy, full.
std::vector<std::vector<uint16_t>> FuzzSets(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<uint16_t>> sets;
  sets.push_back({});
  sets.push_back({0});
  sets.push_back({65535});
  sets.push_back(UniformSet(&rng, 37));
  sets.push_back(UniformSet(&rng, 1000));
  sets.push_back(UniformSet(&rng, 4095));  // promotion boundary - 1
  sets.push_back(UniformSet(&rng, 4096));  // at the boundary (still array)
  sets.push_back(UniformSet(&rng, 4097));  // past it (bitset)
  sets.push_back(UniformSet(&rng, 20000));
  sets.push_back(RunSet(&rng, 5, 4000));   // few long runs
  sets.push_back(RunSet(&rng, 300, 40));   // many short runs
  std::vector<uint16_t> full(Container::kCapacity);
  for (uint32_t v = 0; v < Container::kCapacity; ++v) {
    full[v] = static_cast<uint16_t>(v);
  }
  sets.push_back(std::move(full));
  return sets;
}

void ExpectSameSet(const Container& c, const BitVector& expect,
                   const char* what) {
  std::vector<uint16_t> want = FromBits(expect);
  EXPECT_EQ(c.ToArray(), want) << what;
  EXPECT_EQ(c.cardinality(), want.size()) << what;
  // A result container must be in canonical flat form.
  if (c.cardinality() > Container::kArrayMax) {
    EXPECT_EQ(c.kind(), ContainerKind::kBitset) << what;
  } else {
    EXPECT_NE(c.kind(), ContainerKind::kRun) << what;
  }
}

TEST(RoaringContainerTest, ConstructionRoundTripsAllShapes) {
  for (const auto& values : FuzzSets(7)) {
    Container flat = MakeFlat(values);
    EXPECT_EQ(flat.ToArray(), values);
    EXPECT_EQ(flat.cardinality(), values.size());
    EXPECT_EQ(flat.kind(), values.size() > Container::kArrayMax
                               ? ContainerKind::kBitset
                               : ContainerKind::kArray);

    BitVector bits = ToBits(values);
    Container from_words =
        Container::FromWords(bits.words().data(), bits.words().size());
    EXPECT_EQ(from_words, flat);

    Container optimized = MakeRunOptimized(values);
    EXPECT_EQ(optimized.ToArray(), values);
    EXPECT_EQ(optimized.cardinality(), flat.cardinality());
    EXPECT_EQ(optimized, flat);  // set equality across representations
  }
}

TEST(RoaringContainerTest, OptimizePicksSmallestRepresentation) {
  // 3 runs of 1000 -> 12 run bytes vs 6000 array bytes: must become runs.
  std::vector<uint16_t> runs;
  for (uint32_t base : {100u, 10000u, 30000u}) {
    for (uint32_t v = base; v < base + 1000; ++v) {
      runs.push_back(static_cast<uint16_t>(v));
    }
  }
  Container c = MakeRunOptimized(runs);
  EXPECT_EQ(c.kind(), ContainerKind::kRun);
  EXPECT_EQ(c.CountRuns(), 3u);
  EXPECT_EQ(c.SizeInBytes(), 3u * 4u);

  // Uniform sparse values: runs would be 2x the array size; stays array.
  std::mt19937_64 rng(11);
  Container sparse = MakeRunOptimized(UniformSet(&rng, 500));
  EXPECT_EQ(sparse.kind(), ContainerKind::kArray);

  // Dense but fragmented: bitset stays bitset unless runs win.
  Container dense = MakeRunOptimized(UniformSet(&rng, 30000));
  EXPECT_EQ(dense.kind(), ContainerKind::kBitset);

  // A full container is one run: 4 bytes beats 8 KiB.
  Container full = Container::FullRange(Container::kCapacity);
  EXPECT_EQ(full.kind(), ContainerKind::kRun);
  EXPECT_EQ(full.cardinality(), Container::kCapacity);
}

TEST(RoaringContainerTest, AppendOrderedPromotesAtBoundary) {
  Container c;
  for (uint32_t v = 0; v < 5000; ++v) {
    c.AppendOrdered(static_cast<uint16_t>(v * 2));  // no runs form
    EXPECT_EQ(c.cardinality(), v + 1);
    EXPECT_EQ(c.kind(), v + 1 > Container::kArrayMax ? ContainerKind::kBitset
                                                     : ContainerKind::kArray);
  }
  for (uint32_t v = 0; v < 5000; ++v) {
    EXPECT_TRUE(c.Get(static_cast<uint16_t>(v * 2)));
    EXPECT_FALSE(c.Get(static_cast<uint16_t>(v * 2 + 1)));
  }
}

TEST(RoaringContainerTest, GetAndNextSetAgreeWithGroundTruth) {
  for (const auto& values : FuzzSets(13)) {
    BitVector bits = ToBits(values);
    for (Container c : {MakeFlat(values), MakeRunOptimized(values)}) {
      std::mt19937_64 rng(17);
      for (int i = 0; i < 300; ++i) {
        uint16_t v = static_cast<uint16_t>(rng());
        EXPECT_EQ(c.Get(v), bits.Get(v));
      }
      // NextSet walk enumerates exactly the set.
      std::vector<uint16_t> walked;
      uint32_t pos = c.NextSet(0);
      while (pos != Container::kNoValue) {
        walked.push_back(static_cast<uint16_t>(pos));
        if (pos + 1 >= Container::kCapacity) break;
        pos = c.NextSet(pos + 1);
      }
      EXPECT_EQ(walked, values);
    }
  }
}

TEST(RoaringContainerTest, OrRangeIntoMatchesFullWordsOverEveryWindow) {
  std::vector<std::vector<uint16_t>> sets = FuzzSets(19);
  // Runs ending exactly on a window's first value (0, 64, 128, 192, 4096):
  // the run search must keep a run whose last value is the window start.
  std::vector<uint16_t> edges = {0};
  for (auto [lo, hi] : {std::pair{60, 64}, {120, 128}, {190, 192}, {4000, 4096}}) {
    for (int v = lo; v <= hi; ++v) edges.push_back(static_cast<uint16_t>(v));
  }
  sets.push_back(edges);
  for (const auto& values : sets) {
    BitVector bits = ToBits(values);
    for (Container c : {MakeFlat(values), MakeRunOptimized(values)}) {
      std::mt19937_64 rng(29);
      std::vector<std::pair<uint32_t, uint32_t>> windows = {
          {0, Container::kBitsetWords}, {0, 1}, {1, 1}, {2, 3}, {3, 1},
          {64, 2}, {Container::kBitsetWords - 1, 1}};
      for (int i = 0; i < 40; ++i) {
        uint32_t first = static_cast<uint32_t>(rng() % Container::kBitsetWords);
        uint32_t num = 1 + static_cast<uint32_t>(
                               rng() % (Container::kBitsetWords - first));
        windows.push_back({first, num});
      }
      // A zero background checks every bit; a patterned one checks that
      // the primitive ORs rather than stores.
      for (uint64_t background : {uint64_t{0}, uint64_t{0x5555555555555555}}) {
        for (auto [first, num] : windows) {
          std::vector<uint64_t> words(num, background);
          c.OrRangeInto(words.data(), first, num);
          for (uint32_t w = 0; w < num; ++w) {
            ASSERT_EQ(words[w], bits.words()[first + w] | background)
                << ContainerKindName(c.kind()) << " window " << first << "+"
                << num << " word " << w;
          }
        }
      }
    }
  }
}

TEST(RoaringContainerTest, CountRunsMatchesDefinitionEverywhere) {
  for (const auto& values : FuzzSets(19)) {
    uint32_t expect = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      if (i == 0 || values[i] != values[i - 1] + 1) ++expect;
    }
    EXPECT_EQ(MakeFlat(values).CountRuns(), expect);
    EXPECT_EQ(MakeRunOptimized(values).CountRuns(), expect);
  }
}

/// The operation fuzz matrix: shapes x shapes x representations x ops,
/// checked against BitVector word ops, at one forced SIMD level.
void RunOpMatrix(uint64_t seed) {
  std::vector<std::vector<uint16_t>> sets = FuzzSets(seed);
  for (size_t si = 0; si < sets.size(); ++si) {
    for (size_t sj = 0; sj < sets.size(); ++sj) {
      const auto& va = sets[si];
      const auto& vb = sets[sj];
      BitVector ba = ToBits(va), bb = ToBits(vb);
      BitVector expect_and = ba, expect_or = ba, expect_xor = ba,
                expect_andnot = ba;
      expect_and.AndWith(bb);
      expect_or.OrWith(bb);
      expect_xor.XorWith(bb);
      expect_andnot.AndNotWith(bb);
      const Container reps_a[] = {MakeFlat(va), MakeRunOptimized(va)};
      const Container reps_b[] = {MakeFlat(vb), MakeRunOptimized(vb)};
      for (const Container& a : reps_a) {
        for (const Container& b : reps_b) {
          ExpectSameSet(And(a, b), expect_and, "And");
          ExpectSameSet(Or(a, b), expect_or, "Or");
          ExpectSameSet(Xor(a, b), expect_xor, "Xor");
          ExpectSameSet(AndNot(a, b), expect_andnot, "AndNot");
          EXPECT_EQ(AndCardinality(a, b), And(a, b).cardinality());
        }
      }
    }
  }
}

TEST(RoaringContainerTest, OpFuzzParityDefaultDispatch) { RunOpMatrix(23); }

TEST(RoaringContainerTest, OpFuzzParityForcedSimdLevels) {
  for (SimdLevel level : kForcedLevels) {
    ScopedSimdLevel guard(level);
    RunOpMatrix(29);
  }
}

TEST(RoaringContainerTest, GallopAndLinearIntersectionsAreBitIdentical) {
  std::mt19937_64 rng(31);
  // Asymmetric array pairs are where galloping engages; include same-size
  // pairs and boundary sizes too.
  const size_t sizes[] = {1, 7, 64, 4096};
  for (size_t na : sizes) {
    for (size_t nb : sizes) {
      std::vector<uint16_t> va = UniformSet(&rng, na);
      std::vector<uint16_t> vb = UniformSet(&rng, nb);
      Container a = MakeFlat(va), b = MakeFlat(vb);
      ASSERT_EQ(a.kind(), ContainerKind::kArray);
      ASSERT_EQ(b.kind(), ContainerKind::kArray);
      Container gallop_result, linear_result;
      uint32_t gallop_count, linear_count;
      {
        ScopedGallop force(1);
        gallop_result = And(a, b);
        gallop_count = AndCardinality(a, b);
      }
      {
        ScopedGallop force(0);
        linear_result = And(a, b);
        linear_count = AndCardinality(a, b);
      }
      EXPECT_EQ(gallop_result, linear_result) << na << "x" << nb;
      EXPECT_EQ(gallop_count, linear_count) << na << "x" << nb;
      EXPECT_EQ(And(a, b), linear_result) << na << "x" << nb;  // heuristic
    }
  }
}

TEST(RoaringContainerTest, PromotionAndDemotionAcrossOps) {
  // Or of two 3000-value arrays with little overlap crosses 4096: bitset.
  std::mt19937_64 rng(37);
  std::vector<uint16_t> lo = UniformSet(&rng, 3000);
  std::vector<uint16_t> hi;
  for (uint16_t v : UniformSet(&rng, 3000)) {
    hi.push_back(static_cast<uint16_t>(v | 0x8000));
  }
  std::sort(hi.begin(), hi.end());
  hi.erase(std::unique(hi.begin(), hi.end()), hi.end());
  Container a = MakeFlat(lo), b = MakeFlat(hi);
  Container u = Or(a, b);
  EXPECT_GT(u.cardinality(), Container::kArrayMax);
  EXPECT_EQ(u.kind(), ContainerKind::kBitset);

  // And of two dense bitsets with small overlap demotes to array.
  std::vector<uint16_t> dense_lo, dense_hi;
  for (uint32_t v = 0; v < 33000; ++v) {
    dense_lo.push_back(static_cast<uint16_t>(v));
  }
  for (uint32_t v = 32800; v < 65536; ++v) {
    dense_hi.push_back(static_cast<uint16_t>(v));
  }
  Container da = MakeFlat(dense_lo), db = MakeFlat(dense_hi);
  ASSERT_EQ(da.kind(), ContainerKind::kBitset);
  ASSERT_EQ(db.kind(), ContainerKind::kBitset);
  Container inter = And(da, db);
  EXPECT_EQ(inter.cardinality(), 200u);
  EXPECT_EQ(inter.kind(), ContainerKind::kArray);
}

TEST(RoaringContainerTest, SizeAccountingByKind) {
  std::mt19937_64 rng(41);
  Container array = MakeFlat(UniformSet(&rng, 100));
  EXPECT_EQ(array.SizeInBytes(), 200u);
  Container bitset = MakeFlat(UniformSet(&rng, 10000));
  EXPECT_EQ(bitset.SizeInBytes(), size_t{Container::kBitsetWords} * 8);
  Container run = Container::FullRange(1000);
  EXPECT_EQ(run.SizeInBytes(), 4u);
}

}  // namespace
}  // namespace roaring
}  // namespace abitmap
