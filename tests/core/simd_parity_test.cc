// Randomized SIMD == scalar parity for the full probe/test/insert stack.
// For every hash family, k, and filter size in the sweep, results computed
// at each forced dispatch level must be bit-identical to the forced-scalar
// baseline: ProbesBatch/ProbesBatchRange outputs, TestBatch/TestBatchMask
// verdicts, InsertBatch filter contents, and BitVector word ops. In a
// -DAB_DISABLE_SIMD=ON build every level clamps to scalar and the sweep
// still runs (trivially passing), which is exactly the fallback contract.

#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "core/approximate_bitmap.h"
#include "gtest/gtest.h"
#include "hash/hash_family.h"
#include "util/bitvector.h"
#include "util/simd.h"

namespace abitmap {
namespace ab {
namespace {

using util::simd::ActiveSimdLevel;
using util::simd::SetSimdLevelForTesting;
using util::simd::SimdLevel;
using util::simd::SimdLevelName;

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(ActiveSimdLevel()) {
    SetSimdLevelForTesting(level);
  }
  ~ScopedSimdLevel() { SetSimdLevelForTesting(prev_); }

 private:
  SimdLevel prev_;
};

const SimdLevel kForcedLevels[] = {SimdLevel::kScalar, SimdLevel::kSse2,
                                   SimdLevel::kAvx2, SimdLevel::kNeon};

struct FamilyCase {
  const char* label;
  std::shared_ptr<const hash::HashFamily> family;
};

std::vector<FamilyCase> AllFamilies() {
  std::vector<FamilyCase> out;
  out.push_back({"independent", hash::MakeIndependentFamily()});
  // A pool with every classic member, including the ones whose vector
  // recurrences have branches (PJW/ELF/AP) and per-lane init (DEK).
  out.push_back({"independent_all",
                 hash::MakeIndependentFamily(std::vector<hash::HashKind>{
                     hash::HashKind::kRS, hash::HashKind::kJS,
                     hash::HashKind::kPJW, hash::HashKind::kELF,
                     hash::HashKind::kBKDR, hash::HashKind::kSDBM,
                     hash::HashKind::kDJB, hash::HashKind::kDEK,
                     hash::HashKind::kAP, hash::HashKind::kFNV})});
  // Modern kinds have no vector kernel — exercises the per-round scalar
  // fallback inside the vector batch path.
  out.push_back({"independent_modern",
                 hash::MakeIndependentFamily(std::vector<hash::HashKind>{
                     hash::HashKind::kMurmur3, hash::HashKind::kXX64,
                     hash::HashKind::kFNV})});
  out.push_back({"double", hash::MakeDoubleHashFamily()});
  out.push_back({"sha1", hash::MakeSha1Family()});
  out.push_back({"circular", hash::MakeCircularFamily()});
  return out;
}

std::vector<uint64_t> RandomKeys(size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> keys(count);
  for (uint64_t& k : keys) k = rng();
  return keys;
}

std::vector<hash::CellRef> MakeCells(size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<hash::CellRef> cells(count);
  for (size_t i = 0; i < count; ++i) {
    cells[i] = hash::CellRef{rng() % 100000, static_cast<uint32_t>(rng() % 32)};
  }
  return cells;
}

TEST(SimdParityTest, ProbesBatchMatchesScalarLevel) {
  const size_t kCount = 103;  // odd, exercises lane-group tails
  std::vector<uint64_t> keys = RandomKeys(kCount, 1);
  std::vector<hash::CellRef> cells = MakeCells(kCount, 2);
  for (const FamilyCase& fc : AllFamilies()) {
    for (size_t k : {1u, 2u, 6u, 13u}) {
      for (uint64_t n : {uint64_t{1} << 10, uint64_t{1} << 16,
                         uint64_t{1} << 22}) {
        if (fc.family->name() == "sha1" && k > 10) continue;
        std::vector<uint64_t> baseline(kCount * k);
        {
          ScopedSimdLevel guard(SimdLevel::kScalar);
          fc.family->ProbesBatch(keys.data(), cells.data(), kCount, k, n,
                                 baseline.data());
        }
        for (SimdLevel level : kForcedLevels) {
          ScopedSimdLevel guard(level);
          std::vector<uint64_t> probes(kCount * k, ~uint64_t{0});
          fc.family->ProbesBatch(keys.data(), cells.data(), kCount, k, n,
                                 probes.data());
          ASSERT_EQ(probes, baseline)
              << "family=" << fc.label << " k=" << k << " n=" << n
              << " level=" << SimdLevelName(ActiveSimdLevel());
        }
        // Partial windows through ProbesBatchRange, as the round-lazy
        // membership kernel issues them.
        for (auto [begin, end] :
             {std::pair<size_t, size_t>{0, std::min<size_t>(2, k)},
              {k / 2, k},
              {k - 1, k}}) {
          size_t width = end - begin;
          if (width == 0) continue;
          std::vector<uint64_t> base_range(kCount * width);
          {
            ScopedSimdLevel guard(SimdLevel::kScalar);
            fc.family->ProbesBatchRange(keys.data(), cells.data(), kCount,
                                        begin, end, n, base_range.data());
          }
          for (SimdLevel level : kForcedLevels) {
            ScopedSimdLevel guard(level);
            std::vector<uint64_t> probes(kCount * width, ~uint64_t{0});
            fc.family->ProbesBatchRange(keys.data(), cells.data(), kCount,
                                        begin, end, n, probes.data());
            ASSERT_EQ(probes, base_range)
                << "family=" << fc.label << " k=" << k << " n=" << n
                << " range=[" << begin << "," << end << ")"
                << " level=" << SimdLevelName(ActiveSimdLevel());
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, NonPowerOfTwoSizeStaysExact) {
  // The vector double-hash path requires power-of-two n and must not
  // engage otherwise; probe values still agree with scalar at every level.
  const size_t kCount = 37;
  std::vector<uint64_t> keys = RandomKeys(kCount, 11);
  std::vector<hash::CellRef> cells = MakeCells(kCount, 12);
  auto family = hash::MakeDoubleHashFamily();
  for (uint64_t n : {uint64_t{1000003}, uint64_t{12345}}) {
    std::vector<uint64_t> baseline(kCount * 6);
    {
      ScopedSimdLevel guard(SimdLevel::kScalar);
      family->ProbesBatch(keys.data(), cells.data(), kCount, 6, n,
                          baseline.data());
    }
    for (SimdLevel level : kForcedLevels) {
      ScopedSimdLevel guard(level);
      std::vector<uint64_t> probes(kCount * 6, ~uint64_t{0});
      family->ProbesBatch(keys.data(), cells.data(), kCount, 6, n,
                          probes.data());
      ASSERT_EQ(probes, baseline)
          << "n=" << n << " level=" << SimdLevelName(ActiveSimdLevel());
      for (uint64_t p : probes) ASSERT_LT(p, n);
    }
  }
}

TEST(SimdParityTest, TestBatchAndInsertBatchMatchScalarLevel) {
  std::mt19937_64 rng(2025);
  for (const FamilyCase& fc : AllFamilies()) {
    for (int k : {2, 6}) {
      for (uint64_t n : {uint64_t{1} << 12, uint64_t{1} << 18}) {
        AbParams params;
        params.n_bits = n;
        params.k = k;
        const size_t kInserts = 600;
        const size_t kQueries = 500;
        std::vector<uint64_t> ins_keys = RandomKeys(kInserts, 21);
        std::vector<hash::CellRef> ins_cells = MakeCells(kInserts, 22);
        // Half the queries are members, half random.
        std::vector<uint64_t> q_keys = ins_keys;
        std::vector<hash::CellRef> q_cells = ins_cells;
        q_keys.resize(kQueries);
        q_cells.resize(kQueries);
        for (size_t i = kInserts / 2; i < kQueries; ++i) {
          q_keys[i] = rng();
          q_cells[i] =
              hash::CellRef{rng() % 100000, static_cast<uint32_t>(rng() % 32)};
        }

        // Baseline: scalar build + scalar queries.
        std::vector<uint8_t> base_bits(kQueries);
        ApproximateBitmap scalar_filter(params, fc.family);
        {
          ScopedSimdLevel guard(SimdLevel::kScalar);
          scalar_filter.InsertBatch(ins_keys.data(), ins_cells.data(),
                                    kInserts);
          scalar_filter.TestBatch(q_keys.data(), q_cells.data(), kQueries,
                                  base_bits.data());
        }

        for (SimdLevel level : kForcedLevels) {
          ScopedSimdLevel guard(level);
          ApproximateBitmap filter(params, fc.family);
          filter.InsertBatch(ins_keys.data(), ins_cells.data(), kInserts);
          ASSERT_TRUE(filter.bits() == scalar_filter.bits())
              << "InsertBatch diverged: family=" << fc.label << " k=" << k
              << " n=" << n
              << " level=" << SimdLevelName(ActiveSimdLevel());
          std::vector<uint8_t> bits(kQueries, 0xCC);
          filter.TestBatch(q_keys.data(), q_cells.data(), kQueries,
                           bits.data());
          ASSERT_EQ(bits, base_bits)
              << "TestBatch diverged: family=" << fc.label << " k=" << k
              << " n=" << n
              << " level=" << SimdLevelName(ActiveSimdLevel());
          // TestBatchMask and the scalar Test must agree lane for lane.
          uint64_t mask = filter.TestBatchMask(q_keys.data(), q_cells.data(),
                                               32);
          for (size_t i = 0; i < 32; ++i) {
            ASSERT_EQ((mask >> i) & 1, base_bits[i])
                << "TestBatchMask lane " << i << " family=" << fc.label
                << " level=" << SimdLevelName(ActiveSimdLevel());
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, BitVectorOpsMatchScalarLevel) {
  std::mt19937_64 rng(71);
  for (size_t bits : {63u, 64u, 1000u, 4096u, 100001u}) {
    util::BitVector a(bits);
    util::BitVector b(bits);
    for (size_t i = 0; i < bits; ++i) {
      if (rng() & 1) a.Set(i);
      if (rng() & 1) b.Set(i);
    }
    util::BitVector base_and, base_or, base_xor, base_andnot, base_not;
    size_t base_count, base_range;
    {
      ScopedSimdLevel guard(SimdLevel::kScalar);
      base_and = util::And(a, b);
      base_or = util::Or(a, b);
      base_xor = util::Xor(a, b);
      base_andnot = util::AndNot(a, b);
      base_not = util::Not(a);
      base_count = a.Count();
      base_range = a.CountRange(bits / 3, bits - bits / 4);
    }
    for (SimdLevel level : kForcedLevels) {
      ScopedSimdLevel guard(level);
      EXPECT_TRUE(util::And(a, b) == base_and);
      EXPECT_TRUE(util::Or(a, b) == base_or);
      EXPECT_TRUE(util::Xor(a, b) == base_xor);
      EXPECT_TRUE(util::AndNot(a, b) == base_andnot);
      EXPECT_TRUE(util::Not(a) == base_not);
      EXPECT_EQ(a.Count(), base_count);
      EXPECT_EQ(a.CountRange(bits / 3, bits - bits / 4), base_range)
          << "bits=" << bits
          << " level=" << SimdLevelName(ActiveSimdLevel());
    }
  }
}

}  // namespace
}  // namespace ab
}  // namespace abitmap
