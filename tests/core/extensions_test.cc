// Tests for the extension filter: the counting (deletable) AB.

#include <random>
#include <set>

#include "gtest/gtest.h"

#include "core/counting_bitmap.h"

namespace abitmap {
namespace ab {
namespace {

AbParams Params(uint64_t n, int k) {
  AbParams p;
  p.n_bits = n;
  p.k = k;
  return p;
}

// ---------------------------------------------------------------- counting

TEST(CountingBitmapTest, InsertTestRemove) {
  CountingApproximateBitmap filter(Params(1 << 12, 4),
                                   hash::MakeIndependentFamily());
  for (uint64_t key = 0; key < 100; ++key) {
    filter.Insert(key, hash::CellRef{key, 0});
  }
  EXPECT_EQ(filter.live(), 100u);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_TRUE(filter.Test(key, hash::CellRef{key, 0})) << key;
  }
  // Remove half; removed keys should (almost always) test negative while
  // remaining keys must still test positive.
  for (uint64_t key = 0; key < 50; ++key) {
    filter.Remove(key, hash::CellRef{key, 0});
  }
  EXPECT_EQ(filter.live(), 50u);
  for (uint64_t key = 50; key < 100; ++key) {
    EXPECT_TRUE(filter.Test(key, hash::CellRef{key, 0})) << key;
  }
  int still_positive = 0;
  for (uint64_t key = 0; key < 50; ++key) {
    still_positive += filter.Test(key, hash::CellRef{key, 0});
  }
  // A removed key may remain positive only via false-positive aliasing,
  // which at this load is rare.
  EXPECT_LE(still_positive, 3);
}

TEST(CountingBitmapTest, ReinsertionAfterRemoval) {
  CountingApproximateBitmap filter(Params(1 << 10, 3),
                                   hash::MakeDoubleHashFamily());
  filter.Insert(42, hash::CellRef{});
  filter.Remove(42, hash::CellRef{});
  filter.Insert(42, hash::CellRef{});
  EXPECT_TRUE(filter.Test(42, hash::CellRef{}));
  EXPECT_EQ(filter.live(), 1u);
}

TEST(CountingBitmapTest, DuplicateInsertionsNeedMatchingRemovals) {
  CountingApproximateBitmap filter(Params(1 << 10, 3),
                                   hash::MakeDoubleHashFamily());
  filter.Insert(7, hash::CellRef{});
  filter.Insert(7, hash::CellRef{});
  filter.Remove(7, hash::CellRef{});
  EXPECT_TRUE(filter.Test(7, hash::CellRef{}));  // one copy still live
  filter.Remove(7, hash::CellRef{});
  EXPECT_FALSE(filter.Test(7, hash::CellRef{}));
}

TEST(CountingBitmapDeathTest, RemovingAbsentKeyAborts) {
  CountingApproximateBitmap filter(Params(1 << 10, 3),
                                   hash::MakeDoubleHashFamily());
  filter.Insert(1, hash::CellRef{});
  EXPECT_DEATH(filter.Remove(999999, hash::CellRef{}), "AB_CHECK");
}

TEST(CountingBitmapTest, SizeIsFourBitsPerCounter) {
  CountingApproximateBitmap filter(Params(1 << 12, 2),
                                   hash::MakeDoubleHashFamily());
  EXPECT_EQ(filter.SizeInBytes(), (1u << 12) / 2);
}

TEST(CountingBitmapTest, NoFalseNegativesUnderChurn) {
  // Property: through a random insert/remove workload, every live key
  // tests positive.
  std::mt19937_64 rng(33);
  CountingApproximateBitmap filter(Params(1 << 14, 5),
                                   hash::MakeIndependentFamily());
  std::set<uint64_t> live;
  for (int op = 0; op < 3000; ++op) {
    if (live.empty() || rng() % 3 != 0) {
      uint64_t key = rng() % 100000;
      if (live.insert(key).second) {
        filter.Insert(key, hash::CellRef{key, 0});
      }
    } else {
      auto it = live.begin();
      std::advance(it, rng() % live.size());
      filter.Remove(*it, hash::CellRef{*it, 0});
      live.erase(it);
    }
  }
  EXPECT_EQ(filter.live(), live.size());
  for (uint64_t key : live) {
    ASSERT_TRUE(filter.Test(key, hash::CellRef{key, 0})) << key;
  }
}

TEST(CountingBitmapTest, FillRatioTracksLoad) {
  CountingApproximateBitmap filter(Params(1 << 12, 4),
                                   hash::MakeDoubleHashFamily());
  EXPECT_EQ(filter.FillRatio(), 0.0);
  for (uint64_t key = 0; key < 200; ++key) {
    filter.Insert(key, hash::CellRef{});
  }
  double loaded = filter.FillRatio();
  EXPECT_GT(loaded, 0.1);
  for (uint64_t key = 0; key < 200; ++key) {
    filter.Remove(key, hash::CellRef{});
  }
  EXPECT_EQ(filter.FillRatio(), 0.0);  // all counters back to zero
}

}  // namespace
}  // namespace ab
}  // namespace abitmap
