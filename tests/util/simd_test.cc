// Unit tests for the util::simd kernel layer: every kernel, at every
// dispatch level this binary can reach, against a naive scalar reference.
// The level sweep is the heart of the contract — a kernel is correct when
// its output is byte-identical at kScalar, kSse2, kAvx2, and kNeon (levels
// the host lacks clamp down, so the sweep degrades gracefully on any
// machine and in -DAB_DISABLE_SIMD=ON builds).

#include "util/simd.h"

#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "hash/general_hashes.h"

namespace abitmap {
namespace util {
namespace simd {
namespace {

/// Forces a dispatch level for one scope and restores the previous one.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(ActiveSimdLevel()) {
    SetSimdLevelForTesting(level);
  }
  ~ScopedSimdLevel() { SetSimdLevelForTesting(prev_); }

 private:
  SimdLevel prev_;
};

const SimdLevel kAllLevels[] = {SimdLevel::kScalar, SimdLevel::kSse2,
                                SimdLevel::kAvx2, SimdLevel::kNeon};

std::vector<uint64_t> RandomWords(size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> out(count);
  for (uint64_t& w : out) w = rng();
  return out;
}

TEST(SimdDispatchTest, DetectedLevelIsStable) {
  SimdLevel a = DetectedSimdLevel();
  SimdLevel b = DetectedSimdLevel();
  EXPECT_EQ(a, b);
#if defined(AB_DISABLE_SIMD)
  EXPECT_EQ(a, SimdLevel::kScalar);
#endif
}

TEST(SimdDispatchTest, ForcingNeverExceedsDetected) {
  ScopedSimdLevel guard(ActiveSimdLevel());
  for (SimdLevel level : kAllLevels) {
    SetSimdLevelForTesting(level);
    SimdLevel active = ActiveSimdLevel();
    // Either the requested level or a clamped fallback; scalar is always
    // honoured exactly.
    if (level == SimdLevel::kScalar) {
      EXPECT_EQ(active, SimdLevel::kScalar);
    }
    EXPECT_TRUE(active == level || active == SimdLevel::kScalar ||
                active == DetectedSimdLevel());
  }
}

TEST(SimdDispatchTest, ParseAndName) {
  SimdLevel level;
  EXPECT_TRUE(ParseSimdLevel("scalar", &level));
  EXPECT_EQ(level, SimdLevel::kScalar);
  EXPECT_TRUE(ParseSimdLevel("sse2", &level));
  EXPECT_EQ(level, SimdLevel::kSse2);
  EXPECT_TRUE(ParseSimdLevel("avx2", &level));
  EXPECT_EQ(level, SimdLevel::kAvx2);
  EXPECT_TRUE(ParseSimdLevel("neon", &level));
  EXPECT_EQ(level, SimdLevel::kNeon);
  EXPECT_TRUE(ParseSimdLevel("auto", &level));
  EXPECT_EQ(level, DetectedSimdLevel());
  EXPECT_FALSE(ParseSimdLevel("avx512", &level));
  EXPECT_FALSE(ParseSimdLevel(nullptr, &level));
  for (SimdLevel l : kAllLevels) {
    SimdLevel round_trip;
    ASSERT_TRUE(ParseSimdLevel(SimdLevelName(l), &round_trip));
    EXPECT_EQ(round_trip, l);
  }
}

TEST(SimdWordTest, PopCount64MatchesPerBitCount) {
  // Dense random words, sparse ones, every single bit, 0 and ~0: the
  // SWAR fallback and the builtin must both count exactly.
  std::vector<uint64_t> words = RandomWords(512, 29);
  std::vector<uint64_t> sparse = RandomWords(512, 30);
  for (size_t i = 0; i < sparse.size(); ++i) {
    words.push_back(sparse[i] & words[i] & (words[i] >> 7));
  }
  for (int b = 0; b < 64; ++b) words.push_back(uint64_t{1} << b);
  words.push_back(0);
  words.push_back(~uint64_t{0});
  for (uint64_t w : words) {
    int expected = 0;
    for (int b = 0; b < 64; ++b) expected += static_cast<int>((w >> b) & 1);
    EXPECT_EQ(PopCount64(w), expected) << std::hex << w;
  }
}

TEST(SimdWordTest, PopcountWordsMatchesNaive) {
  for (size_t count : {0u, 1u, 3u, 4u, 7u, 64u, 129u}) {
    std::vector<uint64_t> words = RandomWords(count, 42 + count);
    size_t expected = 0;
    for (uint64_t w : words) expected += static_cast<size_t>(PopCount64(w));
    for (SimdLevel level : kAllLevels) {
      ScopedSimdLevel guard(level);
      EXPECT_EQ(PopcountWords(words.data(), count), expected)
          << "level=" << SimdLevelName(ActiveSimdLevel())
          << " count=" << count;
    }
  }
}

TEST(SimdWordTest, BinaryOpsMatchNaive) {
  for (size_t count : {0u, 1u, 5u, 64u, 127u}) {
    std::vector<uint64_t> a = RandomWords(count, 7 + count);
    std::vector<uint64_t> b = RandomWords(count, 1007 + count);
    for (SimdLevel level : kAllLevels) {
      ScopedSimdLevel guard(level);
      for (int op = 0; op < 5; ++op) {
        std::vector<uint64_t> dst = a;
        std::vector<uint64_t> expected = a;
        switch (op) {
          case 0:
            AndWords(dst.data(), b.data(), count);
            for (size_t i = 0; i < count; ++i) expected[i] &= b[i];
            break;
          case 1:
            OrWords(dst.data(), b.data(), count);
            for (size_t i = 0; i < count; ++i) expected[i] |= b[i];
            break;
          case 2:
            XorWords(dst.data(), b.data(), count);
            for (size_t i = 0; i < count; ++i) expected[i] ^= b[i];
            break;
          case 3:
            AndNotWords(dst.data(), b.data(), count);
            for (size_t i = 0; i < count; ++i) expected[i] &= ~b[i];
            break;
          case 4:
            NotWords(dst.data(), count);
            for (size_t i = 0; i < count; ++i) expected[i] = ~expected[i];
            break;
        }
        EXPECT_EQ(dst, expected)
            << "level=" << SimdLevelName(ActiveSimdLevel()) << " op=" << op
            << " count=" << count;
      }
    }
  }
}

TEST(SimdGatherTest, GatherBitsMatchesNaive) {
  std::mt19937_64 rng(99);
  std::vector<uint64_t> words = RandomWords(1024, 5);
  uint64_t num_bits = words.size() * 64;
  for (size_t count : {0u, 1u, 3u, 4u, 9u, 255u}) {
    std::vector<uint64_t> positions(count);
    for (uint64_t& p : positions) p = rng() % num_bits;
    std::vector<uint8_t> expected(count);
    for (size_t i = 0; i < count; ++i) {
      expected[i] = static_cast<uint8_t>(
          (words[positions[i] >> 6] >> (positions[i] & 63)) & 1);
    }
    for (SimdLevel level : kAllLevels) {
      ScopedSimdLevel guard(level);
      std::vector<uint8_t> out(count, 0xCC);
      GatherBits(words.data(), positions.data(), count, out.data());
      EXPECT_EQ(out, expected)
          << "level=" << SimdLevelName(ActiveSimdLevel())
          << " count=" << count;
    }
  }
}

TEST(SimdHashTest, Mix64MatchesHashLibrary) {
  std::mt19937_64 rng(2024);
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = rng();
    EXPECT_EQ(Mix64(x), hash::Mix64(x));
  }
}

TEST(SimdHashTest, Mix64BatchMatchesScalarMix) {
  std::mt19937_64 rng(77);
  for (size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 31u, 64u}) {
    std::vector<uint64_t> keys = RandomWords(count, 300 + count);
    uint64_t salt = rng();
    for (uint64_t or_mask : {uint64_t{0}, uint64_t{1}}) {
      std::vector<uint64_t> expected(count);
      for (size_t i = 0; i < count; ++i) {
        expected[i] = Mix64(keys[i] ^ salt) | or_mask;
      }
      for (SimdLevel level : kAllLevels) {
        ScopedSimdLevel guard(level);
        std::vector<uint64_t> out(count, ~uint64_t{0});
        Mix64Batch(keys.data(), count, salt, or_mask, out.data());
        EXPECT_EQ(out, expected)
            << "level=" << SimdLevelName(ActiveSimdLevel())
            << " count=" << count << " or_mask=" << or_mask;
      }
    }
  }
}

TEST(SimdHashTest, DoubleHashRoundsMatchesFormula) {
  std::mt19937_64 rng(55);
  for (size_t count : {1u, 2u, 3u, 4u, 7u, 33u}) {
    std::vector<uint64_t> h1 = RandomWords(count, 400 + count);
    std::vector<uint64_t> h2 = RandomWords(count, 500 + count);
    for (uint64_t& h : h2) h |= 1;
    for (auto [begin, end] : {std::pair<size_t, size_t>{0, 1},
                              {0, 6},
                              {2, 4},
                              {5, 13}}) {
      size_t width = end - begin;
      uint64_t pos_mask = (uint64_t{1} << (10 + rng() % 20)) - 1;
      std::vector<uint64_t> expected(count * width);
      for (size_t i = 0; i < count; ++i) {
        for (size_t t = begin; t < end; ++t) {
          expected[i * width + (t - begin)] = (h1[i] + t * h2[i]) & pos_mask;
        }
      }
      for (SimdLevel level : kAllLevels) {
        ScopedSimdLevel guard(level);
        std::vector<uint64_t> out(count * width, ~uint64_t{0});
        DoubleHashRounds(h1.data(), h2.data(), count, begin, end, pos_mask,
                         out.data());
        EXPECT_EQ(out, expected)
            << "level=" << SimdLevelName(ActiveSimdLevel())
            << " count=" << count << " begin=" << begin << " end=" << end;
      }
    }
  }
}

}  // namespace
}  // namespace simd
}  // namespace util
}  // namespace abitmap
