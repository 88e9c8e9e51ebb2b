// Randomized robustness tests, two families:
//  * deserializers must reject or tolerate — but never crash on —
//    arbitrarily corrupted input. Each trial serializes a valid
//    structure, applies random byte mutations/truncations, and feeds the
//    result back. A mutation may survive validation (it can hit padding
//    or produce a different-but-valid structure); the contract under
//    test is memory safety plus structural invariants of whatever is
//    accepted.
//  * randomized insert/probe sweeps across the three encoding levels and
//    every SIMD dispatch level the CPU supports:
//    the AB's no-false-negative guarantee and the kernels' bit-identity
//    contract must hold for arbitrary seeded inputs, not just the
//    hand-picked cases of the unit tests.

#include <memory>
#include <random>

#include "gtest/gtest.h"

#include "bbc/bbc_vector.h"
#include "bitmap/bitmap_table.h"
#include "core/ab_index.h"
#include "data/generators.h"
#include "util/byte_io.h"
#include "util/file_io.h"
#include "util/simd.h"
#include "wah/wah_vector.h"

namespace abitmap {
namespace {

std::vector<uint8_t> Mutate(const std::vector<uint8_t>& bytes,
                            std::mt19937_64& rng) {
  std::vector<uint8_t> out = bytes;
  switch (rng() % 3) {
    case 0: {  // flip 1-4 random bits
      int flips = 1 + rng() % 4;
      for (int i = 0; i < flips && !out.empty(); ++i) {
        out[rng() % out.size()] ^= uint8_t{1} << (rng() % 8);
      }
      break;
    }
    case 1: {  // truncate
      if (!out.empty()) out.resize(rng() % out.size());
      break;
    }
    default: {  // splice random garbage into the middle
      size_t pos = out.empty() ? 0 : rng() % out.size();
      int count = 1 + rng() % 16;
      for (int i = 0; i < count; ++i) {
        out.insert(out.begin() + pos, static_cast<uint8_t>(rng()));
      }
      break;
    }
  }
  return out;
}

TEST(FuzzRobustnessTest, WahDeserializeNeverCrashes) {
  std::mt19937_64 rng(1);
  util::BitVector bits(5000);
  for (int i = 0; i < 700; ++i) bits.Set(rng() % 5000);
  wah::WahVector original = wah::WahVector::Compress(bits);
  util::ByteWriter w;
  original.Serialize(&w);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = Mutate(w.bytes(), rng);
    util::ByteReader r(mutated);
    wah::WahVector back;
    if (wah::WahVector::Deserialize(&r, &back).ok()) {
      // Whatever was accepted must be internally consistent.
      EXPECT_EQ(back.Decompress().size(), back.size());
      EXPECT_LE(back.CountOnes(), back.size());
    }
  }
}

TEST(FuzzRobustnessTest, BbcDeserializeNeverCrashes) {
  std::mt19937_64 rng(2);
  util::BitVector bits(4000);
  for (int i = 0; i < 900; ++i) bits.Set(rng() % 4000);
  bbc::BbcVector original = bbc::BbcVector::Compress(bits);
  util::ByteWriter w;
  original.Serialize(&w);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = Mutate(w.bytes(), rng);
    util::ByteReader r(mutated);
    bbc::BbcVector back;
    if (bbc::BbcVector::Deserialize(&r, &back).ok()) {
      EXPECT_EQ(back.Decompress().size(), back.size());
    }
  }
}

TEST(FuzzRobustnessTest, BitVectorDeserializeNeverCrashes) {
  std::mt19937_64 rng(3);
  util::BitVector original(777);
  for (int i = 0; i < 100; ++i) original.Set(rng() % 777);
  util::ByteWriter w;
  original.Serialize(&w);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = Mutate(w.bytes(), rng);
    util::ByteReader r(mutated);
    util::BitVector back;
    if (util::BitVector::Deserialize(&r, &back).ok()) {
      EXPECT_LE(back.Count(), back.size());
    }
  }
}

TEST(FuzzRobustnessTest, AbIndexDeserializeNeverCrashes) {
  std::mt19937_64 rng(4);
  bitmap::BinnedDataset d =
      data::MakeSynthetic("t", 300, 2, 5, data::Distribution::kUniform, 5);
  ab::AbConfig cfg;
  cfg.alpha = 8;
  ab::AbIndex original = ab::AbIndex::Build(d, cfg);
  util::ByteWriter w;
  original.Serialize(&w);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = Mutate(w.bytes(), rng);
    util::ByteReader r(mutated);
    util::StatusOr<ab::AbIndex> back = ab::AbIndex::Deserialize(&r);
    if (back.ok()) {
      // An accepted index must at least answer probes without crashing.
      (void)back.value().TestCell(0, 0, 0);
    }
  }
}

TEST(FuzzRobustnessTest, EnvelopeCatchesMostMutations) {
  // The CRC-protected envelope should reject nearly all payload bit flips.
  std::mt19937_64 rng(5);
  std::vector<uint8_t> payload(256);
  for (uint8_t& b : payload) b = static_cast<uint8_t>(rng());
  std::vector<uint8_t> wrapped =
      util::WrapEnvelope(util::PayloadType::kAbIndex, payload);
  int accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = wrapped;
    mutated[rng() % mutated.size()] ^= uint8_t{1} << (rng() % 8);
    std::vector<uint8_t> out;
    if (util::UnwrapEnvelope(mutated, util::PayloadType::kAbIndex, &out)
            .ok()) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 0);
}

// Forces each dispatch level the binary/CPU supports in turn and runs
// `body(level)` under it; always restores the entry level. Levels the
// clamp rejects (e.g. kAvx2 on a NEON machine) are skipped.
template <typename Body>
void ForEachSupportedSimdLevel(const Body& body) {
  namespace simd = util::simd;
  simd::SimdLevel entry = simd::ActiveSimdLevel();
  for (simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
        simd::SimdLevel::kAvx2, simd::SimdLevel::kNeon}) {
    simd::SetSimdLevelForTesting(level);
    if (simd::ActiveSimdLevel() != level) continue;
    SCOPED_TRACE(std::string("simd=") + simd::SimdLevelName(level));
    body(level);
  }
  simd::SetSimdLevelForTesting(entry);
}

TEST(FuzzRobustnessTest, RandomProbesNeverFalseNegativeAtAnyLevel) {
  // Seeded random relations, all three encoding levels, every supported
  // dispatch level: every truly-set cell must be reported set, and the
  // scalar/batched evaluation paths must agree bit for bit.
  std::mt19937_64 rng(6);
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "fz", /*rows=*/4000, /*attrs=*/3, /*cardinality=*/6,
      data::Distribution::kUniform, /*seed=*/9);
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(d);

  for (ab::Level level : {ab::Level::kPerDataset, ab::Level::kPerAttribute,
                          ab::Level::kPerColumn}) {
    SCOPED_TRACE(ab::LevelName(level));
    ab::AbConfig cfg;
    cfg.level = level;
    cfg.alpha = 4;  // deliberately small: plenty of false positives
    ab::AbIndex index = ab::AbIndex::Build(d, cfg);

    ForEachSupportedSimdLevel([&](util::simd::SimdLevel) {
      // Randomized cell probes against ground truth.
      for (int trial = 0; trial < 2000; ++trial) {
        uint64_t row = rng() % d.num_rows();
        uint32_t attr = rng() % d.values.size();
        uint32_t bin = rng() % 6;
        bool truth = d.values[attr][row] == bin;
        bool reported = index.TestCell(row, attr, bin);
        if (truth) EXPECT_TRUE(reported) << "false negative";
      }
      // Randomized range queries over random row subsets.
      for (int trial = 0; trial < 10; ++trial) {
        bitmap::BitmapQuery q;
        uint32_t a0 = rng() % 3, a1 = (a0 + 1 + rng() % 2) % 3;
        uint32_t lo0 = rng() % 5, lo1 = rng() % 5;
        q.ranges = {{a0, lo0, lo0 + 1}, {a1, lo1, lo1 + 1}};
        uint64_t start = rng() % (d.num_rows() - 500);
        q.rows = bitmap::RowRange(start, start + 499);
        std::vector<bool> exact = table.Evaluate(q);
        std::vector<bool> scalar = index.Evaluate(q);
        std::vector<bool> batched = index.EvaluateBatched(q);
        ASSERT_EQ(scalar.size(), exact.size());
        ASSERT_EQ(batched, scalar);  // kernel bit-identity
        for (size_t i = 0; i < exact.size(); ++i) {
          if (exact[i]) EXPECT_TRUE(scalar[i]) << "false negative at " << i;
        }
      }
    });
  }
}

}  // namespace
}  // namespace abitmap
