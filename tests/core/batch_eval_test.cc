// Equivalence contract of the batched/parallel evaluation pipeline: every
// batched kernel (hash-family ProbesBatch/ProbesRange, filter TestBatch,
// index EvaluateBatched/EvaluateParallel, parallel build) must be
// bit-identical to its scalar counterpart — batching is a cost-model
// change, never a semantic one.

#include <atomic>
#include <cstdint>
#include <random>
#include <vector>

#include "gtest/gtest.h"

#include "core/ab_index.h"
#include "core/approximate_bitmap.h"
#include "data/generators.h"
#include "data/query_gen.h"
#include "hash/hash_family.h"
#include "util/thread_pool.h"

namespace abitmap {
namespace ab {
namespace {

std::vector<std::shared_ptr<const hash::HashFamily>> AllFamilies() {
  return {
      hash::MakeIndependentFamily(), hash::MakeSha1Family(),
      hash::MakeDoubleHashFamily(),  hash::MakeCircularFamily(),
      hash::MakeColumnGroupFamily(8),
  };
}

TEST(ProbesBatchTest, MatchesScalarProbesForEveryFamily) {
  constexpr uint64_t kN = 1 << 16;  // power of two for SHA-1
  constexpr size_t kK = 12;         // > one SHA-1 digest at m=16
  constexpr size_t kCount = 37;     // not a multiple of any window
  std::mt19937_64 rng(99);
  std::vector<uint64_t> keys(kCount);
  std::vector<hash::CellRef> cells(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    keys[i] = rng();
    cells[i] = hash::CellRef{rng() % 10000, static_cast<uint32_t>(i % 8)};
  }
  for (const auto& family : AllFamilies()) {
    std::vector<uint64_t> batch(kCount * kK);
    family->ProbesBatch(keys.data(), cells.data(), kCount, kK, kN,
                        batch.data());
    for (size_t i = 0; i < kCount; ++i) {
      uint64_t scalar[kK];
      family->Probes(keys[i], cells[i], kK, kN, scalar);
      for (size_t t = 0; t < kK; ++t) {
        ASSERT_EQ(batch[i * kK + t], scalar[t])
            << family->name() << " key " << i << " probe " << t;
      }
    }
  }
}

TEST(ProbesRangeTest, MatchesProbesSliceForEveryFamily) {
  constexpr uint64_t kN = 1 << 16;
  constexpr size_t kK = 24;  // spans three SHA-1 digest blocks at m=16
  std::mt19937_64 rng(7);
  for (const auto& family : AllFamilies()) {
    for (int trial = 0; trial < 20; ++trial) {
      uint64_t key = rng();
      hash::CellRef cell{rng() % 1000, static_cast<uint32_t>(trial % 8)};
      uint64_t full[kK];
      family->Probes(key, cell, kK, kN, full);
      size_t begin = rng() % kK;
      size_t end = begin + rng() % (kK - begin + 1);
      std::vector<uint64_t> slice(end - begin);
      family->ProbesRange(key, cell, begin, end, kN, slice.data());
      for (size_t t = begin; t < end; ++t) {
        ASSERT_EQ(slice[t - begin], full[t])
            << family->name() << " slice [" << begin << ", " << end << ")";
      }
    }
  }
}

TEST(TestBatchTest, MatchesScalarTestForEveryFamilyAndK) {
  std::mt19937_64 rng(1234);
  for (const auto& family : AllFamilies()) {
    for (int k : {1, 4, 12}) {
      AbParams params;
      params.n_bits = 1 << 15;
      params.k = k;
      ApproximateBitmap filter(params, family);
      std::vector<uint64_t> keys;
      std::vector<hash::CellRef> cells;
      for (uint64_t i = 0; i < 500; ++i) {
        hash::CellRef cell{i, static_cast<uint32_t>(i % 4)};
        uint64_t key = (i << 3) | (i % 4);
        filter.Insert(key, cell);
        keys.push_back(key);
        cells.push_back(cell);
      }
      // Mix in absent cells (likely negative) at uneven positions.
      for (uint64_t i = 0; i < 300; ++i) {
        uint64_t row = 100000 + rng() % 100000;
        hash::CellRef cell{row, static_cast<uint32_t>(rng() % 4)};
        keys.push_back((row << 3) | cell.col);
        cells.push_back(cell);
      }
      std::vector<uint8_t> batch(keys.size());
      filter.TestBatch(keys.data(), cells.data(), keys.size(), batch.data());
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(batch[i] != 0, filter.Test(keys[i], cells[i]))
            << family->name() << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(TestBatchTest, MaskVariantAndOddWindowSizes) {
  AbParams params;
  params.n_bits = 1 << 12;
  params.k = 6;
  ApproximateBitmap filter(params, hash::MakeIndependentFamily());
  std::vector<uint64_t> keys;
  std::vector<hash::CellRef> cells;
  for (uint64_t i = 0; i < 64; ++i) {
    if (i % 3 == 0) filter.Insert(i, hash::CellRef{i, 0});
    keys.push_back(i);
    cells.push_back(hash::CellRef{i, 0});
  }
  for (size_t count : {size_t{1}, size_t{5}, size_t{31}, size_t{32}}) {
    uint64_t mask = filter.TestBatchMask(keys.data(), cells.data(), count);
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ((mask >> i) & 1, filter.Test(keys[i], cells[i]) ? 1u : 0u)
          << "count " << count << " lane " << i;
    }
    // No bits beyond the window.
    if (count < 64) ASSERT_EQ(mask >> count, 0u);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(0, touched.size(),
                   [&](uint64_t begin, uint64_t end, int /*chunk*/) {
                     for (uint64_t i = begin; i < end; ++i) {
                       touched[i].fetch_add(1);
                     }
                   });
  for (size_t i = 0; i < touched.size(); ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
  // Empty and tiny ranges are handled.
  pool.ParallelFor(5, 5, [](uint64_t, uint64_t, int) { FAIL(); });
  std::atomic<int> tiny{0};
  pool.ParallelFor(0, 1, [&](uint64_t b, uint64_t e, int) {
    tiny.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(tiny.load(), 1);
}

TEST(ThreadPoolTest, SubmitAndWaitDrainsAllTasks) {
  util::ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&done]() { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 50);
}

std::vector<HashScheme> SchemesFor(Level level) {
  // Column Group only addresses multi-column filters (per-dataset /
  // per-attribute); the per-column level excludes it by construction.
  std::vector<HashScheme> schemes = {HashScheme::kIndependent,
                                     HashScheme::kSha1,
                                     HashScheme::kDoubleHash};
  if (level != Level::kPerColumn) schemes.push_back(HashScheme::kColumnGroup);
  return schemes;
}

TEST(BatchEvalTest, ParallelBuildBitIdenticalAcrossLevelsAndSchemes) {
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "pb", 2500, 3, 8, data::Distribution::kUniform, 77);
  for (Level level :
       {Level::kPerDataset, Level::kPerAttribute, Level::kPerColumn}) {
    for (HashScheme scheme : SchemesFor(level)) {
      AbConfig cfg;
      cfg.level = level;
      cfg.alpha = 8;
      cfg.scheme = scheme;
      AbIndex serial = AbIndex::Build(d, cfg);
      AbIndex parallel = AbIndex::BuildParallel(d, cfg, 4);
      ASSERT_EQ(serial.num_filters(), parallel.num_filters());
      for (size_t f = 0; f < serial.num_filters(); ++f) {
        ASSERT_EQ(serial.filter(f).bits(), parallel.filter(f).bits())
            << LevelName(level) << "/" << HashSchemeName(scheme)
            << " filter " << f;
      }
    }
  }
}

TEST(BatchEvalTest, BatchedAndParallelEvaluateMatchScalarOnRandomQueries) {
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "be", 4000, 4, 10, data::Distribution::kZipf, 31);
  for (Level level :
       {Level::kPerDataset, Level::kPerAttribute, Level::kPerColumn}) {
    for (HashScheme scheme : SchemesFor(level)) {
      AbConfig cfg;
      cfg.level = level;
      cfg.alpha = 6;
      cfg.scheme = scheme;
      AbIndex index = AbIndex::Build(d, cfg);
      data::QueryGenParams params;
      params.num_queries = 8;
      params.qdim = 2;
      params.bins_per_attr = 3;
      params.rows_queried = 1500;
      params.seed = 11;
      std::vector<bitmap::BitmapQuery> queries =
          data::GenerateQueries(d, params);
      // Also cover the whole-relation form (empty row list).
      bitmap::BitmapQuery whole = queries[0];
      whole.rows.clear();
      queries.push_back(whole);
      util::ThreadPool pool(4);
      for (size_t q = 0; q < queries.size(); ++q) {
        std::vector<bool> scalar = index.Evaluate(queries[q]);
        EXPECT_EQ(index.EvaluateBatched(queries[q]), scalar)
            << LevelName(level) << "/" << HashSchemeName(scheme)
            << " query " << q << " (batched)";
        EXPECT_EQ(index.EvaluateParallel(queries[q], 3), scalar)
            << LevelName(level) << "/" << HashSchemeName(scheme)
            << " query " << q << " (parallel, owned pool)";
        EXPECT_EQ(index.EvaluateParallel(queries[q], &pool), scalar)
            << LevelName(level) << "/" << HashSchemeName(scheme)
            << " query " << q << " (parallel, shared pool)";
      }
    }
  }
}

TEST(BatchEvalTest, PreserveQueryOrderIsHonoredByBatchedPath) {
  bitmap::BinnedDataset d = data::MakeSynthetic(
      "ord", 1000, 3, 6, data::Distribution::kZipf, 13);
  AbConfig cfg;
  cfg.alpha = 4;  // low alpha: plenty of false positives to order around
  cfg.preserve_query_order = true;
  AbIndex index = AbIndex::Build(d, cfg);
  bitmap::BitmapQuery query;
  query.ranges.push_back(bitmap::AttributeRange{0, 0, 1});
  query.ranges.push_back(bitmap::AttributeRange{2, 3, 5});
  EXPECT_EQ(index.EvaluateBatched(query), index.Evaluate(query));
  EXPECT_EQ(index.EvaluateParallel(query, 2), index.Evaluate(query));
}

}  // namespace
}  // namespace ab
}  // namespace abitmap
