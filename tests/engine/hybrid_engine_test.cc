#include "engine/hybrid_engine.h"

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "gtest/gtest.h"
#include "obs/stats.h"

namespace abitmap {
namespace engine {
namespace {

Table MakeRandomTable(uint64_t rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> price, quantity, rating;
  for (uint64_t i = 0; i < rows; ++i) {
    price.push_back(std::uniform_real_distribution<double>(0, 100)(rng));
    quantity.push_back(static_cast<double>(rng() % 50));
    rating.push_back(std::normal_distribution<double>(3.0, 1.0)(rng));
  }
  util::StatusOr<Table> t = Table::FromColumns(
      "orders", {"price", "quantity", "rating"}, {price, quantity, rating});
  AB_CHECK(t.ok());
  return std::move(t).value();
}

HybridEngine MakeEngine(uint64_t rows, uint64_t seed) {
  HybridEngine::Options options;
  options.binning.bins = 16;
  options.ab.alpha = 16;
  options.ab.level = ab::Level::kPerAttribute;
  return HybridEngine::Build(MakeRandomTable(rows, seed), options);
}

std::vector<uint64_t> BruteForce(const Table& t, const EngineQuery& q) {
  std::vector<uint64_t> rows = q.rows;
  if (rows.empty()) {
    for (uint64_t r = 0; r < t.num_rows(); ++r) rows.push_back(r);
  }
  std::vector<uint64_t> out;
  for (uint64_t r : rows) {
    bool match = true;
    for (const ValuePredicate& p : q.predicates) {
      double v = t.value(r, p.attr);
      if (v < p.lo || v > p.hi) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(r);
  }
  return out;
}

TEST(HybridEngineTest, ExactResultsMatchBruteForceBothPaths) {
  HybridEngine engine = MakeEngine(3000, 1);
  std::mt19937_64 rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    EngineQuery q;
    q.predicates.push_back(ValuePredicate{0, 20.0, 60.0});
    q.predicates.push_back(ValuePredicate{1, 5.0, 30.0});
    if (trial % 2 == 0) {
      uint64_t lo = rng() % 2000;
      q.rows = bitmap::RowRange(lo, lo + 500);
    }
    std::vector<uint64_t> expected = BruteForce(engine.table(), q);
    EXPECT_EQ(engine.ExecuteWithAb(q).row_ids, expected) << trial;
    EXPECT_EQ(engine.ExecuteWithExact(q).row_ids, expected) << trial;
    EXPECT_EQ(engine.Execute(q).row_ids, expected) << trial;
  }
}

HybridEngine MakeForcedEngine(uint64_t rows, uint64_t seed,
                              const char* backend) {
  HybridEngine::Options options;
  options.binning.bins = 16;
  options.ab.alpha = 16;
  options.ab.level = ab::Level::kPerAttribute;
  options.backend = backend;
  return HybridEngine::Build(MakeRandomTable(rows, seed), options);
}

TEST(HybridEngineTest, RoutesByRowFraction) {
  // Only plans that touch a WAH or BBC column route by row fraction.
  for (const char* backend : {"wah", "bbc"}) {
    HybridEngine engine = MakeForcedEngine(5000, 3, backend);
    EngineQuery q;
    q.predicates.push_back(ValuePredicate{0, 0.0, 50.0});

    // Whole relation -> exact arm; the trace carries the serving backend.
    EngineResult whole = engine.Execute(q);
    EXPECT_EQ(whole.path, "exact");
    EXPECT_STREQ(whole.trace.backend, backend);

    // Tiny subset (below the default 2% threshold) -> AB.
    q.rows = bitmap::RowRange(100, 140);  // 41 rows of 5000 = 0.8%
    EngineResult tiny = engine.Execute(q);
    EXPECT_EQ(tiny.path, "ab") << backend;
    EXPECT_STREQ(tiny.trace.backend, "ab");

    // Large subset -> exact arm.
    q.rows = bitmap::RowRange(0, 2499);  // 50%
    EXPECT_EQ(engine.Execute(q).path, "exact") << backend;
  }
  // An all-Roaring plan keeps direct access: every subset is exact.
  HybridEngine engine = MakeForcedEngine(5000, 3, "roaring");
  EngineQuery q;
  q.predicates.push_back(ValuePredicate{0, 0.0, 50.0});
  q.rows = bitmap::RowRange(100, 140);
  EngineResult tiny = engine.Execute(q);
  EXPECT_EQ(tiny.path, "exact");
  EXPECT_STREQ(tiny.trace.backend, "roaring");
  EXPECT_EQ(tiny.row_ids, BruteForce(engine.table(), q));
}

TEST(HybridEngineTest, ApproximateModeIsSupersetOfExact) {
  HybridEngine engine = MakeEngine(2000, 4);
  EngineQuery q;
  q.predicates.push_back(ValuePredicate{2, 2.0, 3.5});
  q.rows = bitmap::RowRange(0, 999);

  q.exact = true;
  std::vector<uint64_t> exact_rows = engine.ExecuteWithAb(q).row_ids;
  q.exact = false;
  EngineResult approx = engine.ExecuteWithAb(q);
  EXPECT_TRUE(approx.approximate);
  EXPECT_GE(approx.row_ids.size(), exact_rows.size());
  // Every exact row must appear in the candidate set.
  EXPECT_TRUE(std::includes(approx.row_ids.begin(), approx.row_ids.end(),
                            exact_rows.begin(), exact_rows.end()));
}

TEST(HybridEngineTest, BinBoundaryOvershootIsPruned) {
  // A predicate cutting through the middle of a bin: the bin-level answer
  // overshoots, the exact path must not.
  HybridEngine engine = MakeEngine(2000, 5);
  EngineQuery q;
  q.predicates.push_back(ValuePredicate{0, 33.3, 33.9});  // narrow slice
  std::vector<uint64_t> expected = BruteForce(engine.table(), q);
  EXPECT_EQ(engine.Execute(q).row_ids, expected);
  for (uint64_t r : engine.Execute(q).row_ids) {
    double v = engine.table().value(r, 0);
    EXPECT_GE(v, 33.3);
    EXPECT_LE(v, 33.9);
  }
}

TEST(HybridEngineTest, WholeRelationVerifyMatchesBruteForce) {
  // Above kParallelMinRows (16,384) and not a multiple of 64, so the
  // pooled verify splits the words and the last word is partial.
  constexpr uint64_t kRows = 20011;
  HybridEngine::Options options;
  options.binning.bins = 16;
  options.ab.alpha = 16;
  options.ab.level = ab::Level::kPerAttribute;
  options.num_threads = 1;
  HybridEngine serial =
      HybridEngine::Build(MakeRandomTable(kRows, 21), options);
  options.num_threads = 4;
  HybridEngine pooled =
      HybridEngine::Build(MakeRandomTable(kRows, 21), options);
  const Table& t = serial.table();
  Table::Discretized bins = t.Discretize(options.binning);

  // The bin-level answer: rows whose bins fall in every predicate's range.
  auto bin_candidates = [&](const EngineQuery& q) {
    std::vector<uint64_t> out;
    for (uint64_t r = 0; r < kRows; ++r) {
      bool match = true;
      for (const ValuePredicate& p : q.predicates) {
        const bitmap::Binner& b = bins.binners[p.attr];
        uint32_t bin = b.BinOf(t.value(r, p.attr));
        match = match && bin >= b.BinOf(p.lo) && bin <= b.BinOf(p.hi);
      }
      if (match) out.push_back(r);
    }
    return out;
  };
  // Bounds taken from raw values present in the column: the rows holding
  // them must survive, since both bounds are inclusive.
  auto span = [&](uint32_t attr, uint64_t a, uint64_t b) {
    double x = t.value(a, attr), y = t.value(b, attr);
    return ValuePredicate{attr, std::min(x, y), std::max(x, y)};
  };
  std::vector<std::vector<ValuePredicate>> cases = {
      {},
      {span(0, 17, 9001)},
      {ValuePredicate{1, 7.0, 7.0}},
      {span(0, 3, 20010), ValuePredicate{1, 10.0, 30.0}},
      {span(2, 5, 123), ValuePredicate{1, 0.0, 12.0}, span(0, 44, 19999)},
      {ValuePredicate{1, 10.25, 10.75}},  // between integers: empty
      {ValuePredicate{0, -1.0, 101.0}},   // the whole domain
  };
  // Serial and pooled engines must both equal the brute force, so they
  // also equal each other.
  for (size_t c = 0; c < cases.size(); ++c) {
    EngineQuery q;
    q.predicates = cases[c];
    std::vector<uint64_t> truth = BruteForce(t, q);
    std::vector<uint64_t> candidates = bin_candidates(q);
    if (c == 5) {
      EXPECT_TRUE(truth.empty());
    }
    if (c == 6) {
      EXPECT_EQ(truth.size(), kRows);
    }
    for (const HybridEngine* engine : {&serial, &pooled}) {
      q.exact = true;
      EngineResult exact = engine->Execute(q);
      EXPECT_EQ(exact.path, "exact") << c;
      EXPECT_EQ(exact.row_ids, truth) << c;
      EXPECT_EQ(exact.trace.candidates, candidates.size()) << c;
      EXPECT_EQ(exact.trace.verified_matches, truth.size()) << c;
      // The AB arm verifies through CollectResult's check (pooled here).
      EXPECT_EQ(engine->ExecuteWithAb(q).row_ids, truth) << c;
      q.exact = false;
      EngineResult approx = engine->Execute(q);
      EXPECT_TRUE(approx.approximate) << c;
      EXPECT_EQ(approx.row_ids, candidates) << c;
      EXPECT_EQ(approx.trace.candidates, candidates.size()) << c;
    }
  }
}

TEST(HybridEngineTest, EmptyPredicateListSelectsRequestedRows) {
  HybridEngine engine = MakeEngine(500, 6);
  EngineQuery q;
  q.rows = bitmap::RowRange(10, 19);
  EngineResult result = engine.Execute(q);
  EXPECT_EQ(result.row_ids, bitmap::RowRange(10, 19));
}

TEST(HybridEngineTest, SizesReported) {
  HybridEngine engine = MakeEngine(2000, 7);
  EXPECT_GT(engine.ExactSizeBytes(), 0u);
  EXPECT_GT(engine.AbSizeBytes(), 0u);
}

TEST(HybridEngineTest, ParallelBuildYieldsIdenticalIndexes) {
  // Build runs WAH compression and AB population through the engine pool;
  // both parallel paths are bit-identical to serial, so a 1-thread and a
  // 4-thread engine must hold the same indexes and answer identically.
  HybridEngine::Options serial_opts;
  serial_opts.binning.bins = 16;
  serial_opts.ab.alpha = 8;
  serial_opts.num_threads = 1;
  HybridEngine::Options parallel_opts = serial_opts;
  parallel_opts.num_threads = 4;
  HybridEngine serial = HybridEngine::Build(MakeRandomTable(2500, 9), serial_opts);
  HybridEngine parallel =
      HybridEngine::Build(MakeRandomTable(2500, 9), parallel_opts);
  ASSERT_EQ(serial.exact_index().num_columns(),
            parallel.exact_index().num_columns());
  for (uint32_t j = 0; j < serial.exact_index().num_columns(); ++j) {
    ASSERT_EQ(serial.exact_index().column_choice(j),
              parallel.exact_index().column_choice(j))
        << "backend choice, column " << j;
    ASSERT_EQ(serial.exact_index().DecompressColumn(j),
              parallel.exact_index().DecompressColumn(j))
        << "exact column " << j;
  }
  ASSERT_EQ(serial.ab_index().num_filters(), parallel.ab_index().num_filters());
  for (size_t f = 0; f < serial.ab_index().num_filters(); ++f) {
    ASSERT_EQ(serial.ab_index().filter(f).bits(),
              parallel.ab_index().filter(f).bits())
        << "ab filter " << f;
  }
  EngineQuery q;
  q.predicates.push_back(ValuePredicate{0, 10.0, 70.0});
  q.rows = bitmap::RowRange(100, 1600);
  EXPECT_EQ(serial.Execute(q).row_ids, parallel.Execute(q).row_ids);
}

TEST(HybridEngineTest, BackendOptionForcesEveryColumn) {
  for (const char* backend : {"wah", "bbc", "roaring"}) {
    HybridEngine::Options options;
    options.binning.bins = 16;
    options.ab.alpha = 8;
    options.backend = backend;
    HybridEngine engine =
        HybridEngine::Build(MakeRandomTable(1500, 10), options);
    const ExactIndex& exact = engine.exact_index();
    BackendChoice want;
    ASSERT_TRUE(ParseBackendChoice(backend, &want));
    for (uint32_t j = 0; j < exact.num_columns(); ++j) {
      EXPECT_EQ(exact.column_choice(j), want) << backend << " column " << j;
    }
    EngineQuery q;
    q.predicates.push_back(ValuePredicate{0, 20.0, 60.0});
    EXPECT_EQ(engine.Execute(q).row_ids, BruteForce(engine.table(), q))
        << backend;
    EXPECT_STREQ(engine.Execute(q).trace.backend, backend);
  }
}

TEST(HybridEngineTest, AbBackendEnvOverridesOption) {
  ::setenv("AB_BACKEND", "wah", 1);
  HybridEngine::Options options;
  options.binning.bins = 8;
  options.backend = "roaring";  // should lose to the environment
  HybridEngine engine = HybridEngine::Build(MakeRandomTable(600, 11), options);
  ::unsetenv("AB_BACKEND");
  const ExactIndex& exact = engine.exact_index();
  for (uint32_t j = 0; j < exact.num_columns(); ++j) {
    EXPECT_EQ(exact.column_choice(j), BackendChoice::kWah) << "column " << j;
  }
}

TEST(HybridEngineTest, ForcedBackendsAgreeOnEveryQuery) {
  // The same table under every forced backend (and the selector) must
  // answer every query identically: backends differ in cost, never in
  // bits.
  std::vector<HybridEngine> engines;
  for (const char* backend : {"auto", "wah", "bbc", "roaring", "ab"}) {
    HybridEngine::Options options;
    options.binning.bins = 16;
    options.ab.alpha = 8;
    options.backend = backend;
    engines.push_back(HybridEngine::Build(MakeRandomTable(2000, 12), options));
  }
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    EngineQuery q;
    q.predicates.push_back(
        ValuePredicate{static_cast<uint32_t>(trial % 3), 10.0, 70.0});
    if (trial % 2 == 1) {
      uint64_t lo = rng() % 1000;
      q.rows = bitmap::RowRange(lo, lo + 700);
    }
    std::vector<uint64_t> expected = engines[0].ExecuteWithExact(q).row_ids;
    for (size_t e = 1; e < engines.size(); ++e) {
      EXPECT_EQ(engines[e].ExecuteWithExact(q).row_ids, expected)
          << "engine " << e << " trial " << trial;
    }
  }
}

TEST(HybridEngineTest, AbPreferredPlansUseDirectAccess) {
  // kAb-preferring columns are stored as Roaring, so their subsets take
  // the exact arm at every fraction; the AB stays reachable on request.
  HybridEngine engine = MakeForcedEngine(5000, 14, "ab");
  EngineQuery q;
  q.predicates.push_back(ValuePredicate{0, 20.0, 60.0});
  for (uint64_t last : {40u, 499u, 999u}) {  // 0.8%, 10%, 20%
    q.rows = bitmap::RowRange(0, last);
    EngineResult result = engine.Execute(q);
    EXPECT_EQ(result.path, "exact") << last;
    EXPECT_STREQ(result.trace.backend, "ab");
    EXPECT_EQ(result.row_ids, BruteForce(engine.table(), q)) << last;
    EngineResult via_ab = engine.ExecuteWithAb(q);
    EXPECT_EQ(via_ab.path, "ab");
    EXPECT_EQ(via_ab.row_ids, result.row_ids) << last;
  }
}

/// Row subsets in every order the engine accepts, over a table that
/// spans the 65535/65536 chunk boundary.
std::vector<std::vector<uint64_t>> EngineRowShapes(uint64_t rows,
                                                   std::mt19937_64* rng) {
  std::vector<std::vector<uint64_t>> shapes;
  shapes.push_back(bitmap::RowRange(65000, 66999));  // contiguous
  std::vector<uint64_t> scattered;
  for (int i = 0; i < 500; ++i) scattered.push_back((*rng)() % rows);
  std::sort(scattered.begin(), scattered.end());
  shapes.push_back(scattered);
  std::vector<uint64_t> unsorted = scattered;
  std::shuffle(unsorted.begin(), unsorted.end(), *rng);
  shapes.push_back(unsorted);
  std::vector<uint64_t> dups = {65535, 65536, 65535, rows - 1, 0, 0};
  dups.insert(dups.end(), unsorted.begin(), unsorted.begin() + 60);
  dups.insert(dups.end(), unsorted.begin(), unsorted.begin() + 30);
  std::shuffle(dups.begin(), dups.end(), *rng);
  shapes.push_back(dups);
  return shapes;
}

TEST(HybridEngineTest, DirectAccessSubsetsMatchOracleInAnyRowOrder) {
  const uint64_t rows = 70000;
  HybridEngine direct = MakeForcedEngine(rows, 16, "roaring");
  HybridEngine scan = MakeForcedEngine(rows, 16, "wah");  // whole-then-pick
  std::mt19937_64 rng(17);
  std::vector<std::vector<ValuePredicate>> plans = {
      {{0, 20.0, 45.0}},
      {{0, 10.0, 80.0}, {1, 5.0, 30.0}},
      {{0, 0.0, 70.0}, {1, 0.0, 40.0}, {2, 2.0, 4.0}},
  };
  for (const std::vector<uint64_t>& subset : EngineRowShapes(rows, &rng)) {
    for (size_t p = 0; p < plans.size(); ++p) {
      EngineQuery q;
      q.predicates = plans[p];
      q.rows = subset;
      std::vector<uint64_t> truth = BruteForce(direct.table(), q);
      EngineResult exact = direct.Execute(q);
      EXPECT_EQ(exact.path, "exact");
      EXPECT_EQ(exact.row_ids, truth) << "plan " << p;
      EXPECT_EQ(scan.ExecuteWithExact(q).row_ids, truth) << "plan " << p;

      // Approximate: bin-level candidates, identical across backends, a
      // superset of the truth inside the request.
      q.exact = false;
      EngineResult approx = direct.Execute(q);
      EXPECT_EQ(approx.row_ids, scan.ExecuteWithExact(q).row_ids)
          << "plan " << p;
      std::vector<uint64_t> got = approx.row_ids;
      std::vector<uint64_t> want = truth;
      std::vector<uint64_t> request = subset;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      std::sort(request.begin(), request.end());
      EXPECT_TRUE(std::includes(got.begin(), got.end(), want.begin(),
                                want.end()))
          << "plan " << p;
      EXPECT_TRUE(std::includes(request.begin(), request.end(), got.begin(),
                                got.end()))
          << "plan " << p;
    }
  }
}

TEST(HybridEngineTest, ChoiceSummaryCoversEveryColumn) {
  HybridEngine engine = MakeEngine(2000, 15);
  const ExactIndex& exact = engine.exact_index();
  uint64_t total = 0;
  for (uint64_t c : exact.choice_counts()) total += c;
  EXPECT_EQ(total, exact.num_columns());
  std::string summary = exact.ChoiceSummary();
  for (const char* name : {"wah=", "bbc=", "roaring=", "ab="}) {
    EXPECT_NE(summary.find(name), std::string::npos) << summary;
  }
}

TEST(HybridEngineTest, MeasureCrossoverReturnsSaneFraction) {
  HybridEngine engine = MakeEngine(20000, 8);
  double crossover = engine.MeasureCrossover();
  EXPECT_GT(crossover, 0.0);
  EXPECT_LE(crossover, 0.5);
  EXPECT_EQ(engine.crossover_fraction(), crossover);
}

TEST(HybridEngineTest, ExecuteBatchMatchesPerQueryExecuteInOrder) {
  HybridEngine engine = MakeEngine(3000, 9);
  std::mt19937_64 rng(3);
  std::vector<EngineQuery> batch;
  for (int i = 0; i < 12; ++i) {
    EngineQuery q;
    double lo = std::uniform_real_distribution<double>(0, 80)(rng);
    q.predicates.push_back(ValuePredicate{0, lo, lo + 20});
    if (i % 3 == 1) {
      // Row-subset query: exercises the AB routing arm inside a batch.
      uint64_t start = rng() % 2900;
      for (uint64_t r = start; r < start + 100; ++r) q.rows.push_back(r);
    }
    if (i % 4 == 3) q.exact = false;  // approximate-answer mode
    batch.push_back(q);
  }
  std::vector<EngineResult> results = engine.ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EngineResult direct = engine.Execute(batch[i]);
    EXPECT_EQ(results[i].row_ids, direct.row_ids) << "query " << i;
    EXPECT_EQ(results[i].path, direct.path) << "query " << i;
    EXPECT_EQ(results[i].approximate, direct.approximate) << "query " << i;
  }
}

TEST(HybridEngineTest, ExecuteBatchParityWithEnginePool) {
  HybridEngine::Options options;
  options.binning.bins = 16;
  options.ab.alpha = 16;
  options.ab.level = ab::Level::kPerAttribute;
  options.num_threads = 2;
  HybridEngine pooled =
      HybridEngine::Build(MakeRandomTable(3000, 10), options);
  HybridEngine serial = MakeEngine(3000, 10);

  std::vector<EngineQuery> batch;
  for (int i = 0; i < 8; ++i) {
    EngineQuery q;
    q.predicates.push_back(ValuePredicate{1, double(i), double(i + 10)});
    batch.push_back(q);
  }
  std::vector<EngineResult> a = pooled.ExecuteBatch(batch);
  std::vector<EngineResult> b = serial.ExecuteBatch(batch);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row_ids, b[i].row_ids) << "query " << i;
  }
}

TEST(HybridEngineTest, ExecuteBatchDedupesIdenticalQueries) {
  HybridEngine engine = MakeEngine(3000, 11);
  EngineQuery hot;
  hot.predicates.push_back(ValuePredicate{0, 10.0, 90.0});
  EngineQuery cold;
  cold.predicates.push_back(ValuePredicate{1, 0.0, 5.0});
  std::vector<EngineQuery> batch = {hot, cold, hot, hot, cold, hot};

  uint64_t before = 0, after = 0;
  if (obs::kStatsEnabled) {
    before = obs::SnapshotStats().counter(
        obs::Counter::kEngineBatchDedupHits);
  }
  std::vector<EngineResult> results = engine.ExecuteBatch(batch);
  if (obs::kStatsEnabled) {
    after = obs::SnapshotStats().counter(
        obs::Counter::kEngineBatchDedupHits);
    // 6 queries, 2 distinct: 4 answered from the in-batch duplicates.
    EXPECT_EQ(after - before, 4u);
  }
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].row_ids, results[2].row_ids);
  EXPECT_EQ(results[0].row_ids, results[3].row_ids);
  EXPECT_EQ(results[0].row_ids, results[5].row_ids);
  EXPECT_EQ(results[1].row_ids, results[4].row_ids);
  EXPECT_EQ(results[0].row_ids, engine.Execute(hot).row_ids);
  EXPECT_EQ(results[1].row_ids, engine.Execute(cold).row_ids);
}

TEST(HybridEngineTest, ExecuteBatchOnEmptyInputReturnsEmpty) {
  HybridEngine engine = MakeEngine(1000, 12);
  EXPECT_TRUE(engine.ExecuteBatch({}).empty());
}

// Ground truth for a mutated engine: raw values of every committed row
// (base then ingested) plus a liveness mask, evaluated the same way
// BruteForce evaluates the immutable table.
std::vector<uint64_t> BruteForceMutable(
    const std::vector<std::vector<double>>& rows,
    const std::vector<bool>& live, const EngineQuery& q) {
  std::vector<uint64_t> ids = q.rows;
  if (ids.empty()) {
    for (uint64_t r = 0; r < rows.size(); ++r) ids.push_back(r);
  }
  std::vector<uint64_t> out;
  for (uint64_t r : ids) {
    if (!live[r]) continue;
    bool match = true;
    for (const ValuePredicate& p : q.predicates) {
      if (rows[r][p.attr] < p.lo || rows[r][p.attr] > p.hi) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(r);
  }
  return out;
}

TEST(HybridEngineTest, IngestedRowsAreQueryableAgainstGroundTruth) {
  HybridEngine engine = MakeEngine(1500, 21);
  const uint64_t base_n = engine.base_rows();
  ASSERT_EQ(base_n, 1500u);
  EXPECT_EQ(engine.TotalRows(), base_n);

  std::vector<std::vector<double>> rows;
  for (uint64_t r = 0; r < base_n; ++r) {
    rows.push_back({engine.table().value(r, 0), engine.table().value(r, 1),
                    engine.table().value(r, 2)});
  }
  std::mt19937_64 rng(22);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> v = {
        std::uniform_real_distribution<double>(0, 100)(rng),
        static_cast<double>(rng() % 50),
        std::normal_distribution<double>(3.0, 1.0)(rng)};
    uint64_t id = engine.IngestRow(v);
    // Ids continue the base numbering, in commit order.
    EXPECT_EQ(id, base_n + static_cast<uint64_t>(i));
    EXPECT_TRUE(engine.RowLive(id));
    rows.push_back(v);
  }
  EXPECT_EQ(engine.TotalRows(), base_n + 300);
  std::vector<bool> live(rows.size(), true);

  // Whole relation: base matches then delta matches, both ascending.
  EngineQuery q;
  q.predicates.push_back(ValuePredicate{0, 20.0, 60.0});
  q.predicates.push_back(ValuePredicate{1, 5.0, 30.0});
  std::vector<uint64_t> expected = BruteForceMutable(rows, live, q);
  EXPECT_EQ(engine.Execute(q).row_ids, expected);
  // The workload has to actually exercise the delta for this to mean
  // anything.
  ASSERT_FALSE(expected.empty());
  EXPECT_GT(expected.back(), base_n);

  // Explicit row subset straddling the base/delta boundary.
  q.rows = bitmap::RowRange(1400, 1700);
  EXPECT_EQ(engine.Execute(q).row_ids, BruteForceMutable(rows, live, q));

  // Delta-only subset.
  q.rows = bitmap::RowRange(base_n, base_n + 299);
  EXPECT_EQ(engine.Execute(q).row_ids, BruteForceMutable(rows, live, q));
}

TEST(HybridEngineTest, DeleteRowTombstonesBaseAndDeltaRows) {
  HybridEngine engine = MakeEngine(800, 23);
  const uint64_t base_n = engine.base_rows();
  std::vector<std::vector<double>> rows;
  for (uint64_t r = 0; r < base_n; ++r) {
    rows.push_back({engine.table().value(r, 0), engine.table().value(r, 1),
                    engine.table().value(r, 2)});
  }
  for (int i = 0; i < 100; ++i) {
    std::vector<double> v = {50.0 + i * 0.1, 10.0, 3.0};
    engine.IngestRow(v);
    rows.push_back(v);
  }
  std::vector<bool> live(rows.size(), true);

  // Base deletes: first delete wins, the second is a no-op.
  std::mt19937_64 rng(24);
  for (int i = 0; i < 150; ++i) {
    uint64_t row = rng() % base_n;
    EXPECT_EQ(engine.DeleteRow(row), live[row] == true);
    live[row] = false;
    EXPECT_FALSE(engine.RowLive(row));
  }
  // Delta deletes.
  for (uint64_t local : {3u, 40u, 99u}) {
    uint64_t id = base_n + local;
    EXPECT_TRUE(engine.DeleteRow(id));
    EXPECT_FALSE(engine.DeleteRow(id));
    EXPECT_FALSE(engine.RowLive(id));
    live[id] = false;
  }
  // Unknown ids are rejected, and ids stay permanent: TotalRows counts
  // the dead.
  EXPECT_FALSE(engine.DeleteRow(engine.TotalRows()));
  EXPECT_FALSE(engine.RowLive(engine.TotalRows()));
  EXPECT_EQ(engine.TotalRows(), base_n + 100);

  EngineQuery q;
  q.predicates.push_back(ValuePredicate{0, 40.0, 70.0});
  EXPECT_EQ(engine.Execute(q).row_ids, BruteForceMutable(rows, live, q));

  q.rows = bitmap::RowRange(700, base_n + 99);
  EXPECT_EQ(engine.Execute(q).row_ids, BruteForceMutable(rows, live, q));
}

TEST(HybridEngineTest, DirectAccessBaseSubsetsUnderInsertsAndDeletes) {
  // The base part of a subset is answered by direct access, tombstones
  // mask it afterwards, and the delta part is evaluated as before.
  HybridEngine engine = MakeForcedEngine(70000, 25, "roaring");
  const uint64_t base_n = engine.base_rows();
  std::vector<std::vector<double>> rows;
  for (uint64_t r = 0; r < base_n; ++r) {
    rows.push_back({engine.table().value(r, 0), engine.table().value(r, 1),
                    engine.table().value(r, 2)});
  }
  std::mt19937_64 rng(26);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> v = {
        std::uniform_real_distribution<double>(0, 100)(rng),
        static_cast<double>(rng() % 50),
        std::normal_distribution<double>(3.0, 1.0)(rng)};
    engine.IngestRow(v);
    rows.push_back(v);
  }
  std::vector<bool> live(rows.size(), true);
  for (uint64_t row = 65400; row < 65700; row += 3) {
    EXPECT_TRUE(engine.DeleteRow(row));
    live[row] = false;
  }
  for (uint64_t local : {5u, 50u, 150u}) {
    EXPECT_TRUE(engine.DeleteRow(base_n + local));
    live[base_n + local] = false;
  }

  EngineQuery q;
  q.predicates.push_back(ValuePredicate{0, 15.0, 65.0});
  q.predicates.push_back(ValuePredicate{1, 3.0, 40.0});
  std::vector<uint64_t> request = bitmap::RowRange(65300, 65800);
  for (uint64_t r = base_n; r < base_n + 200; r += 2) request.push_back(r);
  request.push_back(65535);  // duplicate base row
  request.push_back(base_n + 4);  // duplicate delta row
  std::shuffle(request.begin(), request.end(), rng);
  q.rows = request;
  // Execute returns the base part (in query order), then the delta part
  // (in query order).
  EngineQuery ordered = q;
  std::stable_partition(ordered.rows.begin(), ordered.rows.end(),
                        [base_n](uint64_t r) { return r < base_n; });
  std::vector<uint64_t> expected = BruteForceMutable(rows, live, ordered);
  ASSERT_FALSE(expected.empty());
  ASSERT_GE(expected.back(), base_n);
  EXPECT_EQ(engine.Execute(q).row_ids, expected);
  EXPECT_EQ(engine.ExecuteBatch({q, q})[1].row_ids, expected);
}

TEST(HybridEngineTest, IngestStatsTrackChurnAndMergeSignal) {
  HybridEngine engine = MakeEngine(600, 25);
  HybridEngine::IngestStats before = engine.GetIngestStats();
  EXPECT_EQ(before.ingested, 0u);
  EXPECT_EQ(before.deleted, 0u);
  EXPECT_EQ(before.delta_live, 0u);
  EXPECT_EQ(before.delta_worst_fp, 0.0);

  for (int i = 0; i < 200; ++i) {
    engine.IngestRow({static_cast<double>(i % 100), 5.0, 2.5});
  }
  uint64_t base_n = engine.base_rows();
  for (int i = 0; i < 40; ++i) engine.DeleteRow(base_n + i);  // delta rows
  for (int i = 0; i < 10; ++i) engine.DeleteRow(i);           // base rows

  HybridEngine::IngestStats after = engine.GetIngestStats();
  EXPECT_EQ(after.ingested, 200u);
  EXPECT_EQ(after.deleted, 50u);
  EXPECT_EQ(after.delta_live, 160u);
  EXPECT_GT(after.delta_worst_fp, 0.0);
  EXPECT_LT(after.delta_worst_fp, 1.0);
  // Folding 160 extra live rows into the base AB can only raise its
  // expected FP relative to folding none.
  EXPECT_GE(after.base_fp_if_merged, before.base_fp_if_merged);
  EXPECT_GT(after.base_fp_if_merged, 0.0);
}

TEST(HybridEngineTest, FirstIngestRacesLockFreeReaders) {
  // TSan witness: the first IngestRow creates the delta index under the
  // ingest mutex while GetIngestStats and RowLive read it without one.
  HybridEngine engine = MakeEngine(600, 29);
  const uint64_t first_id = engine.base_rows();
  std::atomic<int> running{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&]() {
      running.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        HybridEngine::IngestStats stats = engine.GetIngestStats();
        EXPECT_LE(stats.ingested, 1u);
        EXPECT_LE(stats.delta_live, 1u);
        if (engine.RowLive(first_id)) {
          EXPECT_NE(engine.delta_index(), nullptr);
        }
      }
    });
  }
  while (running.load() < 2) std::this_thread::yield();
  engine.IngestRow({50.0, 10.0, 3.0});
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(engine.RowLive(first_id));
  EXPECT_EQ(engine.GetIngestStats().delta_live, 1u);
}

TEST(HybridEngineTest, ExecuteBatchSeesMutations) {
  HybridEngine engine = MakeEngine(1000, 27);
  const uint64_t base_n = engine.base_rows();
  std::vector<std::vector<double>> rows;
  for (uint64_t r = 0; r < base_n; ++r) {
    rows.push_back({engine.table().value(r, 0), engine.table().value(r, 1),
                    engine.table().value(r, 2)});
  }
  for (int i = 0; i < 50; ++i) {
    std::vector<double> v = {25.0 + i, 20.0, 3.0};
    engine.IngestRow(v);
    rows.push_back(v);
  }
  std::vector<bool> live(rows.size(), true);
  for (uint64_t row : {5u, 6u, 7u}) {
    engine.DeleteRow(row);
    live[row] = false;
  }

  EngineQuery whole;
  whole.predicates.push_back(ValuePredicate{0, 20.0, 60.0});
  EngineQuery subset = whole;
  subset.rows = bitmap::RowRange(0, base_n + 49);
  std::vector<EngineResult> results = engine.ExecuteBatch({whole, subset});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].row_ids, BruteForceMutable(rows, live, whole));
  EXPECT_EQ(results[1].row_ids, BruteForceMutable(rows, live, subset));
  // Batch and single-query paths agree on the mutated engine.
  EXPECT_EQ(results[0].row_ids, engine.Execute(whole).row_ids);
}

}  // namespace
}  // namespace engine
}  // namespace abitmap
