#include "engine/hybrid_engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_set>

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

HybridEngine::Options EngineOptions(uint32_t bins) {
  HybridEngine::Options options;
  options.binning.bins = bins;
  return options;
}

HybridEngine MakeEngine(uint64_t rows, uint64_t seed, uint32_t bins = 16) {
  return HybridEngine::Build(MakeRandomTable(rows, seed),
                             EngineOptions(bins));
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

/// The bin-level truth (the approximate answer): the live rows, in request
/// order, whose bin under `binners` lies within each predicate's bins.
/// `value(r, attr)` reads row r of `num_rows`; `live` is empty when every
/// row is live.
template <typename Value>
std::vector<uint64_t> BinMatches(uint64_t num_rows, const Value& value,
                                 const std::vector<bool>& live,
                                 const std::vector<bitmap::Binner>& binners,
                                 const EngineQuery& q) {
  std::vector<uint64_t> rows = q.rows;
  if (rows.empty()) {
    for (uint64_t r = 0; r < num_rows; ++r) rows.push_back(r);
  }
  std::vector<uint64_t> out;
  for (uint64_t r : rows) {
    bool match = live.empty() || live[r];
    for (const ValuePredicate& p : q.predicates) {
      const bitmap::Binner& binner = binners[p.attr];
      uint32_t bin = binner.BinOf(value(r, p.attr));
      match &= bin >= binner.BinOf(p.lo) && bin <= binner.BinOf(p.hi);
    }
    if (match) out.push_back(r);
  }
  return out;
}

std::vector<uint64_t> BinBruteForce(const Table& t,
                                    const std::vector<bitmap::Binner>& binners,
                                    const EngineQuery& q) {
  return BinMatches(
      t.num_rows(), [&t](uint64_t r, uint32_t a) { return t.value(r, a); },
      {}, binners, q);
}

/// BinBruteForce over a mutated engine's rows: base then ingested, with
/// their liveness.
std::vector<uint64_t> BinBruteForce(
    const std::vector<std::vector<double>>& rows,
    const std::vector<bool>& live, const std::vector<bitmap::Binner>& binners,
    const EngineQuery& q) {
  return BinMatches(
      rows.size(), [&rows](uint64_t r, uint32_t a) { return rows[r][a]; },
      live, binners, q);
}

TEST(HybridEngineTest, ExactResultsMatchBruteForceBothPaths) {
  // Whole relations run the word-level verify, subsets direct access;
  // both must equal the brute force.
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
    EXPECT_EQ(engine.Execute(q).row_ids, BruteForce(engine.table(), q))
        << trial;
  }
}

TEST(HybridEngineTest, EverySubsetRunsOnTheExactArm) {
  // No base AB: whole relations and row subsets of every size run on the
  // exact index.
  HybridEngine engine = MakeEngine(5000, 3);
  EngineQuery q;
  q.predicates.push_back(ValuePredicate{0, 0.0, 50.0});
  // The whole relation, 41 of 5000 rows (0.8%) and 2500 (50%).
  for (const std::vector<uint64_t>& rows :
       {std::vector<uint64_t>{}, bitmap::RowRange(100, 140),
        bitmap::RowRange(0, 2499)}) {
    q.rows = rows;
    EngineResult result = engine.Execute(q);
    EXPECT_EQ(result.path, "exact") << rows.size();
    EXPECT_EQ(result.row_ids, BruteForce(engine.table(), q)) << rows.size();
  }
}

TEST(HybridEngineTest, ApproximateModeIsSupersetOfExact) {
  HybridEngine engine = MakeEngine(2000, 4);
  EngineQuery q;
  q.predicates.push_back(ValuePredicate{2, 2.0, 3.5});
  q.rows = bitmap::RowRange(0, 999);

  q.exact = true;
  std::vector<uint64_t> exact_rows = engine.Execute(q).row_ids;
  q.exact = false;
  EngineResult approx = engine.Execute(q);
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

/// Whole-relation queries, exact, count-only and approximate, plus large
/// subsets and a mutated engine, at one table size and binning; serial
/// and pooled engines must both equal the brute force.
void CheckWholeRelationVerify(uint64_t num_rows, BinningSpec binning) {
  const bool equi_depth = binning.kind == BinningSpec::Kind::kEquiDepth;
  SCOPED_TRACE(testing::Message()
               << num_rows << " rows, " << binning.bins
               << (equi_depth ? " equi-depth" : " equi-width") << " bins");
  HybridEngine::Options options;
  options.binning = binning;
  options.num_threads = 1;
  HybridEngine serial =
      HybridEngine::Build(MakeRandomTable(num_rows, 21), options);
  options.num_threads = 4;
  HybridEngine pooled =
      HybridEngine::Build(MakeRandomTable(num_rows, 21), options);
  const Table& t = serial.table();
  Table::Discretized bins = t.Discretize(options.binning);
  // bins * 16 fine codes, in ceil(log2(bins * 16)) slices: 8 at 10 bins.
  uint32_t slices = 0;
  while ((1u << slices) < binning.bins * bitmap::NestedBinner::kSubBins) {
    ++slices;
  }
  for (uint32_t a = 0; a < t.num_columns(); ++a) {
    EXPECT_EQ(serial.sliced_index().num_slices(a), slices);
  }

  // The bin-level answer: rows whose bins fall in every predicate's range.
  auto bin_candidates = [&](const EngineQuery& q) {
    std::vector<uint64_t> out;
    for (uint64_t r = 0; r < num_rows; ++r) {
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
  // Bin i holds [B[i-1], B[i]): a bound on a boundary B[k] makes bin k + 1
  // the range's first (lo) or last (hi) bin. The cases name boundaries as
  // if there were 16 bins, scaled to the boundaries there are.
  const std::vector<double>& price = bins.binners[0].boundaries();
  const std::vector<double>& rating = bins.binners[2].boundaries();
  auto P = [&](size_t i) { return price[i * price.size() / 15]; };
  auto R = [&](size_t i) { return rating[i * rating.size() / 15]; };
  auto inside = [](double a, double b, double f) { return a + (b - a) * f; };
  std::vector<std::vector<ValuePredicate>> cases = {
      {},
      {span(0, 17, 9001)},
      {ValuePredicate{1, 7.0, 7.0}},
      {span(0, 3, 20010), ValuePredicate{1, 10.0, 30.0}},
      {span(2, 5, 123), ValuePredicate{1, 0.0, 12.0}, span(0, 44, 19999)},
      {ValuePredicate{1, 10.25, 10.75}},  // between integers: empty
      {ValuePredicate{0, -1.0, 101.0}},   // the whole domain
      // lo and hi each on a boundary, alone and with a second predicate.
      {ValuePredicate{0, P(3), P(9)}},
      {ValuePredicate{2, R(1), R(12)},
       ValuePredicate{0, P(0), P(14)}},
      // Inside one bin: no interior bin at all.
      {ValuePredicate{0, inside(P(4), P(5), 0.25),
                      inside(P(4), P(5), 0.75)}},
      {ValuePredicate{2, inside(R(7), R(8), 0.1),
                      inside(R(7), R(8), 0.9)},
       ValuePredicate{0, inside(P(2), P(3), 0.2), P(6)}},
      // Ranges covering bin 0 and the last bin, and ranges that end
      // inside them.
      {ValuePredicate{0, -1.0, P(1)}},
      {ValuePredicate{0, inside(0.0, P(0), 0.5), P(2)}},
      {ValuePredicate{0, P(13), inside(price.back(), 100.0, 0.5)}},
      {ValuePredicate{2, rating.back(), 100.0}},
      {ValuePredicate{2, -100.0, 100.0}, ValuePredicate{0, P(0), 101.0}},
      {ValuePredicate{0, -1.0, inside(P(0), P(1), 0.5)},
       ValuePredicate{2, inside(R(13), R(14), 0.5), 100.0}},
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
      EXPECT_EQ(truth.size(), num_rows);
    }
    for (const HybridEngine* engine : {&serial, &pooled}) {
      q.exact = true;
      EngineResult exact = engine->Execute(q);
      EXPECT_EQ(exact.path, "exact") << c;
      EXPECT_EQ(exact.row_ids, truth) << c;
      EXPECT_EQ(exact.count, truth.size()) << c;
      EXPECT_EQ(exact.trace.candidates, candidates.size()) << c;
      EXPECT_EQ(exact.trace.verified_matches, truth.size()) << c;
      // A count carries no ids, and the same candidate and verified counts.
      q.count_only = true;
      EngineResult count = engine->Execute(q);
      EXPECT_EQ(count.count, truth.size()) << c;
      EXPECT_TRUE(count.row_ids.empty()) << c;
      EXPECT_EQ(count.trace.candidates, exact.trace.candidates) << c;
      EXPECT_EQ(count.trace.verified_matches, exact.trace.verified_matches)
          << c;
      q.count_only = false;
      q.exact = false;
      EngineResult approx = engine->Execute(q);
      EXPECT_TRUE(approx.approximate) << c;
      EXPECT_EQ(approx.row_ids, candidates) << c;
      EXPECT_EQ(approx.count, candidates.size()) << c;
      EXPECT_EQ(approx.trace.candidates, candidates.size()) << c;
    }
  }
  // Large row subsets, contiguous and scattered: each word they touch is
  // compared once, and the survivors come back in request order.
  std::mt19937_64 rng(22);
  std::vector<uint64_t> scattered;
  for (int i = 0; i < 17000; ++i) scattered.push_back(rng() % num_rows);
  std::sort(scattered.begin(), scattered.end());
  for (const std::vector<uint64_t>& subset :
       {bitmap::RowRange(1000, 17999), scattered}) {
    for (size_t c = 0; c < cases.size(); ++c) {
      EngineQuery q;
      q.predicates = cases[c];
      q.rows = subset;
      std::vector<uint64_t> truth = BruteForce(t, q);
      EngineResult exact = pooled.Execute(q);
      EXPECT_EQ(exact.path, "exact") << c;
      EXPECT_EQ(exact.row_ids, truth) << c;
      EXPECT_EQ(exact.trace.verified_matches, truth.size()) << c;
      q.count_only = true;
      EngineResult count = pooled.Execute(q);
      EXPECT_EQ(count.count, truth.size()) << c;
      EXPECT_TRUE(count.row_ids.empty()) << c;
    }
  }
  // With ingested rows and base tombstones, a count is the base count
  // minus the tombstoned matches plus the delta's matches.
  std::vector<std::vector<double>> rows;
  for (uint64_t r = 0; r < num_rows; ++r) {
    rows.push_back({t.value(r, 0), t.value(r, 1), t.value(r, 2)});
  }
  std::vector<bool> dead(num_rows, false);
  std::mt19937_64 ingest_rng(23);
  for (int i = 0; i < 700; ++i) {
    rows.push_back(
        {std::uniform_real_distribution<double>(-5, 105)(ingest_rng),
         static_cast<double>(ingest_rng() % 50),
         std::normal_distribution<double>(3.0, 1.0)(ingest_rng)});
    dead.push_back(false);
  }
  // First with ingested rows only, then with base and delta tombstones.
  auto check_mutated = [&](const char* stage) {
    for (size_t c = 0; c < cases.size(); ++c) {
      std::vector<uint64_t> truth;
      for (uint64_t r = 0; r < rows.size(); ++r) {
        bool match = !dead[r];
        for (const ValuePredicate& p : cases[c]) {
          match = match && rows[r][p.attr] >= p.lo && rows[r][p.attr] <= p.hi;
        }
        if (match) truth.push_back(r);
      }
      for (const HybridEngine* engine : {&serial, &pooled}) {
        EngineQuery q;
        q.predicates = cases[c];
        EngineResult ids = engine->Execute(q);
        EXPECT_EQ(ids.row_ids, truth) << stage << " " << c;
        EXPECT_EQ(ids.count, truth.size()) << stage << " " << c;
        q.count_only = true;
        EngineResult count = engine->Execute(q);
        EXPECT_EQ(count.count, truth.size()) << stage << " " << c;
        EXPECT_TRUE(count.row_ids.empty()) << stage << " " << c;
        EXPECT_EQ(count.trace.candidates, ids.trace.candidates)
            << stage << " " << c;
        EXPECT_EQ(count.trace.verified_matches, ids.trace.verified_matches)
            << stage << " " << c;
      }
    }
  };
  for (HybridEngine* engine : {&serial, &pooled}) {
    for (uint64_t r = num_rows; r < rows.size(); ++r) {
      ASSERT_EQ(engine->IngestRow(rows[r]), r);
    }
  }
  check_mutated("ingested");
  for (uint64_t r = 0; r < rows.size(); r += 7) dead[r] = true;
  for (HybridEngine* engine : {&serial, &pooled}) {
    for (uint64_t r = 0; r < rows.size(); r += 7) {
      ASSERT_TRUE(engine->DeleteRow(r));
    }
  }
  check_mutated("tombstoned");
}

TEST(HybridEngineTest, WholeRelationVerifyMatchesBruteForce) {
  // 20,011 rows: above kParallelMinRows (16,384) and not a multiple of 64,
  // so the pooled pass splits the words and the last word is partial. At
  // 16 and 10 equi-depth bins (10 bins: 160 fine codes in 8 slices), at
  // 16 equi-width bins, and on a table that crosses the 64K-row block.
  const BinningSpec equi_depth{BinningSpec::Kind::kEquiDepth, 16};
  const BinningSpec ten_bins{BinningSpec::Kind::kEquiDepth, 10};
  const BinningSpec equi_width{BinningSpec::Kind::kEquiWidth, 16};
  CheckWholeRelationVerify(20011, equi_depth);
  CheckWholeRelationVerify(20011, ten_bins);
  CheckWholeRelationVerify(20011, equi_width);
  CheckWholeRelationVerify(70001, equi_depth);
}

/// The raw values the verify must read, by brute force over the fine
/// codes. Sub-bin c holds [F[c-1], F[c]) and is an edge of a predicate
/// whose codes are [lo, hi] when c is lo or hi and not lo <= F[c-1] and
/// F[c] <= hi (the first and last codes are open, so always edges). Each
/// distinct requested row inside every predicate's code range costs one
/// read per predicate, in order, whose edge sub-bins hold it, until the
/// first predicate it fails.
uint64_t BruteForceRawReads(const Table& t,
                            const std::vector<bitmap::NestedBinner>& binners,
                            const EngineQuery& q) {
  std::vector<uint64_t> rows = q.rows;
  if (rows.empty()) rows = bitmap::RowRange(0, t.num_rows() - 1);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  auto is_edge = [&](const ValuePredicate& p, uint32_t code) {
    const bitmap::NestedBinner& b = binners[p.attr];
    const std::vector<double>& f = b.fine_boundaries();
    uint32_t lo = b.FineOf(p.lo), hi = b.FineOf(p.hi);
    bool interior = code > 0 && code < f.size() && p.lo <= f[code - 1] &&
                    f[code] <= p.hi;
    return (code == lo || code == hi) && !interior;
  };
  uint64_t reads = 0;
  for (uint64_t r : rows) {
    bool in_range = true;
    for (const ValuePredicate& p : q.predicates) {
      const bitmap::NestedBinner& b = binners[p.attr];
      uint32_t code = b.FineOf(t.value(r, p.attr));
      in_range = in_range && code >= b.FineOf(p.lo) && code <= b.FineOf(p.hi);
    }
    if (!in_range) continue;
    for (const ValuePredicate& p : q.predicates) {
      double v = t.value(r, p.attr);
      if (!is_edge(p, binners[p.attr].FineOf(v))) continue;
      ++reads;
      if (v < p.lo || v > p.hi) break;
    }
  }
  return reads;
}

TEST(HybridEngineTest, RawReadsCountEdgeSubBinCandidates) {
  // Seeded random plans, whole relation and subsets (contiguous, and
  // shuffled with repeats), on a table that crosses the 64K-row block, at
  // 1 and 4 engine threads.
  const uint64_t rows = 70001;
  const uint32_t bins = 16;
  const Table t = MakeRandomTable(rows, 31);
  std::vector<bitmap::NestedBinner> binners;
  for (uint32_t c = 0; c < t.num_columns(); ++c) {
    binners.push_back(bitmap::NestedBinner::EquiDepth(t.column(c), bins));
  }
  const double domain_lo[3] = {-1.0, -1.0, -1.0};
  const double domain_hi[3] = {101.0, 50.0, 7.0};
  for (int threads : {1, 4}) {
    HybridEngine::Options options = EngineOptions(bins);
    options.num_threads = threads;
    HybridEngine engine = HybridEngine::Build(MakeRandomTable(rows, 31),
                                              options);
    std::mt19937_64 rng(32);
    for (int trial = 0; trial < 60; ++trial) {
      EngineQuery q;
      size_t num_predicates = 1 + rng() % 3;
      for (size_t i = 0; i < num_predicates; ++i) {
        uint32_t attr = static_cast<uint32_t>(rng() % 3);
        double a, b;
        if (trial % 4 == 3) {
          // Bounds on fine boundaries, where end sub-bins turn interior.
          const std::vector<double>& f = binners[attr].fine_boundaries();
          a = f[rng() % f.size()];
          b = f[rng() % f.size()];
        } else {
          std::uniform_real_distribution<double> d(domain_lo[attr],
                                                   domain_hi[attr]);
          a = d(rng);
          b = d(rng);
        }
        q.predicates.push_back(
            ValuePredicate{attr, std::min(a, b), std::max(a, b)});
      }
      if (trial % 3 == 1) {
        uint64_t first = rng() % (rows - 3000);
        q.rows = bitmap::RowRange(first, first + 2999);
      } else if (trial % 3 == 2) {
        for (int i = 0; i < 2000; ++i) q.rows.push_back(rng() % rows);
        q.rows.push_back(q.rows.front());
        std::shuffle(q.rows.begin(), q.rows.end(), rng);
      }
      SCOPED_TRACE(testing::Message() << threads << " threads, trial "
                                      << trial);
      const uint64_t expected = BruteForceRawReads(t, binners, q);
      EngineResult ids = engine.Execute(q);
      EXPECT_EQ(ids.row_ids, BruteForce(t, q));
      EXPECT_EQ(ids.trace.raw_reads, expected);
      q.count_only = true;
      EXPECT_EQ(engine.Execute(q).trace.raw_reads, expected);
      q.exact = false;
      EXPECT_EQ(engine.Execute(q).trace.raw_reads, 0u);
    }
    // On ingested rows the scan reads a raw value only for a predicate
    // whose stored bin is one of its two end bins, in predicate order,
    // until the first predicate the row fails.
    EngineQuery q;
    q.predicates = {ValuePredicate{0, 20.0, 60.0}, ValuePredicate{2, 2.5, 4.0}};
    const uint64_t base_reads = BruteForceRawReads(t, binners, q);
    std::vector<bitmap::Binner> coarse = t.Discretize(options.binning).binners;
    const uint64_t base_candidates = BinBruteForce(t, coarse, q).size();
    uint64_t delta_candidates = 0;
    uint64_t delta_reads = 0;
    for (int i = 0; i < 300; ++i) {
      const std::vector<double> v = {
          std::uniform_real_distribution<double>(0, 100)(rng),
          static_cast<double>(rng() % 50),
          std::normal_distribution<double>(3.0, 1.0)(rng)};
      engine.IngestRow(v);
      bool candidate = true;
      for (const ValuePredicate& p : q.predicates) {
        const bitmap::Binner& b = coarse[p.attr];
        const uint32_t bin = b.BinOf(v[p.attr]);
        candidate &= bin >= b.BinOf(p.lo) && bin <= b.BinOf(p.hi);
      }
      if (!candidate) continue;
      ++delta_candidates;
      for (const ValuePredicate& p : q.predicates) {
        const bitmap::Binner& b = coarse[p.attr];
        const uint32_t bin = b.BinOf(v[p.attr]);
        if (bin != b.BinOf(p.lo) && bin != b.BinOf(p.hi)) continue;
        ++delta_reads;
        if (v[p.attr] < p.lo || v[p.attr] > p.hi) break;
      }
    }
    EngineResult mutated = engine.Execute(q);
    ASSERT_GT(delta_candidates, 0u);
    EXPECT_EQ(mutated.trace.candidates, base_candidates + delta_candidates);
    EXPECT_EQ(mutated.trace.raw_reads, base_reads + delta_reads);
    // Interior bins pass without a read.
    EXPECT_LT(delta_reads, delta_candidates * q.predicates.size());
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
  // Three attributes of 8 slices (16 bins of 16 sub-bins), each slice
  // 2,000 bits in 32 words.
  HybridEngine engine = MakeEngine(2000, 7);
  EXPECT_EQ(engine.ExactSizeBytes(), 3u * 8 * 32 * sizeof(uint64_t));
}

TEST(HybridEngineTest, ParallelBuildYieldsIdenticalIndexes) {
  // Build slices the attributes through the engine pool; the parallel
  // path is bit-identical to serial, so a 1-thread and a 4-thread engine
  // must hold the same index and answer identically.
  HybridEngine::Options serial_opts;
  serial_opts.binning.bins = 16;
  serial_opts.num_threads = 1;
  HybridEngine::Options parallel_opts = serial_opts;
  parallel_opts.num_threads = 4;
  HybridEngine serial = HybridEngine::Build(MakeRandomTable(2500, 9), serial_opts);
  HybridEngine parallel =
      HybridEngine::Build(MakeRandomTable(2500, 9), parallel_opts);
  const SlicedIndex& a = serial.sliced_index();
  const SlicedIndex& b = parallel.sliced_index();
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (uint32_t attr = 0; attr < a.num_attributes(); ++attr) {
    EXPECT_EQ(a.binner(attr).fine_boundaries(),
              b.binner(attr).fine_boundaries())
        << "attribute " << attr;
    ASSERT_EQ(a.num_slices(attr), b.num_slices(attr));
    for (uint32_t j = 0; j < a.num_slices(attr); ++j) {
      ASSERT_EQ(a.slice(attr, j), b.slice(attr, j))
          << "attribute " << attr << " slice " << j;
    }
  }
  EngineQuery q;
  q.predicates.push_back(ValuePredicate{0, 10.0, 70.0});
  q.rows = bitmap::RowRange(100, 1600);
  EXPECT_EQ(serial.Execute(q).row_ids, parallel.Execute(q).row_ids);
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

TEST(HybridEngineTest, AbPreferredPlansUseDirectAccess) {
  // Dense columns (3 bins: about a third of the rows each, Roaring bitset
  // containers), the paper's case for the AB, take direct access at every
  // subset fraction, exact and approximate.
  const uint32_t bins = 3;
  HybridEngine engine = MakeEngine(5000, 14, bins);
  std::vector<bitmap::Binner> binners =
      engine.table().Discretize(EngineOptions(bins).binning).binners;
  EngineQuery q;
  q.predicates.push_back(ValuePredicate{0, 20.0, 60.0});
  for (uint64_t last : {40u, 499u, 999u}) {  // 0.8%, 10%, 20%
    q.rows = bitmap::RowRange(0, last);
    q.exact = true;
    EngineResult result = engine.Execute(q);
    EXPECT_EQ(result.path, "exact") << last;
    EXPECT_EQ(result.row_ids, BruteForce(engine.table(), q)) << last;
    q.exact = false;
    EngineResult approx = engine.Execute(q);
    EXPECT_TRUE(approx.approximate) << last;
    EXPECT_EQ(approx.row_ids, BinBruteForce(engine.table(), binners, q))
        << last;
  }
}

TEST(HybridEngineTest, DirectAccessSubsetsMatchOracleInAnyRowOrder) {
  // At 16 and 10 equi-depth bins and 16 equi-width bins; the table crosses
  // the 64K-row block.
  const uint64_t rows = 70000;
  for (const BinningSpec& binning :
       {BinningSpec{BinningSpec::Kind::kEquiDepth, 16},
        BinningSpec{BinningSpec::Kind::kEquiDepth, 10},
        BinningSpec{BinningSpec::Kind::kEquiWidth, 16}}) {
    HybridEngine::Options options = EngineOptions(binning.bins);
    options.binning = binning;
    HybridEngine engine = HybridEngine::Build(MakeRandomTable(rows, 16),
                                              options);
    std::vector<bitmap::Binner> binners =
        engine.table().Discretize(binning).binners;
    std::mt19937_64 rng(17);
    std::vector<std::vector<ValuePredicate>> plans = {
        {{0, 20.0, 45.0}},
        {{0, 10.0, 80.0}, {1, 5.0, 30.0}},
        {{0, 0.0, 70.0}, {1, 0.0, 40.0}, {2, 2.0, 4.0}},
    };
    for (const std::vector<uint64_t>& subset : EngineRowShapes(rows, &rng)) {
      for (size_t p = 0; p < plans.size(); ++p) {
        SCOPED_TRACE(testing::Message()
                     << binning.bins << " bins, kind "
                     << static_cast<int>(binning.kind) << ", plan " << p
                     << ", " << subset.size() << " rows");
        EngineQuery q;
        q.predicates = plans[p];
        q.rows = subset;
        EngineResult exact = engine.Execute(q);
        EXPECT_EQ(exact.path, "exact");
        EXPECT_EQ(exact.row_ids, BruteForce(engine.table(), q));
        // Candidates are counted per requested row, repeats included.
        std::vector<uint64_t> candidates =
            BinBruteForce(engine.table(), binners, q);
        EXPECT_EQ(exact.trace.candidates, candidates.size());

        // Approximate: the bin-level candidates, in request order.
        q.exact = false;
        EngineResult approx = engine.Execute(q);
        EXPECT_TRUE(approx.approximate);
        EXPECT_EQ(approx.row_ids, candidates);
      }
    }
  }
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
  HybridEngine engine = MakeEngine(70000, 25);
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
  // The delta has no index: nothing to rebuild, no filter to fill.
  EXPECT_EQ(after.delta_generations, 0u);
  EXPECT_EQ(after.delta_worst_fp, 0.0);
}

TEST(HybridEngineTest, FirstIngestRacesLockFreeReaders) {
  // TSan witness: the first IngestRow allocates the first chunk under the
  // ingest mutex while GetIngestStats, RowLive and Execute read it
  // without one. A row live before a query starts is in its answer.
  HybridEngine engine = MakeEngine(600, 29);
  const uint64_t first_id = engine.base_rows();
  std::atomic<int> running{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&]() {
      running.fetch_add(1);
      // Only the ingested row has price 50 and quantity 10.
      EngineQuery whole;
      whole.predicates = {ValuePredicate{0, 50.0, 50.0},
                          ValuePredicate{1, 10.0, 10.0}};
      EngineQuery subset = whole;
      subset.rows = {first_id};
      while (!done.load(std::memory_order_acquire)) {
        HybridEngine::IngestStats stats = engine.GetIngestStats();
        EXPECT_LE(stats.ingested, 1u);
        EXPECT_LE(stats.delta_live, 1u);
        const bool live = engine.RowLive(first_id);
        const uint64_t count = engine.Execute(whole).count;
        EXPECT_LE(count, 1u);
        if (!live) continue;  // the id names no row yet
        EXPECT_EQ(count, 1u);
        EXPECT_EQ(engine.Execute(subset).row_ids,
                  std::vector<uint64_t>{first_id});
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

TEST(HybridEngineTest, WholeAndSubsetQueriesSeeMutations) {
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
  EXPECT_EQ(engine.Execute(whole).row_ids,
            BruteForceMutable(rows, live, whole));
  EXPECT_EQ(engine.Execute(subset).row_ids,
            BruteForceMutable(rows, live, subset));
}

/// The base rows of `engine` as value vectors, the start of a mutated
/// engine's ground truth.
std::vector<std::vector<double>> BaseRows(const HybridEngine& engine) {
  std::vector<std::vector<double>> rows;
  const Table& t = engine.table();
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    rows.push_back({t.value(r, 0), t.value(r, 1), t.value(r, 2)});
  }
  return rows;
}

/// A row for MakeRandomTable's schema, reaching past its domain, with
/// one value in eight put on a served bin boundary.
std::vector<double> RandomRow(const std::vector<bitmap::Binner>& binners,
                              std::mt19937_64* rng) {
  std::vector<double> v = {
      std::uniform_real_distribution<double>(-5, 105)(*rng),
      static_cast<double>((*rng)() % 60),
      std::normal_distribution<double>(3.0, 1.5)(*rng)};
  if ((*rng)() % 8 == 0) {
    const uint32_t a = static_cast<uint32_t>((*rng)() % 3);
    const std::vector<double>& b = binners[a].boundaries();
    v[a] = b[(*rng)() % b.size()];
  }
  return v;
}

/// One to three predicates over MakeRandomTable's schema.
std::vector<ValuePredicate> RandomPredicates(std::mt19937_64* rng) {
  const double lo[3] = {-10.0, -1.0, -1.0};
  const double hi[3] = {110.0, 60.0, 7.0};
  std::vector<ValuePredicate> out;
  const size_t n = 1 + (*rng)() % 3;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t attr = static_cast<uint32_t>((*rng)() % 3);
    std::uniform_real_distribution<double> d(lo[attr], hi[attr]);
    const double a = d(*rng), b = d(*rng);
    out.push_back(ValuePredicate{attr, std::min(a, b), std::max(a, b)});
  }
  return out;
}

/// `q` with its rows in the order Execute answers them: base rows first,
/// then ingested ones, each part in request order.
EngineQuery AnswerOrder(EngineQuery q, uint64_t base_rows) {
  std::stable_partition(q.rows.begin(), q.rows.end(),
                        [base_rows](uint64_t r) { return r < base_rows; });
  return q;
}

TEST(HybridEngineTest, SeededOpFuzzMatchesBruteForce) {
  // Seeded sequences of IngestRow, DeleteRow and Execute at 1 and 4
  // engine threads. Every answer, whole or subset (unsorted, repeating,
  // across the base/delta boundary), exact, approximate or count-only,
  // equals the brute force over the rows committed so far: raw values
  // for exact answers, bins for approximate ones.
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    HybridEngine::Options options = EngineOptions(16);
    options.num_threads = threads;
    HybridEngine engine =
        HybridEngine::Build(MakeRandomTable(2000, 41), options);
    const uint64_t base_n = engine.base_rows();
    const std::vector<bitmap::Binner> binners =
        engine.table().Discretize(options.binning).binners;
    std::vector<std::vector<double>> rows = BaseRows(engine);
    std::vector<bool> live(rows.size(), true);
    uint64_t base_deletes = 0;
    std::mt19937_64 rng(42);
    for (int op = 0; op < 3000; ++op) {
      const uint64_t dice = rng() % 100;
      if (dice < 45) {
        std::vector<double> v = RandomRow(binners, &rng);
        ASSERT_EQ(engine.IngestRow(v), rows.size());
        rows.push_back(v);
        live.push_back(true);
      } else if (dice < 70) {
        // Unknown ids included.
        const uint64_t row = rng() % (rows.size() + 10);
        const bool expected = row < rows.size() && live[row];
        ASSERT_EQ(engine.DeleteRow(row), expected) << "op " << op;
        if (expected) live[row] = false;
        base_deletes += expected && row < base_n;
        EXPECT_FALSE(engine.RowLive(row));
      } else {
        EngineQuery q;
        q.predicates = RandomPredicates(&rng);
        if (rng() % 3 != 0) {
          const size_t n = 1 + rng() % 300;
          for (size_t i = 0; i < n; ++i) q.rows.push_back(rng() % rows.size());
        }
        q.exact = rng() % 2 == 0;
        q.count_only = rng() % 3 == 0;
        const EngineQuery ordered = AnswerOrder(q, base_n);
        const std::vector<uint64_t> expected =
            q.exact ? BruteForceMutable(rows, live, ordered)
                    : BinBruteForce(rows, live, binners, ordered);
        EngineResult result = engine.Execute(q);
        ASSERT_EQ(result.count, expected.size()) << "op " << op;
        if (q.count_only) {
          EXPECT_TRUE(result.row_ids.empty()) << "op " << op;
        } else {
          EXPECT_EQ(result.row_ids, expected) << "op " << op;
        }
        // Candidates are the live bin-level rows, in both modes, and an
        // exact answer's verified matches are its count.
        EXPECT_EQ(result.trace.candidates,
                  BinBruteForce(rows, live, binners, ordered).size())
            << "op " << op;
        if (q.exact) {
          EXPECT_EQ(result.trace.verified_matches, result.count)
              << "op " << op;
        }
      }
    }
    EXPECT_EQ(engine.TotalRows(), rows.size());
    EXPECT_GT(base_deletes, 0u);
  }
}

TEST(HybridEngineTest, ApproximateDeltaAnswersAreTheBinLevelSet) {
  // Approximate answers over ingested rows mean what they mean on the
  // base: the live rows whose bins fall in every predicate's bin range,
  // no more. Two engines fed the same operations, at 1 and 4 threads,
  // give identical answers.
  const uint64_t base_rows = 5000;
  std::vector<HybridEngine> engines;
  for (int threads : {1, 4}) {
    HybridEngine::Options options = EngineOptions(16);
    options.num_threads = threads;
    engines.push_back(
        HybridEngine::Build(MakeRandomTable(base_rows, 43), options));
  }
  const std::vector<bitmap::Binner> binners =
      engines[0].table().Discretize(EngineOptions(16).binning).binners;
  std::vector<std::vector<double>> rows = BaseRows(engines[0]);
  std::mt19937_64 rng(44);
  for (int i = 0; i < 6000; ++i) {
    std::vector<double> v = RandomRow(binners, &rng);
    for (HybridEngine& engine : engines) engine.IngestRow(v);
    rows.push_back(v);
  }
  std::vector<bool> live(rows.size(), true);
  for (uint64_t r = 3; r < rows.size(); r += 11) {
    for (HybridEngine& engine : engines) ASSERT_TRUE(engine.DeleteRow(r));
    live[r] = false;
  }
  uint64_t delta_matches = 0;
  for (int trial = 0; trial < 40; ++trial) {
    EngineQuery q;
    q.predicates = RandomPredicates(&rng);
    q.exact = false;
    if (trial % 2 == 1) {
      for (int i = 0; i < 2000; ++i) q.rows.push_back(rng() % rows.size());
    }
    const EngineQuery ordered = AnswerOrder(q, base_rows);
    const std::vector<uint64_t> expected =
        BinBruteForce(rows, live, binners, ordered);
    const uint64_t candidates = expected.size();
    for (const uint64_t r : expected) delta_matches += r >= base_rows;
    std::vector<EngineResult> results;
    for (const HybridEngine& engine : engines) {
      results.push_back(engine.Execute(q));
      EXPECT_TRUE(results.back().approximate);
      EXPECT_EQ(results.back().row_ids, expected) << "trial " << trial;
      EXPECT_EQ(results.back().trace.candidates, candidates);
      EXPECT_EQ(results.back().trace.raw_reads, 0u);
    }
    EXPECT_EQ(results[0].row_ids, results[1].row_ids);
    q.count_only = true;
    for (const HybridEngine& engine : engines) {
      EXPECT_EQ(engine.Execute(q).count, expected.size()) << "trial " << trial;
    }
  }
  EXPECT_GT(delta_matches, 0u);
}

TEST(HybridEngineTest, ConcurrentWritersAndReadersSeeNoFalseNegatives) {
  // Two writers ingest rows, delete a third of their own rows and a fifth
  // of the base, while three readers run whole and subset queries, exact,
  // approximate and count-only. A row committed before a query starts and
  // never deleted is in its answer (or its count); a row deleted before
  // the query starts is not in it. Runs in the TSan pass.
  HybridEngine::Options options = EngineOptions(16);
  options.num_threads = 2;
  HybridEngine engine =
      HybridEngine::Build(MakeRandomTable(3000, 51), options);
  const Table& t = engine.table();
  const uint64_t base_n = t.num_rows();
  const std::vector<bitmap::Binner> binners =
      t.Discretize(options.binning).binners;
  // Base rows with id % 5 == 0 are deleted during the run.
  auto base_kept = [](uint64_t row) { return row % 5 != 0; };

  struct Logged {
    uint64_t id;
    std::vector<double> values;
    bool kept;
  };
  std::mutex log_mu;
  std::vector<Logged> log;        // committed ingested rows
  std::vector<uint64_t> deleted;  // ids whose DeleteRow returned true
  constexpr int kWriters = 2;
  constexpr int kRowsPerWriter = 400;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w]() {
      std::mt19937_64 rng(60 + w);
      std::vector<uint64_t> doomed;
      for (int i = 0; i < kRowsPerWriter; ++i) {
        std::vector<double> v = RandomRow(binners, &rng);
        const uint64_t id = engine.IngestRow(v);
        const bool kept = i % 3 != 0;
        {
          std::lock_guard<std::mutex> lock(log_mu);
          log.push_back(Logged{id, v, kept});
        }
        if (!kept) doomed.push_back(id);
        // Delete a doomed row a few ingests after it was committed, and
        // this writer's share of the doomed base rows.
        std::vector<uint64_t> kills;
        if (doomed.size() > 2) {
          kills.push_back(doomed.front());
          doomed.erase(doomed.begin());
        }
        const uint64_t base_victim = 5 * (uint64_t{2} * i + w);
        if (base_victim < base_n) kills.push_back(base_victim);
        for (uint64_t row : kills) {
          EXPECT_TRUE(engine.DeleteRow(row)) << row;
          std::lock_guard<std::mutex> lock(log_mu);
          deleted.push_back(row);
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r]() {
      std::mt19937_64 rng(70 + r);
      for (int n = 0; writers_left.load() > 0 || n < 12; ++n) {
        // What is known before the query starts.
        std::vector<Logged> committed;
        std::unordered_set<uint64_t> dead;
        {
          std::lock_guard<std::mutex> lock(log_mu);
          committed = log;
          dead.insert(deleted.begin(), deleted.end());
        }
        EngineQuery q;
        q.predicates = RandomPredicates(&rng);
        const int mode = n % 6;
        q.exact = mode % 3 != 1;
        q.count_only = mode % 3 == 2;
        std::vector<uint64_t> requested;
        if (mode >= 3) {
          const uint64_t first = rng() % (base_n - 300);
          for (uint64_t row = first; row < first + 300; ++row) {
            requested.push_back(row);
          }
          for (size_t i = 0; i < committed.size(); i += 1 + rng() % 3) {
            requested.push_back(committed[i].id);
          }
          std::shuffle(requested.begin(), requested.end(), rng);
          q.rows = requested;
        }
        const std::unordered_set<uint64_t> in_request(requested.begin(),
                                                      requested.end());
        auto requested_row = [&](uint64_t row) {
          return q.rows.empty() || in_request.count(row) > 0;
        };
        auto matches = [&q](const std::vector<double>& v) {
          for (const ValuePredicate& p : q.predicates) {
            if (v[p.attr] < p.lo || v[p.attr] > p.hi) return false;
          }
          return true;
        };
        // Rows that must be in the answer: kept, committed, matching.
        std::vector<uint64_t> must;
        for (uint64_t row = 0; row < base_n; ++row) {
          if (base_kept(row) && requested_row(row) &&
              matches({t.value(row, 0), t.value(row, 1), t.value(row, 2)})) {
            must.push_back(row);
          }
        }
        for (const Logged& l : committed) {
          if (l.kept && requested_row(l.id) && matches(l.values)) {
            must.push_back(l.id);
          }
        }
        EngineResult result = engine.Execute(q);
        if (q.count_only) {
          EXPECT_GE(result.count, must.size()) << "mode " << mode;
          continue;
        }
        const std::unordered_set<uint64_t> got(result.row_ids.begin(),
                                               result.row_ids.end());
        for (uint64_t row : must) {
          EXPECT_EQ(got.count(row), 1u)
              << "false negative: row " << row << ", mode " << mode;
        }
        for (uint64_t row : result.row_ids) {
          EXPECT_EQ(dead.count(row), 0u)
              << "deleted row " << row << " answered, mode " << mode;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  HybridEngine::IngestStats stats = engine.GetIngestStats();
  EXPECT_EQ(stats.ingested, uint64_t{kWriters} * kRowsPerWriter);
  EXPECT_EQ(stats.deleted, deleted.size());
}

}  // namespace
}  // namespace engine
}  // namespace abitmap
