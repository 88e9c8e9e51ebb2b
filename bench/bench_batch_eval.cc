// Scalar vs batched vs batched+parallel AB query evaluation. Each
// benchmark evaluates a fixed 2-attribute range query over the whole
// relation and reports rows per second; the three variants share the
// index and the query, so any difference is purely the evaluation
// pipeline. Run with --benchmark_format=json for machine-readable output.
//
// After the google-benchmark pass, main() times the individual query-side
// kernels (probe hashing, batched membership, and the word-wise
// verification ops) at the forced-scalar dispatch level and at
// the detected SIMD level, and writes both the pipeline and kernel numbers
// to BENCH_query.json (the query-side mirror of BENCH_build.json), each as
// the median, min and max of kReps runs (the pipelines' runs interleaved,
// one of each per round), with the git sha. The
// comparison table and the SIMD banner go to stderr so stdout stays pure
// google-benchmark output when piped as JSON.
//
// Its last section times the served engine in process, on one thread, over
// serve::MakeSeedTable(1M rows, seed 1) (scaled by ABITMAP_BENCH_SCALE) with
// the served benchmark's templates: 32 whole-relation counts and 1,024
// subsets of 0.1% of the rows, 1 in 4 approximate. It reports the index's
// bytes per row and the raw values the verify read (QueryTrace::raw_reads).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "benchmark/benchmark.h"

#include "bench_util.h"
#include "bitmap/bitmap_table.h"
#include "core/ab_index.h"
#include "engine/exact_index.h"
#include "engine/hybrid_engine.h"
#include "wah/wah_query.h"
#include "core/approximate_bitmap.h"
#include "bbc/bbc_vector.h"
#include "data/generators.h"
#include "data/query_gen.h"
#include "hash/hash_family.h"
#include "obs/stats.h"
#include "roaring/roaring_bitmap.h"
#include "serve/workload.h"
#include "util/simd.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace abitmap {
namespace bench {
namespace {

struct Case {
  ab::AbIndex index;
  bitmap::BitmapQuery query;

  Case(ab::AbIndex built, bitmap::BitmapQuery q)
      : index(std::move(built)), query(std::move(q)) {}
};

/// Indexes are cached across benchmark re-entries: google-benchmark calls
/// each function several times while calibrating iteration counts, and a
/// 1M-row build per call would dominate the run.
const Case& GetCase(uint64_t rows, int k, ab::Level level) {
  using Key = std::tuple<uint64_t, int, int>;
  static std::map<Key, std::unique_ptr<Case>>* cache =
      new std::map<Key, std::unique_ptr<Case>>();
  Key key{rows, k, static_cast<int>(level)};
  auto it = cache->find(key);
  if (it == cache->end()) {
    bitmap::BinnedDataset d = data::MakeSynthetic(
        "batch-eval", rows, 4, 16, data::Distribution::kUniform, 42);
    ab::AbConfig cfg;
    cfg.level = level;
    cfg.alpha = 8;
    cfg.k = k;
    data::QueryGenParams params;
    params.num_queries = 1;
    params.qdim = 2;
    params.bins_per_attr = 4;
    params.rows_queried = rows;
    params.seed = 9;
    bitmap::BitmapQuery query = data::GenerateQueries(d, params)[0];
    query.rows.clear();  // whole relation
    it = cache
             ->emplace(key, std::make_unique<Case>(
                                ab::AbIndex::BuildParallel(
                                    d, cfg, util::DefaultThreadCount()),
                                std::move(query)))
             .first;
  }
  return *it->second;
}

uint64_t ScaledRows(int64_t base) {
  uint64_t rows = static_cast<uint64_t>(base) / DatasetScale();
  return rows < 1024 ? 1024 : rows;
}

ab::Level LevelArg(int64_t v) {
  return v == 0 ? ab::Level::kPerAttribute : ab::Level::kPerColumn;
}

/// Args: {rows, k, level (0 = per-attribute, 1 = per-column)}.
void BM_EvalScalar(benchmark::State& state) {
  const Case& c =
      GetCase(ScaledRows(state.range(0)), static_cast<int>(state.range(1)),
              LevelArg(state.range(2)));
  for (auto _ : state) {
    std::vector<bool> bits = c.index.Evaluate(c.query);
    benchmark::DoNotOptimize(bits.size());
  }
  state.SetItemsProcessed(state.iterations() * c.index.num_rows());
}

void BM_EvalBatched(benchmark::State& state) {
  const Case& c =
      GetCase(ScaledRows(state.range(0)), static_cast<int>(state.range(1)),
              LevelArg(state.range(2)));
  for (auto _ : state) {
    std::vector<bool> bits = c.index.EvaluateBatched(c.query);
    benchmark::DoNotOptimize(bits.size());
  }
  state.SetItemsProcessed(state.iterations() * c.index.num_rows());
}

void BM_EvalBatchedParallel(benchmark::State& state) {
  const Case& c =
      GetCase(ScaledRows(state.range(0)), static_cast<int>(state.range(1)),
              LevelArg(state.range(2)));
  int threads = static_cast<int>(state.range(3));
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    std::vector<bool> bits = c.index.EvaluateParallel(c.query, &pool);
    benchmark::DoNotOptimize(bits.size());
  }
  state.SetItemsProcessed(state.iterations() * c.index.num_rows());
}

void EvalArgs(benchmark::internal::Benchmark* b) {
  for (int64_t rows : {int64_t{100000}, int64_t{1000000}}) {
    for (int64_t k : {int64_t{4}, int64_t{8}}) {
      for (int64_t level : {int64_t{0}, int64_t{1}}) {
        b->Args({rows, k, level});
      }
    }
  }
}

void EvalArgsParallel(benchmark::internal::Benchmark* b) {
  for (int64_t rows : {int64_t{100000}, int64_t{1000000}}) {
    for (int64_t k : {int64_t{4}, int64_t{8}}) {
      for (int64_t level : {int64_t{0}, int64_t{1}}) {
        b->Args({rows, k, level, 4});
      }
    }
  }
}

BENCHMARK(BM_EvalScalar)->Apply(EvalArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EvalBatched)->Apply(EvalArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EvalBatchedParallel)
    ->Apply(EvalArgsParallel)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD kernel comparison + BENCH_query.json.

/// Forces a dispatch level for the lifetime of the guard, restoring the
/// previous level on destruction (same idiom as the parity tests).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(util::simd::SimdLevel level)
      : previous_(util::simd::ActiveSimdLevel()) {
    util::simd::SetSimdLevelForTesting(level);
  }
  ~ScopedSimdLevel() { util::simd::SetSimdLevelForTesting(previous_); }

 private:
  util::simd::SimdLevel previous_;
};

/// Runs per timed row: one regeneration of single timings moved rows past
/// their own differences, so every row records its spread.
constexpr int kReps = 5;

struct KernelTiming {
  std::string name;
  uint64_t items = 0;  // work items per repetition (keys or 64-bit words)
  Spread scalar_s;
  Spread simd_s;

  double Speedup() const {
    return simd_s.median > 0 ? scalar_s.median / simd_s.median : 0.0;
  }
};

/// Wall time of `fn` in seconds at the given dispatch level, over kReps
/// runs.
template <typename Fn>
Spread TimeAtLevel(util::simd::SimdLevel level, Fn&& fn) {
  ScopedSimdLevel guard(level);
  std::vector<double> seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Stopwatch timer;
    fn();
    seconds.push_back(timer.ElapsedMillis() / 1000);
  }
  return SpreadOf(seconds);
}

/// Times one kernel body at forced-scalar and at the detected level.
template <typename Fn>
KernelTiming MeasureKernel(const std::string& name, uint64_t items, Fn&& fn) {
  KernelTiming t;
  t.name = name;
  t.items = items;
  t.scalar_s = TimeAtLevel(util::simd::SimdLevel::kScalar, fn);
  t.simd_s = TimeAtLevel(util::simd::DetectedSimdLevel(), fn);
  return t;
}

std::vector<KernelTiming> MeasureKernels() {
  std::vector<KernelTiming> out;
  // Sized so the scalar side takes tens of milliseconds at scale 1 but the
  // check.sh smoke run (scale 100) stays fast.
  const uint64_t num_keys =
      std::max<uint64_t>(1 << 14, (uint64_t{2} << 20) / DatasetScale());
  const uint64_t num_words =
      std::max<uint64_t>(1 << 12, (uint64_t{4} << 20) / DatasetScale());
  const int k = 8;
  const uint64_t n = uint64_t{1} << 22;  // power of two: vector probe path

  std::mt19937_64 rng(7);
  std::vector<uint64_t> keys(num_keys);
  std::vector<hash::CellRef> cells(num_keys);
  for (uint64_t i = 0; i < num_keys; ++i) {
    keys[i] = rng();
    cells[i] = hash::CellRef{rng() % num_keys, static_cast<uint32_t>(i % 32)};
  }
  std::vector<uint64_t> probes(num_keys * k);

  auto double_family =
      std::shared_ptr<const hash::HashFamily>(hash::MakeDoubleHashFamily());
  out.push_back(MeasureKernel("probes_double", num_keys, [&] {
    double_family->ProbesBatch(keys.data(), cells.data(), num_keys, k, n,
                               probes.data());
    benchmark::DoNotOptimize(probes.data());
  }));

  auto independent_family =
      std::shared_ptr<const hash::HashFamily>(hash::MakeIndependentFamily());
  out.push_back(MeasureKernel("probes_independent", num_keys, [&] {
    independent_family->ProbesBatch(keys.data(), cells.data(), num_keys, k, n,
                                    probes.data());
    benchmark::DoNotOptimize(probes.data());
  }));

  // Batched membership over a half-populated filter: every query walks the
  // gather/blend (or scalar round-major) still-alive resolve.
  ab::AbParams params;
  params.n_bits = n;
  params.k = k;
  ab::ApproximateBitmap filter(params, double_family);
  for (uint64_t i = 0; i < num_keys / 2; ++i) filter.Insert(keys[i], cells[i]);
  std::vector<uint8_t> hits(num_keys);
  out.push_back(MeasureKernel("test_batch_double", num_keys, [&] {
    filter.TestBatch(keys.data(), cells.data(), num_keys, hits.data());
    benchmark::DoNotOptimize(hits.data());
  }));

  // Word kernels behind WAH/BBC candidate verification and FillRatio.
  std::vector<uint64_t> a(num_words), b(num_words);
  for (uint64_t i = 0; i < num_words; ++i) {
    a[i] = rng();
    b[i] = rng();
  }
  out.push_back(MeasureKernel("popcount_words", num_words, [&] {
    uint64_t total = util::simd::PopcountWords(a.data(), num_words);
    benchmark::DoNotOptimize(total);
  }));
  out.push_back(MeasureKernel("and_words", num_words, [&] {
    util::simd::AndWords(a.data(), b.data(), num_words);
    benchmark::DoNotOptimize(a.data());
  }));
  return out;
}

/// Per-backend compressed size on one seed dataset (the engine's Roaring
/// index against the paper's WAH and BBC baselines), plus the headline
/// sparse-intersection race: an asymmetric AND of two sub-1%-density
/// columns, where array containers gallop instead of walking fills.
struct BackendSizes {
  std::string name;
  uint64_t rows = 0;
  uint64_t wah_bytes = 0;
  uint64_t bbc_bytes = 0;
  uint64_t roaring_bytes = 0;
};

struct SparseIntersect {
  uint64_t rows = 0;
  double density_a = 0, density_b = 0;
  double wah_ms = 0;
  double roaring_ms = 0;
  double Speedup() const { return roaring_ms > 0 ? wah_ms / roaring_ms : 0; }
};

std::vector<BackendSizes> MeasureBackendSizes() {
  std::vector<BackendSizes> out;
  for (EvalDataset& e : AllDatasets()) {
    bitmap::BitmapTable table = bitmap::BitmapTable::Build(e.data);
    BackendSizes s;
    s.name = e.data.name;
    s.rows = table.num_rows();
    s.wah_bytes = wah::WahIndex::Build(table).SizeInBytes();
    s.roaring_bytes = engine::ExactIndex::Build(table, nullptr).SizeInBytes();
    for (uint32_t j = 0; j < table.num_columns(); ++j) {
      s.bbc_bytes += bbc::BbcVector::Compress(table.column(j)).SizeInBytes();
    }
    out.push_back(std::move(s));
  }
  return out;
}

SparseIntersect MeasureSparseIntersect() {
  SparseIntersect t;
  t.rows = ScaledRows(4000000);
  // Asymmetric sparse pair: 0.8% vs 0.05% density. The larger side is
  // ~16x the smaller, the regime where the Roaring array containers
  // switch from linear merge to galloping search; WAH still walks both
  // compressed streams end to end.
  std::mt19937_64 rng(41);
  util::BitVector a(t.rows), b(t.rows);
  for (uint64_t i = 0; i < t.rows / 125; ++i) a.Set(rng() % t.rows);
  for (uint64_t i = 0; i < t.rows / 2000; ++i) b.Set(rng() % t.rows);
  t.density_a = static_cast<double>(a.Count()) / t.rows;
  t.density_b = static_cast<double>(b.Count()) / t.rows;
  wah::WahVector wah_a = wah::WahVector::Compress(a);
  wah::WahVector wah_b = wah::WahVector::Compress(b);
  roaring::RoaringBitmap roar_a = roaring::RoaringBitmap::FromBitVector(a);
  roaring::RoaringBitmap roar_b = roaring::RoaringBitmap::FromBitVector(b);
  roar_a.Optimize();
  roar_b.Optimize();
  constexpr int kIntersectReps = 200;
  uint64_t sink = 0;
  // Warm both paths once, then time.
  sink += And(wah_a, wah_b).NumWords();
  sink += And(roar_a, roar_b).Count();
  util::Stopwatch wah_timer;
  for (int r = 0; r < kIntersectReps; ++r) {
    sink += And(wah_a, wah_b).NumWords();
  }
  t.wah_ms = wah_timer.ElapsedMillis() / kIntersectReps;
  util::Stopwatch roaring_timer;
  for (int r = 0; r < kIntersectReps; ++r) {
    sink += And(roar_a, roar_b).Count();
  }
  t.roaring_ms = roaring_timer.ElapsedMillis() / kIntersectReps;
  benchmark::DoNotOptimize(sink);
  return t;
}

/// End-to-end pipeline timings at the active level, for the JSON trend
/// line: the same Evaluate/EvaluateBatched pair the benchmarks above
/// sweep, at one representative configuration.
struct PipelineTiming {
  uint64_t rows = 0;
  Spread scalar_ms;          // AbIndex::Evaluate
  Spread batched_ms;         // AbIndex::EvaluateBatched, detected SIMD
  Spread batched_scalar_ms;  // EvaluateBatched at forced-scalar
};

PipelineTiming MeasurePipeline() {
  PipelineTiming t;
  const Case& c = GetCase(ScaledRows(1000000), 8, ab::Level::kPerAttribute);
  t.rows = c.index.num_rows();
  auto evaluate = [&] {
    std::vector<bool> bits = c.index.Evaluate(c.query);
    benchmark::DoNotOptimize(bits.size());
  };
  auto batched = [&] {
    std::vector<bool> bits = c.index.EvaluateBatched(c.query);
    benchmark::DoNotOptimize(bits.size());
  };
  // The reps interleave, one of each pipeline per round, and the order
  // within a round alternates: back-to-back blocks of one pipeline moved
  // its median by half while the other's held, so only interleaved reps
  // can order the two.
  std::vector<double> scalar_ms, batched_ms, batched_scalar_ms;
  auto time_ms = [](util::simd::SimdLevel level, auto& fn,
                    std::vector<double>* out) {
    ScopedSimdLevel guard(level);
    util::Stopwatch timer;
    fn();
    out->push_back(timer.ElapsedMillis());
  };
  for (int rep = 0; rep < kReps; ++rep) {
    if (rep % 2 == 0) {
      time_ms(util::simd::DetectedSimdLevel(), evaluate, &scalar_ms);
      time_ms(util::simd::DetectedSimdLevel(), batched, &batched_ms);
    } else {
      time_ms(util::simd::DetectedSimdLevel(), batched, &batched_ms);
      time_ms(util::simd::DetectedSimdLevel(), evaluate, &scalar_ms);
    }
    time_ms(util::simd::SimdLevel::kScalar, batched, &batched_scalar_ms);
  }
  t.scalar_ms = SpreadOf(scalar_ms);
  t.batched_ms = SpreadOf(batched_ms);
  t.batched_scalar_ms = SpreadOf(batched_scalar_ms);
  return t;
}

/// The served engine on the served benchmark's templates (medians over
/// kEngineReps passes): the whole-relation counts' summed time, the mean
/// subset query time, and the deterministic work of one pass.
struct EngineTiming {
  uint64_t rows = 0;
  double index_bytes_per_row = 0;
  double count_templates_ms = 0;   // all 32 count templates
  double subset_query_us = 0;      // per subset template
  uint64_t count_raw_reads = 0;    // summed over the count templates
  uint64_t subset_raw_reads = 0;   // summed over the subset templates
  uint64_t count_candidates = 0;   // bin-level candidates of the counts
  uint64_t count_matches = 0;      // exact count total
};

EngineTiming MeasureEngine() {
  constexpr int kEngineReps = 5;
  EngineTiming t;
  engine::Table table = serve::MakeSeedTable(ScaledRows(1000000), 1);
  t.rows = table.num_rows();
  engine::HybridEngine::Options options;
  options.binning.bins = 16;
  options.num_threads = 1;
  engine::HybridEngine eng = engine::HybridEngine::Build(table, options);
  t.index_bytes_per_row =
      static_cast<double>(eng.ExactSizeBytes()) / static_cast<double>(t.rows);
  serve::TemplateOptions to;
  to.seed = 7;
  to.num_templates = 32;
  to.row_fraction = 0;
  to.count_only = true;
  std::vector<serve::QueryRequest> counts =
      serve::MakeQueryTemplates(t.rows, to);
  to.num_templates = 1024;
  to.row_fraction = 0.001;
  to.count_only = false;
  std::vector<serve::QueryRequest> subsets =
      serve::MakeQueryTemplates(t.rows, to);
  std::mt19937_64 rng(7);
  for (serve::QueryRequest& q : subsets) q.exact = rng() % 4 != 0;
  auto run = [&eng](const serve::QueryRequest& r) {
    engine::EngineQuery q;
    q.predicates = r.predicates;
    q.rows = r.rows;
    q.exact = r.exact;
    q.count_only = r.count_only;
    return eng.Execute(q);
  };
  for (const serve::QueryRequest& r : counts) {
    engine::EngineResult res = run(r);
    t.count_raw_reads += res.trace.raw_reads;
    t.count_candidates += res.trace.candidates;
    t.count_matches += res.count;
  }
  for (const serve::QueryRequest& r : subsets) {
    t.subset_raw_reads += run(r).trace.raw_reads;
  }
  std::vector<double> count_ms, subset_us;
  uint64_t sink = 0;
  for (int rep = 0; rep < kEngineReps; ++rep) {
    util::Stopwatch count_timer;
    for (const serve::QueryRequest& r : counts) sink += run(r).count;
    count_ms.push_back(count_timer.ElapsedMillis());
    util::Stopwatch subset_timer;
    for (const serve::QueryRequest& r : subsets) sink += run(r).count;
    subset_us.push_back(subset_timer.ElapsedMicros() /
                        static_cast<double>(subsets.size()));
  }
  benchmark::DoNotOptimize(sink);
  std::sort(count_ms.begin(), count_ms.end());
  std::sort(subset_us.begin(), subset_us.end());
  t.count_templates_ms = count_ms[kEngineReps / 2];
  t.subset_query_us = subset_us[kEngineReps / 2];
  return t;
}

void WriteQueryJson(const PipelineTiming& pipeline,
                    const std::vector<KernelTiming>& kernels,
                    const std::vector<BackendSizes>& backends,
                    const SparseIntersect& intersect,
                    const EngineTiming& eng) {
  // stats_enabled distinguishes the two tier-1 configurations: the
  // metrics-on overhead is the eval_batched_ms delta between a default
  // build's JSON and an -DAB_DISABLE_STATS=ON build's (EXPERIMENTS.md).
  JsonWriter w;
  w.BeginObject();
  w.Key("source"), w.String(SourceId());
  AppendSimdInfo(&w);
  w.Key("stats_enabled"), w.Bool(obs::kStatsEnabled);
  w.Key("reps"), w.Uint(kReps);
  w.Key("pipeline");
  w.BeginObject();
  w.Key("rows"), w.Uint(pipeline.rows);
  AppendSpread(&w, "eval_scalar_ms", pipeline.scalar_ms);
  AppendSpread(&w, "eval_batched_ms", pipeline.batched_ms);
  AppendSpread(&w, "eval_batched_scalar_kernels_ms",
               pipeline.batched_scalar_ms);
  w.EndObject();
  w.Key("kernels");
  w.BeginArray();
  for (const KernelTiming& t : kernels) {
    w.BeginObject();
    w.Key("name"), w.String(t.name);
    w.Key("items"), w.Uint(t.items);
    AppendSpread(&w, "scalar_s", t.scalar_s, 5);
    AppendSpread(&w, "simd_s", t.simd_s, 5);
    w.Key("simd_speedup"), w.Double(t.Speedup(), 2);
    w.EndObject();
  }
  w.EndArray();
  // Exact-backend comparison: per-dataset compressed sizes and the sparse
  // galloping-AND race.
  w.Key("backends");
  w.BeginObject();
  w.Key("datasets");
  w.BeginArray();
  for (const BackendSizes& s : backends) {
    w.BeginObject();
    w.Key("name"), w.String(s.name);
    w.Key("rows"), w.Uint(s.rows);
    w.Key("wah_bytes"), w.Uint(s.wah_bytes);
    w.Key("bbc_bytes"), w.Uint(s.bbc_bytes);
    w.Key("roaring_bytes"), w.Uint(s.roaring_bytes);
    w.EndObject();
  }
  w.EndArray();
  w.Key("sparse_intersect");
  w.BeginObject();
  w.Key("rows"), w.Uint(intersect.rows);
  w.Key("density_a"), w.Double(intersect.density_a, 5);
  w.Key("density_b"), w.Double(intersect.density_b, 5);
  w.Key("wah_ms"), w.Double(intersect.wah_ms);
  w.Key("roaring_ms"), w.Double(intersect.roaring_ms);
  w.Key("roaring_speedup"), w.Double(intersect.Speedup(), 2);
  w.EndObject();
  w.EndObject();
  // The served engine (sliced index plus edge verify), one thread.
  w.Key("engine");
  w.BeginObject();
  w.Key("rows"), w.Uint(eng.rows);
  w.Key("index_bytes_per_row"), w.Double(eng.index_bytes_per_row, 3);
  w.Key("count_templates"), w.Uint(32);
  w.Key("count_templates_ms"), w.Double(eng.count_templates_ms);
  w.Key("count_raw_reads"), w.Uint(eng.count_raw_reads);
  w.Key("count_candidates"), w.Uint(eng.count_candidates);
  w.Key("count_matches"), w.Uint(eng.count_matches);
  w.Key("subset_templates"), w.Uint(1024);
  w.Key("subset_query_us"), w.Double(eng.subset_query_us);
  w.Key("subset_raw_reads"), w.Uint(eng.subset_raw_reads);
  w.EndObject();
  w.EndObject();
  WriteJsonFile("BENCH_query.json", w.str());
}

void RunKernelComparison() {
  PipelineTiming pipeline = MeasurePipeline();
  std::fprintf(stderr,
               "\npipeline over %llu rows, ms median [min, max] of %d: "
               "Evaluate %.1f [%.1f, %.1f], EvaluateBatched %.1f [%.1f, "
               "%.1f]\n",
               static_cast<unsigned long long>(pipeline.rows), kReps,
               pipeline.scalar_ms.median, pipeline.scalar_ms.min,
               pipeline.scalar_ms.max, pipeline.batched_ms.median,
               pipeline.batched_ms.min, pipeline.batched_ms.max);
  std::vector<KernelTiming> kernels = MeasureKernels();
  std::fprintf(stderr, "\nkernels: forced-scalar vs %s dispatch\n",
               util::simd::SimdLevelName(util::simd::DetectedSimdLevel()));
  std::fprintf(stderr, "%-20s %12s %12s %12s %9s\n", "kernel", "items",
               "scalar(s)", "simd(s)", "speedup");
  for (const KernelTiming& t : kernels) {
    std::fprintf(stderr, "%-20s %12llu %12.5f %12.5f %8.2fx\n",
                 t.name.c_str(), static_cast<unsigned long long>(t.items),
                 t.scalar_s.median, t.simd_s.median, t.Speedup());
  }
  std::vector<BackendSizes> backends = MeasureBackendSizes();
  std::fprintf(stderr, "\nexact backends per dataset\n");
  std::fprintf(stderr, "%-10s %12s %12s %12s\n", "dataset", "wah(B)",
               "bbc(B)", "roaring(B)");
  for (const BackendSizes& s : backends) {
    std::fprintf(stderr, "%-10s %12llu %12llu %12llu\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.wah_bytes),
                 static_cast<unsigned long long>(s.bbc_bytes),
                 static_cast<unsigned long long>(s.roaring_bytes));
  }
  SparseIntersect intersect = MeasureSparseIntersect();
  std::fprintf(stderr,
               "sparse intersect (%.2f%% x %.3f%% of %llu rows): WAH "
               "%.4f ms, Roaring %.4f ms (%.2fx)\n",
               100 * intersect.density_a, 100 * intersect.density_b,
               static_cast<unsigned long long>(intersect.rows),
               intersect.wah_ms, intersect.roaring_ms, intersect.Speedup());
  EngineTiming eng = MeasureEngine();
  std::fprintf(stderr,
               "\nengine over %llu seed rows: %.3f B/row; 32 counts %.3f ms "
               "(%llu raw reads); 1,024 subsets %.2f us/query (%llu raw "
               "reads)\n",
               static_cast<unsigned long long>(eng.rows),
               eng.index_bytes_per_row, eng.count_templates_ms,
               static_cast<unsigned long long>(eng.count_raw_reads),
               eng.subset_query_us,
               static_cast<unsigned long long>(eng.subset_raw_reads));
  WriteQueryJson(pipeline, kernels, backends, intersect, eng);
  std::fprintf(stderr, "wrote BENCH_query.json\n");
}

}  // namespace
}  // namespace bench
}  // namespace abitmap

int main(int argc, char** argv) {
  std::fprintf(stderr, "%s\n", abitmap::bench::SimdBannerLine().c_str());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  abitmap::bench::RunKernelComparison();
  std::fprintf(stderr, "%s\n", abitmap::bench::StatsBannerLine().c_str());
  return 0;
}
