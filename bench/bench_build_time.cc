// Construction-cost benchmark (not a paper figure — operational data a
// deployment needs): time to build each index representation over the
// evaluation datasets, the parallel AB build's thread scaling (1/2/4/8) at
// each of the three levels, and the batch-hashed insert kernel against the
// scalar insert path. Emits machine-readable results to BENCH_build.json
// alongside the table.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bbc/bbc_vector.h"
#include "bench/bench_util.h"
#include "core/approximate_bitmap.h"
#include "core/ab_index.h"
#include "hash/hash_family.h"
#include "util/simd.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace abitmap {
namespace bench {
namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8};

/// The levels the AB build sweep covers. BuildParallel splits the work
/// differently per level (attribute ownership or private shards), so the
/// sweep times every one of them.
constexpr ab::Level kLevels[] = {ab::Level::kPerDataset,
                                 ab::Level::kPerAttribute,
                                 ab::Level::kPerColumn};
constexpr size_t kNumLevels = sizeof(kLevels) / sizeof(kLevels[0]);

/// Tolerance of the scaling gate: the slowest parallel point may not
/// exceed serial by more than 5% (t_max <= t1 * 1.05) plus a small
/// absolute slack for sub-100ms datasets where one timer tick swamps
/// the relative bound. On single-core hosts the sweep cannot *win*,
/// but a contention-free build must not *lose* either.
constexpr double kScalingTolerance = 1.05;
constexpr double kScalingSlackSeconds = 0.05;

/// Repetitions per thread-sweep point (minimum taken). Wall times on
/// shared hosts are noisy; the min over a few reps is the standard
/// stable estimator. ABITMAP_BENCH_REPS overrides.
int BuildReps() {
  static const int reps = [] {
    if (const char* env = std::getenv("ABITMAP_BENCH_REPS")) {
      int v = std::atoi(env);
      if (v >= 1) return v;
    }
    return 3;
  }();
  return reps;
}

struct DatasetResult {
  std::string name;
  uint64_t rows = 0;
  double table_s = 0;
  double wah_s = 0;
  double wah_par_s = 0;  // 4-thread pool
  double bbc_s = 0;
  double bbc_par_s = 0;  // 4-thread pool
  /// [level][thread sweep point], seconds (min over reps).
  double ab_threads_s[kNumLevels][4] = {};
  /// Every level's slowest parallel point within tolerance of serial.
  bool scaling_ok = true;
};

struct InsertKernelResult {
  uint64_t cells = 0;
  double scalar_s = 0;
  double batch_scalar_s = 0;  // InsertBatch, forced-scalar probe kernels
  double batch_s = 0;         // InsertBatch, detected SIMD level
};

DatasetResult MeasureDataset(EvalDataset& e) {
  DatasetResult r;
  r.name = e.data.name;
  r.rows = e.data.num_rows();

  util::Stopwatch table_timer;
  bitmap::BitmapTable table = bitmap::BitmapTable::Build(e.data);
  r.table_s = table_timer.ElapsedMillis() / 1000;

  util::Stopwatch wah_timer;
  wah::WahIndex wah_index = wah::WahIndex::Build(table);
  r.wah_s = wah_timer.ElapsedMillis() / 1000;

  util::ThreadPool pool(4);
  util::Stopwatch wah_par_timer;
  wah::WahIndex wah_par = wah::WahIndex::Build(table, &pool);
  r.wah_par_s = wah_par_timer.ElapsedMillis() / 1000;

  std::vector<const util::BitVector*> columns;
  for (uint32_t j = 0; j < table.num_columns(); ++j) {
    columns.push_back(&table.column(j));
  }
  util::Stopwatch bbc_timer;
  std::vector<bbc::BbcVector> bbc_serial =
      bbc::CompressColumnsParallel(columns, nullptr);
  r.bbc_s = bbc_timer.ElapsedMillis() / 1000;

  util::Stopwatch bbc_par_timer;
  std::vector<bbc::BbcVector> bbc_par =
      bbc::CompressColumnsParallel(columns, &pool);
  r.bbc_par_s = bbc_par_timer.ElapsedMillis() / 1000;

  ab::AbConfig cfg;
  cfg.alpha = e.paper_alpha;
  uint64_t keep = 0;
  // Reps are interleaved across the sweep (rep-outer, thread-inner) so
  // slow host drift — allocator state, frequency scaling, noisy
  // neighbours on shared machines — lands on every thread count alike
  // instead of biasing whichever point ran last; the min per point is
  // then comparable across the sweep.
  for (int rep = 0; rep < BuildReps(); ++rep) {
    for (size_t l = 0; l < kNumLevels; ++l) {
      cfg.level = kLevels[l];
      for (size_t t = 0; t < 4; ++t) {
        util::Stopwatch ab_timer;
        ab::AbIndex index =
            ab::AbIndex::BuildParallel(e.data, cfg, kThreadSweep[t]);
        double s = ab_timer.ElapsedMillis() / 1000;
        if (rep == 0 || s < r.ab_threads_s[l][t]) r.ab_threads_s[l][t] = s;
        keep += index.SizeInBytes();
      }
    }
  }
  for (const double* sweep : r.ab_threads_s) {
    r.scaling_ok = r.scaling_ok &&
                   *std::max_element(sweep + 1, sweep + 4) <=
                       sweep[0] * kScalingTolerance + kScalingSlackSeconds;
  }
  // Keep the results alive so builds aren't optimized away.
  if (wah_index.SizeInBytes() + wah_par.SizeInBytes() + bbc_serial.size() +
          bbc_par.size() + keep ==
      0) {
    std::printf("impossible\n");
  }
  return r;
}

InsertKernelResult MeasureInsertKernel() {
  // One multi-megabyte filter (DRAM-resident, where write prefetch pays)
  // populated with the same random cells through both insert paths.
  InsertKernelResult r;
  r.cells = 4'000'000 / DatasetScale();  // honours ABITMAP_BENCH_SCALE
  ab::AbParams params;
  params.n_bits = uint64_t{1} << 25;  // 4 MiB of filter
  params.k = 6;
  std::mt19937_64 rng(1234);
  std::vector<uint64_t> keys(r.cells);
  std::vector<hash::CellRef> cells(r.cells);
  for (uint64_t i = 0; i < r.cells; ++i) {
    keys[i] = rng();
    cells[i] = hash::CellRef{rng() % r.cells, static_cast<uint32_t>(i % 32)};
  }
  auto family = std::shared_ptr<const hash::HashFamily>(
      hash::MakeIndependentFamily());
  ab::ApproximateBitmap scalar(params, family);
  util::Stopwatch scalar_timer;
  for (uint64_t i = 0; i < r.cells; ++i) {
    scalar.Insert(keys[i], cells[i]);
  }
  r.scalar_s = scalar_timer.ElapsedMillis() / 1000;

  // The batched path twice: once with SIMD dispatch pinned to the portable
  // scalar kernels and once at the detected level. The delta isolates the
  // vectorized probe hashing from the batching/prefetching win above.
  util::simd::SimdLevel detected = util::simd::DetectedSimdLevel();
  ab::ApproximateBitmap batched_scalar(params, family);
  util::simd::SetSimdLevelForTesting(util::simd::SimdLevel::kScalar);
  util::Stopwatch batch_scalar_timer;
  batched_scalar.InsertBatch(keys.data(), cells.data(), r.cells);
  r.batch_scalar_s = batch_scalar_timer.ElapsedMillis() / 1000;

  ab::ApproximateBitmap batched(params, family);
  util::simd::SetSimdLevelForTesting(detected);
  util::Stopwatch batch_timer;
  batched.InsertBatch(keys.data(), cells.data(), r.cells);
  r.batch_s = batch_timer.ElapsedMillis() / 1000;

  AB_CHECK(scalar.bits() == batched_scalar.bits());
  AB_CHECK(scalar.bits() == batched.bits());
  return r;
}

void WriteJson(const std::vector<DatasetResult>& datasets,
               const InsertKernelResult& kernel) {
  JsonWriter w;
  w.BeginObject();
  w.Key("datasets");
  w.BeginArray();
  for (const DatasetResult& r : datasets) {
    w.BeginObject();
    w.Key("name"), w.String(r.name);
    w.Key("rows"), w.Uint(r.rows);
    w.Key("table_s"), w.Double(r.table_s);
    w.Key("wah_s"), w.Double(r.wah_s);
    w.Key("wah_pool4_s"), w.Double(r.wah_par_s);
    w.Key("bbc_s"), w.Double(r.bbc_s);
    w.Key("bbc_pool4_s"), w.Double(r.bbc_par_s);
    // Per level: the sweep's times, then serial-relative speedups (>1
    // means the sweep point beat t1). The scaling gate below covers
    // every level: a contention-free build may tie serial on a single
    // core but must never lose beyond tolerance.
    const char* labels[] = {"t1", "t2", "t4", "t8"};
    w.Key("ab_build_s");
    w.BeginObject();
    for (size_t l = 0; l < kNumLevels; ++l) {
      w.Key(ab::LevelName(kLevels[l]));
      w.BeginObject();
      for (size_t t = 0; t < 4; ++t) {
        w.Key(labels[t]), w.Double(r.ab_threads_s[l][t]);
      }
      w.EndObject();
    }
    w.EndObject();
    w.Key("ab_build_speedup");
    w.BeginObject();
    for (size_t l = 0; l < kNumLevels; ++l) {
      const double* sweep = r.ab_threads_s[l];
      w.Key(ab::LevelName(kLevels[l]));
      w.BeginObject();
      for (size_t t = 1; t < 4; ++t) {
        w.Key(labels[t]);
        w.Double(sweep[t] > 0 ? sweep[0] / sweep[t] : 0.0, 2);
      }
      w.EndObject();
    }
    w.EndObject();
    w.Key("scaling_ok"), w.Bool(r.scaling_ok);
    w.EndObject();
  }
  w.EndArray();
  // The sweep's requested thread counts are clamped to this many actual
  // workers (hardware concurrency): on a 1-core host every tN point runs
  // the serial path and the sweep can only measure "does not regress".
  w.Key("host_threads"), w.Uint(util::DefaultThreadCount());
  AppendSimdInfo(&w);
  w.Key("insert_kernel");
  w.BeginObject();
  w.Key("cells"), w.Uint(kernel.cells);
  w.Key("scalar_s"), w.Double(kernel.scalar_s);
  w.Key("batch_scalar_s"), w.Double(kernel.batch_scalar_s);
  w.Key("batch_s"), w.Double(kernel.batch_s);
  w.Key("batch_speedup");
  w.Double(kernel.batch_s > 0 ? kernel.scalar_s / kernel.batch_s : 0.0, 2);
  w.Key("simd_speedup");
  w.Double(kernel.batch_s > 0 ? kernel.batch_scalar_s / kernel.batch_s : 0.0,
           2);
  w.EndObject();
  w.EndObject();
  WriteJsonFile("BENCH_build.json", w.str());
}

void Run() {
  std::printf("host: %d hardware thread(s); sweep thread counts clamp here\n",
              util::DefaultThreadCount());
  PrintHeader("Index construction time (seconds)");
  std::printf("%-10s %12s %8s %8s %8s %8s %8s %8s\n", "Dataset", "rows",
              "table", "WAH", "WAH(4)", "BBC", "BBC(4)", "scaling");
  std::vector<DatasetResult> results;
  for (EvalDataset& e : AllDatasets()) {
    DatasetResult r = MeasureDataset(e);
    std::printf("%-10s %12s %8.2f %8.2f %8.2f %8.2f %8.2f %8s\n",
                r.name.c_str(), FormatBytes(r.rows).c_str(), r.table_s,
                r.wah_s, r.wah_par_s, r.bbc_s, r.bbc_par_s,
                r.scaling_ok ? "ok" : "FAIL");
    for (size_t l = 0; l < kNumLevels; ++l) {
      const double* sweep = r.ab_threads_s[l];
      std::printf("  AB %-13s  t1 %8.3f  t2 %8.3f  t4 %8.3f  t8 %8.3f\n",
                  ab::LevelName(kLevels[l]), sweep[0], sweep[1], sweep[2],
                  sweep[3]);
    }
    std::fflush(stdout);
    results.push_back(r);
  }

  PrintHeader("AB insert kernel: scalar vs batch-hashed (one 4 MiB filter)");
  InsertKernelResult kernel = MeasureInsertKernel();
  std::printf("%12s %14s %16s %12s %10s\n", "cells", "scalar(s)",
              "batch-scalar(s)", "batch(s)", "speedup");
  std::printf("%12llu %14.3f %16.3f %12.3f %9.2fx\n",
              static_cast<unsigned long long>(kernel.cells), kernel.scalar_s,
              kernel.batch_scalar_s, kernel.batch_s,
              kernel.batch_s > 0 ? kernel.scalar_s / kernel.batch_s : 0.0);

  WriteJson(results, kernel);
  std::printf(
      "\nResults written to BENCH_build.json.\n"
      "Note: sweep points clamp to the host's hardware threads, so a\n"
      "single-vCPU machine shows no parallel speedup; the parallel build\n"
      "is bit-identical to the serial result (tested). The batch-vs-scalar\n"
      "insert comparison is meaningful on any machine (it removes per-cell\n"
      "virtual dispatch and overlaps the filter's cache misses via write\n"
      "prefetch).\n");
}

}  // namespace
}  // namespace bench
}  // namespace abitmap

int main() {
  abitmap::bench::Run();
  return 0;
}
