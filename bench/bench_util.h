#ifndef ABITMAP_BENCH_BENCH_UTIL_H_
#define ABITMAP_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bitmap/bitmap_table.h"
#include "bitmap/schema.h"
#include "core/ab_index.h"
#include "data/generators.h"
#include "data/metrics.h"
#include "data/query_gen.h"
#include "wah/wah_query.h"

namespace abitmap {
namespace bench {

/// Scale divisor for the evaluation datasets. 1 reproduces the paper's
/// sizes exactly; the ABITMAP_BENCH_SCALE environment variable can raise it
/// for quick smoke runs (e.g. 10 or 100).
uint64_t DatasetScale();

/// One evaluation dataset plus its paper parameters (Section 6.1 chose the
/// largest alpha whose AB stays below/comparable to the WAH size).
struct EvalDataset {
  bitmap::BinnedDataset data;
  /// The alpha Section 6 uses for this dataset's timing/precision plots.
  double paper_alpha = 8;
};

/// The three Table 3 datasets at the current scale.
EvalDataset MakeUniform();
EvalDataset MakeLandsat();
EvalDataset MakeHep();
std::vector<EvalDataset> AllDatasets();

/// The paper's query workload for one dataset: 100 queries, qdim = 2,
/// 4 bins per attribute, `rows` rows each (Section 5.4).
std::vector<bitmap::BitmapQuery> PaperWorkload(
    const bitmap::BinnedDataset& dataset, uint64_t rows, uint64_t seed = 7);

/// The row-count sweep of Figures 11(c) and 14 (clamped to the dataset).
std::vector<uint64_t> RowSweep(uint64_t num_rows);

/// Runs the workload against ground truth + AB, returning aggregate
/// accuracy. The exact side is computed with the uncompressed table.
data::BatchAccuracy MeasureAccuracy(
    const bitmap::BitmapTable& table, const ab::AbIndex& index,
    const std::vector<bitmap::BitmapQuery>& queries);

/// Average per-query wall time (milliseconds) of AB evaluation.
double TimeAbEvaluate(const ab::AbIndex& index,
                      const std::vector<bitmap::BitmapQuery>& queries);

/// Average per-query wall time (milliseconds) of the WAH bit-wise phase
/// (what the paper times for WAH) and of the full row-filtered answer.
struct WahTimes {
  double bitwise_ms = 0;
  double full_ms = 0;
};
WahTimes TimeWah(const wah::WahIndex& index,
                 const std::vector<bitmap::BitmapQuery>& queries);

/// Formats a byte count with thousands separators, as the paper's tables
/// print sizes.
std::string FormatBytes(uint64_t bytes);

/// One-line description of the SIMD dispatch state, e.g.
/// "simd: detected=avx2 active=avx2". Benchmarks print it (to stderr when
/// stdout is piped as JSON) and record both levels in their JSON output.
std::string SimdBannerLine();

/// One-line summary of the observability layer's current snapshot, e.g.
/// "stats: enabled cells_tested=84125 short_circuited=86.1% queries=10"
/// — or "stats: compiled out (AB_DISABLE_STATS)" in a stats-off build.
/// Benchmarks print it after their workload so the probe accounting
/// reflects the run.
std::string StatsBannerLine();

/// Prints a horizontal rule + centered title for table output.
void PrintHeader(const std::string& title);

/// Minimal streaming JSON emitter shared by the benchmark executables —
/// one writer so BENCH_build.json and BENCH_query.json stay structurally
/// consistent (comma placement, number formatting, the common "simd"
/// stanza) instead of each bench hand-rolling fprintf templates.
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("rows"); w.Uint(n);
///   w.Key("datasets"); w.BeginArray(); ... w.EndArray();
///   w.EndObject();
///   WriteJsonFile("BENCH_foo.json", w.str());
///
/// Keys and values must alternate inside objects; the writer tracks
/// nesting itself and inserts commas. Output is valid JSON with light
/// newline formatting (one line per object entry at the top two levels).
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(const char* name);
  void String(const std::string& v);
  void Uint(uint64_t v);
  void Double(double v, int precision = 4);
  void Bool(bool v);
  const std::string& str() const { return out_; }

 private:
  /// Comma/newline bookkeeping before a value or key.
  void Prefix(bool is_key);

  std::string out_;
  std::vector<bool> first_;  ///< per nesting level: no entry emitted yet
  bool after_key_ = false;
};

/// Appends the common `"simd": {"detected": ..., "active": ...}` entry.
void AppendSimdInfo(JsonWriter* writer);

/// Median, min and max of repeated measurements of one quantity.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};
Spread SpreadOf(std::vector<double> values);

/// Appends `"name": {"median": ..., "min": ..., "max": ...}`.
void AppendSpread(JsonWriter* writer, const char* name, const Spread& spread,
                  int precision = 4);

/// `git describe --always --dirty` of the working directory, so a JSON
/// record names the source it was measured on ("unknown" outside a
/// checkout).
std::string SourceId();

/// Writes `content` to `path`, printing a warning to stderr on failure.
/// Returns true on success.
bool WriteJsonFile(const std::string& path, const std::string& content);

}  // namespace bench
}  // namespace abitmap

#endif  // ABITMAP_BENCH_BENCH_UTIL_H_
