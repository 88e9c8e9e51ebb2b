#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/stats.h"
#include "util/logging.h"
#include "util/simd.h"
#include "util/stopwatch.h"

namespace abitmap {
namespace bench {

uint64_t DatasetScale() {
  const char* env = std::getenv("ABITMAP_BENCH_SCALE");
  if (env == nullptr) return 1;
  long long v = std::atoll(env);
  return v >= 1 ? static_cast<uint64_t>(v) : 1;
}

EvalDataset MakeUniform() {
  return EvalDataset{data::MakeUniformDataset(42, DatasetScale()),
                     /*paper_alpha=*/16};
}

EvalDataset MakeLandsat() {
  return EvalDataset{data::MakeLandsatDataset(43, DatasetScale()),
                     /*paper_alpha=*/8};
}

EvalDataset MakeHep() {
  return EvalDataset{data::MakeHepDataset(44, DatasetScale()),
                     /*paper_alpha=*/8};
}

std::vector<EvalDataset> AllDatasets() {
  std::vector<EvalDataset> out;
  out.push_back(MakeUniform());
  out.push_back(MakeLandsat());
  out.push_back(MakeHep());
  return out;
}

std::vector<bitmap::BitmapQuery> PaperWorkload(
    const bitmap::BinnedDataset& dataset, uint64_t rows, uint64_t seed) {
  data::QueryGenParams params;
  params.num_queries = 100;
  params.qdim = 2;
  params.bins_per_attr = 4;
  params.rows_queried = rows;
  params.seed = seed;
  return data::GenerateQueries(dataset, params);
}

std::vector<uint64_t> RowSweep(uint64_t num_rows) {
  std::vector<uint64_t> sweep;
  for (uint64_t rows : {100ull, 500ull, 1000ull, 5000ull, 10000ull}) {
    if (rows <= num_rows) sweep.push_back(rows);
  }
  if (sweep.empty()) sweep.push_back(num_rows);
  return sweep;
}

data::BatchAccuracy MeasureAccuracy(
    const bitmap::BitmapTable& table, const ab::AbIndex& index,
    const std::vector<bitmap::BitmapQuery>& queries) {
  data::BatchAccuracy batch;
  for (const bitmap::BitmapQuery& q : queries) {
    data::QueryAccuracy acc =
        data::CompareResults(table.Evaluate(q), index.Evaluate(q));
    AB_CHECK_EQ(acc.false_negatives, 0u);  // the AB's core guarantee
    batch.Add(acc);
  }
  return batch;
}

double TimeAbEvaluate(const ab::AbIndex& index,
                      const std::vector<bitmap::BitmapQuery>& queries) {
  // Warm-up pass keeps first-touch page faults out of the measurement.
  uint64_t sink = 0;
  for (const bitmap::BitmapQuery& q : queries) {
    sink += index.Evaluate(q).size();
  }
  util::Stopwatch timer;
  for (const bitmap::BitmapQuery& q : queries) {
    sink += index.Evaluate(q)[0];
  }
  double total = timer.ElapsedMillis();
  if (sink == 0xFFFFFFFF) std::printf(" ");  // defeat dead-code elimination
  return total / queries.size();
}

WahTimes TimeWah(const wah::WahIndex& index,
                 const std::vector<bitmap::BitmapQuery>& queries) {
  WahTimes times;
  uint64_t sink = 0;
  for (const bitmap::BitmapQuery& q : queries) {
    sink += index.ExecuteBitwise(q).NumWords();
  }
  util::Stopwatch bitwise;
  for (const bitmap::BitmapQuery& q : queries) {
    sink += index.ExecuteBitwise(q).NumWords();
  }
  times.bitwise_ms = bitwise.ElapsedMillis() / queries.size();

  util::Stopwatch full;
  for (const bitmap::BitmapQuery& q : queries) {
    sink += index.Evaluate(q).size();
  }
  times.full_ms = full.ElapsedMillis() / queries.size();
  if (sink == 0xFFFFFFFF) std::printf(" ");
  return times;
}

std::string FormatBytes(uint64_t bytes) {
  std::string digits = std::to_string(bytes);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

void PrintHeader(const std::string& title) {
  // Every bench states the dispatch level its numbers were measured at —
  // and whether the observability layer is compiled in — once, above its
  // first table.
  static bool printed_simd = false;
  if (!printed_simd) {
    printed_simd = true;
    std::printf("%s\n", SimdBannerLine().c_str());
    std::printf("%s\n", obs::kStatsEnabled
                            ? "stats: enabled"
                            : "stats: compiled out (AB_DISABLE_STATS)");
  }
  std::printf("\n==== %s ====\n", title.c_str());
}

std::string SimdBannerLine() {
  std::string line = "simd: detected=";
  line += util::simd::SimdLevelName(util::simd::DetectedSimdLevel());
  line += " active=";
  line += util::simd::SimdLevelName(util::simd::ActiveSimdLevel());
  return line;
}

void JsonWriter::Prefix(bool is_key) {
  if (after_key_) {
    // Value directly after its key: no comma, the key already emitted ": ".
    after_key_ = false;
    return;
  }
  if (first_.empty()) return;  // the root value
  if (!first_.back()) {
    out_ += ",";
    // Newlines at the top two levels keep the checked-in files diffable.
    out_ += first_.size() <= 2 ? "\n" : " ";
    if (first_.size() == 2) out_ += "  ";
  }
  first_.back() = false;
  (void)is_key;
}

void JsonWriter::BeginObject() {
  Prefix(false);
  out_ += "{";
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  first_.pop_back();
  out_ += "}";
  if (first_.empty()) out_ += "\n";
}

void JsonWriter::BeginArray() {
  Prefix(false);
  out_ += "[";
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  first_.pop_back();
  out_ += "]";
}

void JsonWriter::Key(const char* name) {
  Prefix(true);
  out_ += "\"";
  out_ += name;
  out_ += "\": ";
  after_key_ = true;
}

void JsonWriter::String(const std::string& v) {
  Prefix(false);
  out_ += "\"";
  out_ += v;  // bench payloads carry no characters needing escapes
  out_ += "\"";
}

void JsonWriter::Uint(uint64_t v) {
  Prefix(false);
  out_ += std::to_string(v);
}

void JsonWriter::Double(double v, int precision) {
  Prefix(false);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  out_ += buf;
}

void JsonWriter::Bool(bool v) {
  Prefix(false);
  out_ += v ? "true" : "false";
}

void AppendSimdInfo(JsonWriter* writer) {
  writer->Key("simd");
  writer->BeginObject();
  writer->Key("detected");
  writer->String(util::simd::SimdLevelName(util::simd::DetectedSimdLevel()));
  writer->Key("active");
  writer->String(util::simd::SimdLevelName(util::simd::ActiveSimdLevel()));
  writer->EndObject();
}

Spread SpreadOf(std::vector<double> values) {
  AB_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  return Spread{values[values.size() / 2], values.front(), values.back()};
}

void AppendSpread(JsonWriter* writer, const char* name, const Spread& spread,
                  int precision) {
  writer->Key(name);
  writer->BeginObject();
  writer->Key("median");
  writer->Double(spread.median, precision);
  writer->Key("min");
  writer->Double(spread.min, precision);
  writer->Key("max");
  writer->Double(spread.max, precision);
  writer->EndObject();
}

std::string SourceId() {
  std::string out;
  if (std::FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

bool WriteJsonFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

std::string StatsBannerLine() {
  if (!obs::kStatsEnabled) return "stats: compiled out (AB_DISABLE_STATS)";
  obs::StatsSnapshot s = obs::SnapshotStats();
  uint64_t tested = s.counter(obs::Counter::kAbCellsTested);
  uint64_t resolved = s.counter(obs::Counter::kAbProbesResolved);
  uint64_t skipped = s.counter(obs::Counter::kAbProbesShortCircuited);
  double skipped_pct =
      resolved + skipped == 0
          ? 0.0
          : 100.0 * static_cast<double>(skipped) /
                static_cast<double>(resolved + skipped);
  char buf[192];
  std::snprintf(
      buf, sizeof(buf),
      "stats: enabled cells_tested=%llu short_circuited=%.1f%% "
      "queries=%llu pool_tasks=%llu",
      static_cast<unsigned long long>(tested), skipped_pct,
      static_cast<unsigned long long>(
          s.counter(obs::Counter::kIndexQueries)),
      static_cast<unsigned long long>(
          s.counter(obs::Counter::kPoolTasksCompleted)));
  return std::string(buf);
}

}  // namespace bench
}  // namespace abitmap
