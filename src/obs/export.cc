#include "obs/export.h"

#include <cinttypes>

#include "obs/appendf.h"
#include "util/simd.h"

#if !defined(AB_VERSION_STRING)
#define AB_VERSION_STRING "0.0.0"
#endif

namespace abitmap {
namespace obs {

using internal::Appendf;

namespace {

/// One-line # HELP text per counter, indexed like kCounterNames. Kept
/// next to the exporter because only the Prometheus rendering uses it.
const char* const kCounterHelp[kNumCounters] = {
    "Membership tests issued to ApproximateBitmap filters",
    "Cells inserted into ApproximateBitmap filters",
    "Probe positions hashed and read by membership tests",
    "Probes skipped by per-cell early exit",
    "TestBatchMask windows processed",
    "AbIndex query evaluations",
    "Rows pushed through AbIndex evaluations",
    "Rows an AbIndex evaluation reported as candidates",
    "(row, bin) membership tests issued by evaluations",
    "Queries answered by the scalar evaluation path",
    "Queries answered by the batched kernel",
    "Queries answered by the pooled kernel",
    "Serial AbIndex builds completed",
    "Pool-parallel AbIndex builds completed",
    "Rows inserted by AbIndex builds",
    "Rows added by AbIndex::AppendRows",
    "Shard-merge words actually ORed",
    "Shard-merge words skipped as untouched",
    "HybridEngine queries executed",
    "Queries the engine ran on the exact index",
    "Candidate rows the chosen index reported",
    "Candidates surviving raw-value verification",
    "Candidates pruned as false positives (exact mode)",
    "Tasks submitted to util::ThreadPool",
    "Tasks completed by util::ThreadPool workers",
    "Connections accepted by the serve frontend",
    "Query requests parsed off the wire by the serve frontend",
    "Malformed requests rejected with 400/error frames",
    "Requests rejected by admission-backlog backpressure (503)",
    "Requests whose deadline expired before execution",
    "Query executions (run to completion, one query each)",
    "Queries executed",
    "Rows ingested through HybridEngine::IngestRow",
    "Rows tombstoned through HybridEngine::DeleteRow",
    "Query matches served from the ingested rows",
    "Rows accepted by POST /insert",
};

const char* const kHistogramHelp[kNumHistograms] = {
    "HybridEngine::Execute wall time in nanoseconds",
    "AbIndex evaluation wall time in nanoseconds",
    "AbIndex build wall time in nanoseconds",
    "Candidate verification wall time in nanoseconds",
    "Per-task execution time on a pool worker in nanoseconds",
    "Thread-pool queue length observed at Submit",
    "Rows per AbIndex evaluation",
    "Cells per worker shard in private-shard builds",
    "Serve request wall time from admission to rendered response in nanoseconds",
    "Serve request wait from admission to execution start in nanoseconds",
    "Serve request frame/JSON decode wall time in nanoseconds",
    "Serve response rendering wall time in nanoseconds",
    "Serve response socket-flush wall time in nanoseconds",
};

/// Index one past the last non-empty bucket (0 when all empty).
size_t TrimmedBuckets(const HistogramSnapshot& h) {
  size_t end = kNumHistogramBuckets;
  while (end > 0 && h.buckets[end - 1] == 0) --end;
  return end;
}

/// Upper bound of bucket b as a printable value ("0", "1", "3", ...).
uint64_t BucketUpper(size_t b) {
  return b == 0 ? 0 : (b >= 64 ? ~uint64_t{0} : (uint64_t{1} << b) - 1);
}

}  // namespace

std::string ToJson(const StatsSnapshot& snapshot) {
  std::string out = "{\n";
  Appendf(&out, "  \"enabled\": %s,\n", kStatsEnabled ? "true" : "false");
  out += "  \"counters\": {\n";
  for (size_t i = 0; i < kNumCounters; ++i) {
    Appendf(&out, "    \"%s\": %" PRIu64 "%s\n",
            CounterName(static_cast<Counter>(i)), snapshot.counters[i],
            i + 1 < kNumCounters ? "," : "");
  }
  out += "  },\n  \"histograms\": {\n";
  for (size_t h = 0; h < kNumHistograms; ++h) {
    const HistogramSnapshot& hist = snapshot.histograms[h];
    Appendf(&out,
            "    \"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
            ", \"mean\": %.2f, \"p50\": %" PRIu64 ", \"p99\": %" PRIu64
            ", \"buckets\": [",
            HistogramName(static_cast<Histogram>(h)), hist.count, hist.sum,
            hist.Mean(), hist.PercentileUpperBound(0.50),
            hist.PercentileUpperBound(0.99));
    size_t end = TrimmedBuckets(hist);
    for (size_t b = 0; b < end; ++b) {
      Appendf(&out, "%" PRIu64 "%s", hist.buckets[b],
              b + 1 < end ? ", " : "");
    }
    Appendf(&out, "]}%s\n", h + 1 < kNumHistograms ? "," : "");
  }
  out += "  }\n}\n";
  return out;
}

std::string ToPrometheus(const StatsSnapshot& snapshot) {
  std::string out;
  // Build/runtime metadata first, in the info-metric idiom: the value is
  // always 1, the payload is the labels. The `stats` label distinguishes
  // a live exporter from an -DAB_DISABLE_STATS=ON build whose series are
  // all legitimately zero.
  out += "# HELP abitmap_build_info Build and runtime metadata "
         "(value is always 1).\n";
  out += "# TYPE abitmap_build_info gauge\n";
  Appendf(&out,
          "abitmap_build_info{version=\"%s\",simd=\"%s\",stats=\"%s\"} 1\n",
          AB_VERSION_STRING,
          util::simd::SimdLevelName(util::simd::ActiveSimdLevel()),
          kStatsEnabled ? "on" : "off");
  for (size_t i = 0; i < kNumCounters; ++i) {
    const char* name = CounterName(static_cast<Counter>(i));
    Appendf(&out, "# HELP abitmap_%s %s.\n", name, kCounterHelp[i]);
    Appendf(&out, "# TYPE abitmap_%s counter\n", name);
    Appendf(&out, "abitmap_%s %" PRIu64 "\n", name, snapshot.counters[i]);
  }
  for (size_t h = 0; h < kNumHistograms; ++h) {
    const char* name = HistogramName(static_cast<Histogram>(h));
    const HistogramSnapshot& hist = snapshot.histograms[h];
    Appendf(&out, "# HELP abitmap_%s %s.\n", name, kHistogramHelp[h]);
    Appendf(&out, "# TYPE abitmap_%s histogram\n", name);
    uint64_t cumulative = 0;
    size_t end = TrimmedBuckets(hist);
    for (size_t b = 0; b < end; ++b) {
      cumulative += hist.buckets[b];
      Appendf(&out, "abitmap_%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
              name, BucketUpper(b), cumulative);
    }
    Appendf(&out, "abitmap_%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name,
            hist.count);
    Appendf(&out, "abitmap_%s_sum %" PRIu64 "\n", name, hist.sum);
    Appendf(&out, "abitmap_%s_count %" PRIu64 "\n", name, hist.count);
  }
  return out;
}

std::string ToText(const StatsSnapshot& snapshot) {
  std::string out;
  if (!kStatsEnabled) {
    return "stats: compiled out (AB_DISABLE_STATS)\n";
  }
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (snapshot.counters[i] == 0) continue;
    Appendf(&out, "%-28s %12" PRIu64 "\n",
            CounterName(static_cast<Counter>(i)), snapshot.counters[i]);
  }
  for (size_t h = 0; h < kNumHistograms; ++h) {
    const HistogramSnapshot& hist = snapshot.histograms[h];
    if (hist.count == 0) continue;
    Appendf(&out,
            "%-28s count=%" PRIu64 " mean=%.1f p50<=%" PRIu64
            " p99<=%" PRIu64 "\n",
            HistogramName(static_cast<Histogram>(h)), hist.count,
            hist.Mean(), hist.PercentileUpperBound(0.50),
            hist.PercentileUpperBound(0.99));
  }
  if (out.empty()) out = "stats: no activity recorded\n";
  return out;
}

}  // namespace obs
}  // namespace abitmap
