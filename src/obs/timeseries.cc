#include "obs/timeseries.h"

#include <cinttypes>

#include "obs/appendf.h"
#include "obs/seqlock_ring.h"

namespace abitmap {
namespace obs {

using internal::Appendf;

TsSample TsSampleFromStats(const StatsSnapshot& snapshot) {
  TsSample s;
  s.serve_requests = snapshot.counter(Counter::kServeRequests);
  s.serve_bad_requests = snapshot.counter(Counter::kServeBadRequests);
  s.serve_overload_rejected =
      snapshot.counter(Counter::kServeOverloadRejected);
  s.serve_deadline_expired =
      snapshot.counter(Counter::kServeDeadlineExpired);
  s.serve_batches = snapshot.counter(Counter::kServeBatches);
  s.engine_queries = snapshot.counter(Counter::kEngineQueries);
  s.engine_ingest_rows = snapshot.counter(Counter::kEngineIngestRows);
  s.engine_ingest_deletes = snapshot.counter(Counter::kEngineIngestDeletes);
  const HistogramSnapshot& lat =
      snapshot.histogram(Histogram::kServeRequestLatencyNs);
  s.request_p50_us =
      static_cast<double>(lat.PercentileUpperBound(0.50)) / 1000.0;
  s.request_p99_us =
      static_cast<double>(lat.PercentileUpperBound(0.99)) / 1000.0;
  return s;
}

#if !defined(AB_DISABLE_STATS)

using TimeSeriesRing = SeqlockRing<TsSample, kTimeSeriesCapacity>;

void RecordTimeSeriesSample(const TsSample& sample) {
  TimeSeriesRing::Instance().Publish(sample);
}

std::vector<TsSample> SnapshotTimeSeries() {
  return TimeSeriesRing::Instance().Snapshot();
}

void ClearTimeSeries() { TimeSeriesRing::Instance().Clear(); }

#endif  // !AB_DISABLE_STATS

std::string TimeSeriesToJson() {
  std::string out = "{\n";
  Appendf(&out, "  \"enabled\": %s,\n", kStatsEnabled ? "true" : "false");
  Appendf(&out, "  \"capacity\": %zu,\n", kTimeSeriesCapacity);
  out += "  \"samples\": [";
  std::vector<TsSample> samples = SnapshotTimeSeries();
  for (size_t i = 0; i < samples.size(); ++i) {
    const TsSample& s = samples[i];
    Appendf(&out,
            "%s\n    {\"wall_ms\": %" PRIu64 ", \"mono_ns\": %" PRIu64
            ", \"serve_requests\": %" PRIu64
            ", \"serve_bad_requests\": %" PRIu64
            ", \"serve_overload_rejected\": %" PRIu64
            ", \"serve_deadline_expired\": %" PRIu64
            ", \"serve_batches\": %" PRIu64 ", \"engine_queries\": %" PRIu64
            ", \"engine_ingest_rows\": %" PRIu64
            ", \"engine_ingest_deletes\": %" PRIu64,
            i == 0 ? "" : ",", s.wall_ms, s.mono_ns, s.serve_requests,
            s.serve_bad_requests, s.serve_overload_rejected,
            s.serve_deadline_expired, s.serve_batches, s.engine_queries,
            s.engine_ingest_rows, s.engine_ingest_deletes);
    Appendf(&out,
            ", \"request_p50_us\": %.1f, \"request_p99_us\": %.1f"
            ", \"delta_live\": %" PRIu64 "}",
            s.request_p50_us, s.request_p99_us, s.delta_live);
  }
  out += samples.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace obs
}  // namespace abitmap
