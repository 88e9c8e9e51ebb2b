#ifndef ABITMAP_OBS_TIMESERIES_H_
#define ABITMAP_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/stats.h"

/// Time-series ring of periodic metric snapshots: the history half of the
/// obs layer. /metrics and /stats.json are point-in-time; dashboards and
/// `ab_stats --watch` want deltas and trends without external scraping
/// infrastructure, so a sampler (the serve frontend's telemetry ticker,
/// or the --watch loop) periodically distills the full StatsSnapshot
/// into one fixed-size TsSample and publishes it here. /timeseries.json
/// serves the retained window.
///
/// The ring is a SeqlockRing (obs/seqlock_ring.h), whose header states
/// the recording protocol.
///
/// Compile-out contract: with -DAB_DISABLE_STATS=ON the record/snapshot
/// APIs are link-compatible no-ops and TimeSeriesToJson() reports
/// {"enabled": false}.

namespace abitmap {
namespace obs {

/// One sample: cumulative counters distilled from a StatsSnapshot plus
/// point-in-time gauges the sampler fills from live engine state.
/// Consumers difference successive samples to get rates.
struct TsSample {
  uint64_t wall_ms = 0;   ///< system clock, milliseconds since epoch
  uint64_t mono_ns = 0;   ///< steady clock at sample time
  // --- cumulative counters (from SnapshotStats) ---
  uint64_t serve_requests = 0;
  uint64_t serve_bad_requests = 0;
  uint64_t serve_overload_rejected = 0;
  uint64_t serve_deadline_expired = 0;
  uint64_t serve_batches = 0;
  uint64_t engine_queries = 0;
  uint64_t engine_ingest_rows = 0;
  uint64_t engine_ingest_deletes = 0;
  // --- latency distribution (bucket upper bounds, microseconds) ---
  double request_p50_us = 0.0;
  double request_p99_us = 0.0;
  // --- ingest gauge (sampler-filled from the engine) ---
  uint64_t delta_live = 0;
};

/// Retained samples. At the default 1 s cadence this is ~8.5 minutes of
/// history in ~40 KiB of static memory.
inline constexpr size_t kTimeSeriesCapacity = 512;

/// Distills the counter/histogram half of a sample from a snapshot
/// (wall/mono timestamps and the gauge block are left for the caller).
/// Works in both configurations; stats-off snapshots are all zero.
TsSample TsSampleFromStats(const StatsSnapshot& snapshot);

#if !defined(AB_DISABLE_STATS)

/// Publishes one sample into the ring.
void RecordTimeSeriesSample(const TsSample& sample);

/// Ring contents, oldest first. Torn slots are skipped.
std::vector<TsSample> SnapshotTimeSeries();

/// Test-only reset; same quiescence caveats as ClearSpans().
void ClearTimeSeries();

#else  // AB_DISABLE_STATS

inline void RecordTimeSeriesSample(const TsSample&) {}
inline std::vector<TsSample> SnapshotTimeSeries() { return {}; }
inline void ClearTimeSeries() {}

#endif  // AB_DISABLE_STATS

/// JSON rendering for /timeseries.json:
///   {"enabled": true, "capacity": 512, "samples": [{...}, ...]}
/// Samples are oldest first with a stable, always-complete schema.
std::string TimeSeriesToJson();

}  // namespace obs
}  // namespace abitmap

#endif  // ABITMAP_OBS_TIMESERIES_H_
