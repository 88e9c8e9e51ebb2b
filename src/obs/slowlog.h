#ifndef ABITMAP_OBS_SLOWLOG_H_
#define ABITMAP_OBS_SLOWLOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/stats.h"

/// Bounded lock-free slow-query log (the retained half of request
/// tracing; span.h records phases, this records whole requests). The
/// serve frontend publishes one SlowQueryRecord for every completed
/// request whose end-to-end latency crosses SlowLogThresholdNs(); the
/// ring keeps the most recent kSlowLogCapacity of them and serves the
/// contents at /slow.json.
///
/// The ring is a SeqlockRing (obs/seqlock_ring.h), whose header states
/// the recording protocol. RecordSlowQuery() additionally publishes the
/// request's stage subtree (queue/batch/engine/verify spans under one
/// serve/slow_request parent) into the span ring so /traces.json shows
/// slow requests with their full breakdown.
///
/// Compile-out contract: with -DAB_DISABLE_STATS=ON, RecordSlowQuery()
/// and the snapshot APIs stay link-compatible; recording is a no-op and
/// SlowLogToJson() reports {"enabled": false}. The threshold accessors
/// keep working in both configurations (they are configuration, not
/// telemetry), so tools can set --slow-ms unconditionally.

namespace abitmap {
namespace obs {

/// One retained slow request. Plain trivially-copyable value struct:
/// the ring stores it as whole 64-bit words.
/// `path` points at static storage (the engine fills it with a string
/// literal).
struct SlowQueryRecord {
  uint64_t trace_id = 0;       ///< request trace id (client or minted)
  uint64_t request_id = 0;     ///< client-assigned request id
  uint32_t status = 0;         ///< serve::StatusCode numeric value
  uint32_t batch_size = 0;     ///< queries in the dispatched batch
  uint64_t mono_ns = 0;        ///< steady-clock timestamp at completion
  uint64_t total_ns = 0;       ///< admission to response rendered
  // --- stage breakdown (nanoseconds; see DESIGN.md §11) ---
  uint64_t decode_ns = 0;      ///< frame/JSON decode on the worker
  uint64_t queue_ns = 0;       ///< waiting in the batch-admission queue
  uint64_t batch_ns = 0;       ///< dispatcher pull to results done
  uint64_t engine_ns = 0;      ///< engine execution within the batch
  uint64_t verify_ns = 0;      ///< candidate verification within engine
  uint64_t serialize_ns = 0;   ///< response rendering (frame or JSON)
  // --- engine trace extract ---
  const char* path = "";       ///< "exact" (engine trace path)
  uint64_t candidates = 0;
  uint64_t verified_matches = 0;
  double observed_precision = -1.0;
};

/// Retained slow requests. A few dozen is enough to diagnose a tail;
/// 128 keeps the ring one page-ish of static memory.
inline constexpr size_t kSlowLogCapacity = 128;

/// Latency threshold for retention, nanoseconds. Requests with
/// total_ns >= threshold are recorded; 0 retains every request (useful
/// for tests and smoke checks). Default is 100 ms.
void SetSlowLogThresholdNs(uint64_t ns);
uint64_t SlowLogThresholdNs();

#if !defined(AB_DISABLE_STATS)

/// Publishes one record into the ring (caller has already applied the
/// threshold) and emits its stage subtree into the span ring.
void RecordSlowQuery(const SlowQueryRecord& record);

/// Ring contents, oldest first. Torn slots are skipped.
std::vector<SlowQueryRecord> SnapshotSlowLog();

/// Test-only reset; same quiescence caveats as ClearSpans().
void ClearSlowLog();

#else  // AB_DISABLE_STATS

inline void RecordSlowQuery(const SlowQueryRecord&) {}
inline std::vector<SlowQueryRecord> SnapshotSlowLog() { return {}; }
inline void ClearSlowLog() {}

#endif  // AB_DISABLE_STATS

/// JSON rendering of the ring for /slow.json:
///   {"enabled": true, "threshold_ns": N, "capacity": 128,
///    "records": [{...}, ...]}
/// Records are oldest first; every numeric stage field appears even when
/// zero so consumers can rely on the schema.
std::string SlowLogToJson();

}  // namespace obs
}  // namespace abitmap

#endif  // ABITMAP_OBS_SLOWLOG_H_
