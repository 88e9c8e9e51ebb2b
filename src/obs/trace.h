#ifndef ABITMAP_OBS_TRACE_H_
#define ABITMAP_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

namespace abitmap {
namespace obs {

/// Process-unique, nonzero request trace ids. Minted by the serve layer
/// for requests that arrive without a client-supplied `trace_id`; part of
/// the wire protocol (request identity), so it exists in both stats
/// configurations — identity is protocol, telemetry is optional.
inline uint64_t NextTraceId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Per-query trace record (the PerfContext to stats.h's Statistics): one
/// query's execution profile, filled by the AbIndex evaluation kernels
/// and — when the query runs through HybridEngine — the routing and
/// verification layers. A plain value struct: callers own it, there is
/// no global trace state, and filling one costs a few stores per query
/// plus one atomic accumulation per parallel chunk.
///
/// Probe-level fields (cells_probed, probe_windows, rows_*) are
/// accumulated by the batched kernel and stay zero in an
/// -DAB_DISABLE_STATS=ON build, where kernel accounting is compiled
/// out; routing/precision fields are always filled.
struct QueryTrace {
  // --- evaluation shape (AbIndex) ---
  uint64_t rows_evaluated = 0;
  uint64_t cells_probed = 0;        ///< (row, bin) membership tests issued
  uint64_t probe_windows = 0;       ///< TestBatchMask windows
  uint64_t rows_matched = 0;        ///< rows reported 1
  uint64_t rows_short_circuited = 0;///< rows rejected before the plan end
  uint64_t attrs_in_plan = 0;
  // --- engine verification ---
  uint64_t candidates = 0;          ///< rows the index reported 1
  uint64_t verified_matches = 0;    ///< candidates surviving raw pruning
  /// Raw values the verify read. On the base, one per predicate for each
  /// row still in the fine answer that lies in one of the predicate's edge
  /// sub-bins (a row that fails is not read again for later predicates;
  /// a row a subset requests twice is read once). On the ingest delta, one
  /// per predicate for each candidate. Deterministic for a fixed table and
  /// query, in both stats configurations.
  uint64_t raw_reads = 0;
  // --- model check (Paper Section 4) ---
  double predicted_precision = 1.0; ///< ab_theory-based estimate
  double observed_precision = -1.0; ///< verified/candidates; < 0 unknown
  // --- environment ---
  const char* simd_level = "";      ///< active dispatch level name
  const char* path = "";            ///< "exact" for engine queries
  double latency_ms = 0.0;
  /// Wall time spent verifying candidates against raw values, in
  /// nanoseconds. Filled by the engine's collect path in both stats
  /// configurations (it is a per-result timing, not a global counter).
  uint64_t verify_ns = 0;

  /// Single-line JSON rendering (diagnostics, ab_stats --trace).
  std::string ToJson() const {
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "{\"path\": \"%s\", \"simd\": \"%s\", "
        "\"latency_ms\": %.4f, "
        "\"rows_evaluated\": %llu, \"cells_probed\": %llu, "
        "\"probe_windows\": %llu, \"rows_matched\": %llu, "
        "\"rows_short_circuited\": %llu, \"attrs_in_plan\": %llu, "
        "\"candidates\": %llu, \"verified_matches\": %llu, "
        "\"raw_reads\": %llu, \"verify_ns\": %llu, "
        "\"predicted_precision\": %.6f, \"observed_precision\": %.6f}",
        path, simd_level, latency_ms,
        static_cast<unsigned long long>(rows_evaluated),
        static_cast<unsigned long long>(cells_probed),
        static_cast<unsigned long long>(probe_windows),
        static_cast<unsigned long long>(rows_matched),
        static_cast<unsigned long long>(rows_short_circuited),
        static_cast<unsigned long long>(attrs_in_plan),
        static_cast<unsigned long long>(candidates),
        static_cast<unsigned long long>(verified_matches),
        static_cast<unsigned long long>(raw_reads),
        static_cast<unsigned long long>(verify_ns),
        predicted_precision, observed_precision);
    return std::string(buf);
  }
};

}  // namespace obs
}  // namespace abitmap

#endif  // ABITMAP_OBS_TRACE_H_
