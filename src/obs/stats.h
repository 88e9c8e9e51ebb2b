#ifndef ABITMAP_OBS_STATS_H_
#define ABITMAP_OBS_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

/// Low-overhead observability layer (RocksDB Statistics / FastBit query
/// statistics pattern): a fixed taxonomy of monotonic counters plus
/// power-of-two latency/size histograms, recorded into per-thread blocks
/// and aggregated on demand into a StatsSnapshot.
///
/// Recording contract:
///  * Increments are lock-free and contention-free. Each thread owns a
///    cache-line-aligned block of relaxed atomics; the owner is the only
///    writer, so an increment is a relaxed load + add + relaxed store
///    (no RMW, no shared cache line). Snapshots read other threads'
///    blocks with relaxed loads — formally race-free, TSan-clean.
///  * Hot kernels aggregate locally and publish once per call/window, so
///    the per-probe cost of the layer is zero and the per-call cost is a
///    handful of thread-local stores.
///  * Blocks of exited threads are flushed into a retired accumulator and
///    recycled, so totals survive thread churn (one pool per query is
///    fine) and memory stays bounded by the peak live thread count.
///
/// Compile-out contract: building with -DAB_DISABLE_STATS=ON reduces
/// every AB_STATS_* macro to `((void)0)` — the arguments are not
/// evaluated, not even compiled — and ScopedLatencyTimer to an empty
/// struct. The snapshot/export API remains link-compatible and returns
/// zeroed data, so tools build in both configurations. The zero-overhead
/// test (tests/obs/stats_test.cc) asserts both halves of this contract.

namespace abitmap {
namespace obs {

#if defined(AB_DISABLE_STATS)
inline constexpr bool kStatsEnabled = false;
#else
inline constexpr bool kStatsEnabled = true;
#endif

/// Counter taxonomy. Grouped by layer: filter probe/insert kernels,
/// index evaluation/build, engine routing/verification, thread pool.
/// Names for export come from CounterName() (snake_case, stable).
enum class Counter : uint32_t {
  // --- ApproximateBitmap probe/insert kernels ---
  kAbCellsTested = 0,      ///< membership tests (scalar + batched)
  kAbCellsInserted,        ///< cells inserted (scalar + batched + shards)
  kAbProbesResolved,       ///< probe positions hashed/read by tests
  kAbProbesShortCircuited, ///< k*cells - resolved: early-exit savings
  kAbBatchWindows,         ///< TestBatchMask windows processed
  // --- AbIndex query evaluation ---
  kIndexQueries,           ///< Evaluate/EvaluateBatched/Parallel calls
  kIndexRowsEvaluated,     ///< rows pushed through an evaluation
  kIndexRowsMatched,       ///< rows reported 1 (candidate rows)
  kIndexCellsProbed,       ///< (row, bin) membership tests issued
  kIndexEvalScalar,        ///< queries answered by the scalar path
  kIndexEvalBatched,       ///< queries answered by the batched kernel
  kIndexEvalParallel,      ///< queries answered by the pooled kernel
  // --- AbIndex build pipeline ---
  kIndexBuilds,            ///< serial builds completed
  kIndexBuildsParallel,    ///< pool builds completed
  kIndexRowsIndexed,       ///< rows inserted by builds
  kIndexRowsAppended,      ///< rows added by AppendRows
  kBuildMergeWordsOred,    ///< shard-merge words actually ORed
  kBuildMergeWordsSkipped, ///< shard-merge words skipped as untouched
  // --- HybridEngine execution / verification ---
  kEngineQueries,
  kEngineExactRouted,      ///< base-index executions
  kEngineCandidates,       ///< rows the chosen index reported 1
  kEngineVerified,         ///< candidates surviving raw-value pruning
  kEngineFalsePositives,   ///< candidates - verified (exact mode only)
  // --- util::ThreadPool ---
  kPoolTasksSubmitted,
  kPoolTasksCompleted,
  // --- serve frontend (serve/server + serve/query_service) ---
  kServeConnsAccepted,     ///< connections accepted by the frontend
  kServeRequests,          ///< query requests parsed off the wire
  kServeBadRequests,       ///< malformed frames/JSON/predicates rejected
  kServeOverloadRejected,  ///< requests bounced by backlog backpressure
  kServeDeadlineExpired,   ///< requests whose deadline lapsed in backlog
  kServeBatches,           ///< executions (each runs one query)
  kServeBatchQueries,      ///< queries executed
  // --- HybridEngine streaming ingest ---
  kEngineIngestRows,       ///< rows ingested through IngestRow
  kEngineIngestDeletes,    ///< rows tombstoned through DeleteRow
  kEngineDeltaMatches,     ///< verified matches served from the delta
  kServeInserts,           ///< rows accepted by POST /insert
  kNumCounters,
};

inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kNumCounters);

/// Histogram taxonomy. All values are non-negative integers; latencies
/// are nanoseconds, depths/sizes are plain counts.
enum class Histogram : uint32_t {
  kQueryLatencyNs = 0,   ///< HybridEngine::Execute wall time
  kEvalLatencyNs,        ///< AbIndex evaluation wall time
  kBuildLatencyNs,       ///< AbIndex build wall time
  kVerifyLatencyNs,      ///< engine candidate-verification wall time
  kPoolTaskLatencyNs,    ///< per-task execution time on a pool worker
  kPoolQueueDepth,       ///< queue length observed at Submit
  kEvalRowsPerQuery,     ///< rows per index evaluation
  kBuildShardCells,      ///< cells per worker shard (build imbalance)
  kServeRequestLatencyNs,///< serve: admission to response rendered
  kServeQueueWaitNs,     ///< serve: admission to execution start
  kServeDecodeNs,        ///< serve: frame/JSON decode time on the worker
  kServeSerializeNs,     ///< serve: response rendering time
  kServeFlushNs,         ///< serve: response socket-flush time
  kNumHistograms,
};

inline constexpr size_t kNumHistograms =
    static_cast<size_t>(Histogram::kNumHistograms);

/// Power-of-two bucketing: value v lands in bucket bit_width(v), i.e.
/// bucket 0 holds {0} and bucket b >= 1 holds [2^(b-1), 2^b - 1].
inline constexpr size_t kNumHistogramBuckets = 65;

/// Export names (snake_case, no prefix; the Prometheus exporter adds
/// "abitmap_"). Defined for all configurations — data tables only.
const char* CounterName(Counter c);
const char* HistogramName(Histogram h);

/// Aggregated view of one histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t buckets[kNumHistogramBuckets] = {};

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper bound of the bucket containing the p-quantile (p in [0, 1]).
  uint64_t PercentileUpperBound(double p) const;
};

/// Point-in-time aggregate of every counter and histogram: the retired
/// accumulator plus all live per-thread blocks.
struct StatsSnapshot {
  uint64_t counters[kNumCounters] = {};
  HistogramSnapshot histograms[kNumHistograms] = {};

  uint64_t counter(Counter c) const {
    return counters[static_cast<size_t>(c)];
  }
  const HistogramSnapshot& histogram(Histogram h) const {
    return histograms[static_cast<size_t>(h)];
  }
};

#if !defined(AB_DISABLE_STATS)

namespace internal {

/// One thread's recording block. The owning thread is the only writer;
/// stores/loads are relaxed atomics so snapshot readers race with no one.
struct alignas(64) ThreadStatsBlock {
  std::atomic<uint64_t> counters[kNumCounters] = {};
  struct Hist {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[kNumHistogramBuckets] = {};
  } hists[kNumHistograms];

  void Add(Counter c, uint64_t n) {
    std::atomic<uint64_t>& cell = counters[static_cast<size_t>(c)];
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
  void Record(Histogram h, uint64_t value);
};

/// The calling thread's block, acquired (and registered for snapshots)
/// on first use. Constant-initialized thread_local pointer: the fast
/// path is one TLS load and a null check.
extern constinit thread_local ThreadStatsBlock* tls_block;
ThreadStatsBlock* AcquireTlsBlockSlow();
inline ThreadStatsBlock* TlsBlock() {
  ThreadStatsBlock* b = tls_block;
  return b != nullptr ? b : AcquireTlsBlockSlow();
}

uint64_t MonotonicNowNs();

}  // namespace internal

inline void AddCounter(Counter c, uint64_t n) {
  internal::TlsBlock()->Add(c, n);
}
inline void RecordHistogram(Histogram h, uint64_t value) {
  internal::TlsBlock()->Record(h, value);
}

/// Aggregate of everything recorded so far (process-wide).
StatsSnapshot SnapshotStats();

/// Zeroes the retired accumulator and every live block. Exact only when
/// no thread is concurrently recording (tests reset between phases);
/// concurrent increments may survive or be lost, never corrupt.
void ResetStats();

/// Records the scope's wall time (ns) into a histogram.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram h)
      : hist_(h), start_ns_(internal::MonotonicNowNs()) {}
  ~ScopedLatencyTimer() {
    RecordHistogram(hist_, internal::MonotonicNowNs() - start_ns_);
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram hist_;
  uint64_t start_ns_;
};

#define AB_STATS_INC(counter) ::abitmap::obs::AddCounter((counter), 1)
#define AB_STATS_ADD(counter, n) ::abitmap::obs::AddCounter((counter), (n))
#define AB_STATS_HIST(hist, value) \
  ::abitmap::obs::RecordHistogram((hist), (value))

#else  // AB_DISABLE_STATS

/// Stats-off stubs: same API shape, zero code. The macros drop their
/// arguments entirely (unevaluated), so a stats call site costs nothing
/// — asserted by tests/obs/stats_test.cc.
inline StatsSnapshot SnapshotStats() { return StatsSnapshot{}; }
inline void ResetStats() {}

class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram) {}
};

#define AB_STATS_INC(counter) ((void)0)
#define AB_STATS_ADD(counter, n) ((void)0)
#define AB_STATS_HIST(hist, value) ((void)0)

#endif  // AB_DISABLE_STATS

}  // namespace obs
}  // namespace abitmap

#endif  // ABITMAP_OBS_STATS_H_
