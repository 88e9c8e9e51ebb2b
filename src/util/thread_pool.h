#ifndef ABITMAP_UTIL_THREAD_POOL_H_
#define ABITMAP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace abitmap {
namespace util {

/// A small fixed-size worker pool for the library's data-parallel loops
/// (parallel index build, batched query evaluation, candidate
/// verification). Deliberately simple: a mutex-protected task queue and
/// fixed contiguous chunking — the workloads sharded through it are
/// uniform row ranges, so work stealing would buy nothing.
///
/// Thread-safety: Submit may be called from any thread. Wait blocks until
/// *all* submitted tasks have finished, whoever submitted them.
/// ParallelFor waits only for its own chunks, so several threads may run
/// ParallelFor on one pool at once (the serve workers do: each executes
/// its queries on the engine's pool). A task must not itself call
/// ParallelFor on its pool: with every worker waiting, nobody would run
/// the nested chunks.
///
/// Observability: unless built with -DAB_DISABLE_STATS=ON, Submit records
/// the observed queue depth (obs::Histogram::kPoolQueueDepth) and workers
/// record per-task wall time (kPoolTaskLatencyNs) plus the
/// submitted/completed counters — the pool-health signals of the obs
/// layer. Submit also captures the submitting thread's span context
/// (obs::CurrentSpanContext), and the worker adopts it around a
/// "pool/task" span, so a trace of a parallel build/evaluation nests the
/// pool-thread chunks under the coordinating span (see obs/span.h).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void Wait();

  /// Splits [begin, end) into num_threads() roughly equal contiguous
  /// chunks and runs body(chunk_begin, chunk_end, chunk_index) on the
  /// workers, blocking until all chunks are done. Chunk boundaries are
  /// deterministic: chunk i covers [begin + i*size, ...), so callers can
  /// pre-allocate per-chunk output slots by index. Empty ranges return
  /// immediately. Concurrent calls from different threads are safe; each
  /// returns when its own chunks are done.
  void ParallelFor(
      uint64_t begin, uint64_t end,
      const std::function<void(uint64_t, uint64_t, int)>& body);

  /// Exact number of (non-empty) chunks ParallelFor will create for a range
  /// of `total` elements under `num_threads` workers. Build coordinators
  /// size per-chunk state (private build shards) with this so every
  /// chunk index handed to `body` has a slot and no slot goes unused.
  static int NumChunksFor(int num_threads, uint64_t total);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  /// A queued task plus the span context of the thread that submitted it,
  /// so the worker can re-parent its trace slice (0 when stats are
  /// compiled out or no span was open).
  struct Task {
    std::function<void()> fn;
    uint64_t span_parent = 0;
  };

  std::deque<Task> queue_;
  uint64_t pending_ = 0;  ///< queued + running tasks
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Worker count matching the machine: hardware_concurrency, at least 1.
int DefaultThreadCount();

}  // namespace util
}  // namespace abitmap

#endif  // ABITMAP_UTIL_THREAD_POOL_H_
