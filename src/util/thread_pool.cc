#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/span.h"
#include "obs/stats.h"
#include "util/logging.h"

namespace abitmap {
namespace util {

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(num_threads, 1);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  AB_CHECK(task != nullptr);
#if !defined(AB_DISABLE_STATS)
  size_t depth;
#endif
  // Captured before taking the lock: the span context belongs to the
  // submitting thread, not to whichever worker later runs the task.
  uint64_t span_parent = obs::CurrentSpanContext();
  {
    std::unique_lock<std::mutex> lock(mu_);
    AB_CHECK(!shutdown_);
    queue_.push_back(Task{std::move(task), span_parent});
    ++pending_;
#if !defined(AB_DISABLE_STATS)
    depth = queue_.size();
#endif
  }
  work_ready_.notify_one();
#if !defined(AB_DISABLE_STATS)
  // Recorded outside the lock: the queue depth observed at submission is
  // the backpressure signal; the stats write must not lengthen the
  // critical section.
  AB_STATS_INC(obs::Counter::kPoolTasksSubmitted);
  AB_STATS_HIST(obs::Histogram::kPoolQueueDepth, depth);
#endif
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this]() { return pending_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock,
                       [this]() { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
#if !defined(AB_DISABLE_STATS)
    {
      // Adopt the submitter's span as parent so the trace shows this
      // task's work nested under the coordinating call.
      obs::ScopedSpanParent adopt(task.span_parent);
      AB_SPAN("pool/task");
      obs::ScopedLatencyTimer timer(obs::Histogram::kPoolTaskLatencyNs);
      task.fn();
    }
    AB_STATS_INC(obs::Counter::kPoolTasksCompleted);
#else
    task.fn();
#endif
    {
      std::unique_lock<std::mutex> lock(mu_);
      --pending_;
      if (pending_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    uint64_t begin, uint64_t end,
    const std::function<void(uint64_t, uint64_t, int)>& body) {
  if (begin >= end) return;
  uint64_t total = end - begin;
  uint64_t chunks = std::min<uint64_t>(num_threads(), total);
  uint64_t chunk_size = (total + chunks - 1) / chunks;
  // A latch of this call's own chunks rather than Wait(): a concurrent
  // coordinator's chunks are not this call's to wait for.
  std::mutex mu;
  std::condition_variable done;
  uint64_t left = (total + chunk_size - 1) / chunk_size;
  for (uint64_t c = 0; c < chunks; ++c) {
    uint64_t b = begin + c * chunk_size;
    uint64_t e = std::min(end, b + chunk_size);
    if (b >= e) break;
    Submit([&body, &mu, &done, &left, b, e, c]() {
      body(b, e, static_cast<int>(c));
      std::lock_guard<std::mutex> lock(mu);
      if (--left == 0) done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&left]() { return left == 0; });
}

int ThreadPool::NumChunksFor(int num_threads, uint64_t total) {
  if (total == 0) return 0;
  // Mirrors ParallelFor: ceil chunk sizing can leave trailing chunks empty
  // (total=6, threads=4 -> chunk_size=2 -> 3 chunks), so recompute the
  // count of chunks that actually receive work.
  uint64_t chunks = std::min<uint64_t>(std::max(num_threads, 1), total);
  uint64_t chunk_size = (total + chunks - 1) / chunks;
  return static_cast<int>((total + chunk_size - 1) / chunk_size);
}

int DefaultThreadCount() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace util
}  // namespace abitmap
