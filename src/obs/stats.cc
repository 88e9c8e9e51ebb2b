#include "obs/stats.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

namespace abitmap {
namespace obs {

namespace {

const char* const kCounterNames[kNumCounters] = {
    "ab_cells_tested",
    "ab_cells_inserted",
    "ab_probes_resolved",
    "ab_probes_short_circuited",
    "ab_batch_windows",
    "index_queries",
    "index_rows_evaluated",
    "index_rows_matched",
    "index_cells_probed",
    "index_eval_scalar",
    "index_eval_batched",
    "index_eval_parallel",
    "index_builds",
    "index_builds_parallel",
    "index_rows_indexed",
    "index_rows_appended",
    "build_merge_words_ored",
    "build_merge_words_skipped",
    "engine_queries",
    "engine_exact_routed",
    "engine_candidates",
    "engine_verified",
    "engine_false_positives",
    "pool_tasks_submitted",
    "pool_tasks_completed",
    "serve_conns_accepted",
    "serve_requests",
    "serve_bad_requests",
    "serve_overload_rejected",
    "serve_deadline_expired",
    "serve_batches",
    "serve_batch_queries",
    "engine_ingest_rows",
    "engine_ingest_deletes",
    "engine_delta_matches",
    "serve_inserts",
};

const char* const kHistogramNames[kNumHistograms] = {
    "query_latency_ns",
    "eval_latency_ns",
    "build_latency_ns",
    "verify_latency_ns",
    "pool_task_latency_ns",
    "pool_queue_depth",
    "eval_rows_per_query",
    "build_shard_cells",
    "serve_request_latency_ns",
    "serve_queue_wait_ns",
    "serve_decode_ns",
    "serve_serialize_ns",
    "serve_flush_ns",
};

}  // namespace

const char* CounterName(Counter c) {
  return kCounterNames[static_cast<size_t>(c)];
}

const char* HistogramName(Histogram h) {
  return kHistogramNames[static_cast<size_t>(h)];
}

uint64_t HistogramSnapshot::PercentileUpperBound(double p) const {
  if (count == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) {
      return b == 0 ? 0
                    : (b >= 64 ? ~uint64_t{0} : (uint64_t{1} << b) - 1);
    }
  }
  return ~uint64_t{0};
}

#if !defined(AB_DISABLE_STATS)

namespace internal {

namespace {

/// Bucket of a value under power-of-two bucketing: bit_width(v).
inline size_t BucketOf(uint64_t v) {
  return v == 0 ? 0 : static_cast<size_t>(64 - __builtin_clzll(v));
}

/// Registry of all recording blocks. Blocks are heap-allocated once and
/// never freed; a thread's exit flushes its block into `retired` and
/// pushes it onto the free list for the next new thread, so the block
/// count is bounded by the peak number of concurrently live threads.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadStatsBlock>> all;  // owns every block
  std::vector<ThreadStatsBlock*> live;
  std::vector<ThreadStatsBlock*> free_list;
  ThreadStatsBlock retired;  // accumulated totals of exited threads

  static Registry& Instance() {
    // Leaked singleton: blocks must outlive thread_local destructors of
    // arbitrary threads, including ones torn down after main() returns.
    static Registry* r = new Registry();
    return *r;
  }
};

void AddBlockInto(const ThreadStatsBlock& src, ThreadStatsBlock* dst) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    uint64_t v = src.counters[i].load(std::memory_order_relaxed);
    dst->counters[i].store(
        dst->counters[i].load(std::memory_order_relaxed) + v,
        std::memory_order_relaxed);
  }
  for (size_t h = 0; h < kNumHistograms; ++h) {
    const ThreadStatsBlock::Hist& sh = src.hists[h];
    ThreadStatsBlock::Hist& dh = dst->hists[h];
    dh.count.store(dh.count.load(std::memory_order_relaxed) +
                       sh.count.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    dh.sum.store(dh.sum.load(std::memory_order_relaxed) +
                     sh.sum.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    for (size_t b = 0; b < kNumHistogramBuckets; ++b) {
      dh.buckets[b].store(dh.buckets[b].load(std::memory_order_relaxed) +
                              sh.buckets[b].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
  }
}

void ZeroBlock(ThreadStatsBlock* block) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    block->counters[i].store(0, std::memory_order_relaxed);
  }
  for (size_t h = 0; h < kNumHistograms; ++h) {
    block->hists[h].count.store(0, std::memory_order_relaxed);
    block->hists[h].sum.store(0, std::memory_order_relaxed);
    for (size_t b = 0; b < kNumHistogramBuckets; ++b) {
      block->hists[h].buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

void ReleaseBlock(ThreadStatsBlock* block) {
  Registry& reg = Registry::Instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  AddBlockInto(*block, &reg.retired);
  ZeroBlock(block);
  for (size_t i = 0; i < reg.live.size(); ++i) {
    if (reg.live[i] == block) {
      reg.live[i] = reg.live.back();
      reg.live.pop_back();
      break;
    }
  }
  reg.free_list.push_back(block);
}

/// Flushes the thread's block back to the registry at thread exit.
struct TlsReleaser {
  ThreadStatsBlock* block = nullptr;
  ~TlsReleaser() {
    if (block != nullptr) {
      tls_block = nullptr;
      ReleaseBlock(block);
    }
  }
};

thread_local TlsReleaser tls_releaser;

}  // namespace

constinit thread_local ThreadStatsBlock* tls_block = nullptr;

ThreadStatsBlock* AcquireTlsBlockSlow() {
  Registry& reg = Registry::Instance();
  ThreadStatsBlock* block;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    if (!reg.free_list.empty()) {
      block = reg.free_list.back();
      reg.free_list.pop_back();
    } else {
      reg.all.push_back(std::make_unique<ThreadStatsBlock>());
      block = reg.all.back().get();
    }
    reg.live.push_back(block);
  }
  tls_block = block;
  tls_releaser.block = block;
  return block;
}

void ThreadStatsBlock::Record(Histogram h, uint64_t value) {
  Hist& hist = hists[static_cast<size_t>(h)];
  hist.count.store(hist.count.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  hist.sum.store(hist.sum.load(std::memory_order_relaxed) + value,
                 std::memory_order_relaxed);
  std::atomic<uint64_t>& bucket = hist.buckets[BucketOf(value)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
}

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace internal

namespace {

void AccumulateInto(const internal::ThreadStatsBlock& block,
                    StatsSnapshot* out) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    out->counters[i] += block.counters[i].load(std::memory_order_relaxed);
  }
  for (size_t h = 0; h < kNumHistograms; ++h) {
    const internal::ThreadStatsBlock::Hist& src = block.hists[h];
    HistogramSnapshot& dst = out->histograms[h];
    dst.count += src.count.load(std::memory_order_relaxed);
    dst.sum += src.sum.load(std::memory_order_relaxed);
    for (size_t b = 0; b < kNumHistogramBuckets; ++b) {
      dst.buckets[b] += src.buckets[b].load(std::memory_order_relaxed);
    }
  }
}

}  // namespace

StatsSnapshot SnapshotStats() {
  internal::Registry& reg = internal::Registry::Instance();
  StatsSnapshot out;
  std::lock_guard<std::mutex> lock(reg.mu);
  AccumulateInto(reg.retired, &out);
  for (internal::ThreadStatsBlock* block : reg.live) {
    AccumulateInto(*block, &out);
  }
  return out;
}

void ResetStats() {
  internal::Registry& reg = internal::Registry::Instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  internal::ZeroBlock(&reg.retired);
  for (internal::ThreadStatsBlock* block : reg.live) {
    internal::ZeroBlock(block);
  }
  for (internal::ThreadStatsBlock* block : reg.free_list) {
    internal::ZeroBlock(block);
  }
}

#endif  // !AB_DISABLE_STATS

}  // namespace obs
}  // namespace abitmap
