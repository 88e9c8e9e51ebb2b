#include "serve/loadgen.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "serve/workload.h"
#include "util/net.h"

namespace abitmap {
namespace serve {

namespace {

/// Stage order in the per-sample arrays (StageBreakdown field order).
constexpr size_t kNumStages = 7;

struct ThreadStats {
  std::vector<double> latencies_us;
  /// One row per response that carried a timing breakdown:
  /// decode, validate, queue, batch, engine, verify, total (µs).
  std::vector<std::array<double, kNumStages>> stages_us;
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t errors = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size()))) ;
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Sends one request and blocks for its response. Returns false on a
/// transport/protocol failure (the connection is unusable afterwards).
bool RoundTrip(int fd, const QueryRequest& request, std::string* buffer,
               QueryResponse* response) {
  std::string frame = EncodeQueryFrame(request);
  if (!util::net::SendAll(fd, frame.data(), frame.size())) return false;
  char chunk[16384];
  for (;;) {
    size_t consumed = 0;
    DecodeStatus st = DecodeResponseFrame(
        reinterpret_cast<const uint8_t*>(buffer->data()), buffer->size(),
        64u << 20, response, &consumed);
    if (st == DecodeStatus::kOk) {
      buffer->erase(0, consumed);
      return true;
    }
    if (st == DecodeStatus::kMalformed) return false;
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;  // timeout, EOF, or error
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

void DriveConnection(const std::vector<QueryRequest>& templates,
                     const LoadgenOptions& options, int thread_index,
                     uint64_t start_ns, uint64_t end_ns, ThreadStats* stats) {
  util::StatusOr<int> fd = util::net::ConnectLoopback(options.port);
  if (!fd.ok()) {
    ++stats->errors;
    return;
  }
  util::net::SetNoDelay(fd.value());
  util::net::SetRecvTimeout(fd.value(), options.recv_timeout_ms);

  ZipfSampler sampler(templates.size(), options.zipf_theta,
                      options.seed * 7919 + static_cast<uint64_t>(thread_index) + 1);
  std::string buffer;
  uint32_t next_id = 1;

  // Open loop: this thread's share of the arrival schedule.
  double interval_ns = 0;
  uint64_t next_arrival_ns = start_ns;
  if (options.open_loop_qps > 0) {
    interval_ns = 1e9 * options.connections / options.open_loop_qps;
    next_arrival_ns =
        start_ns + static_cast<uint64_t>(interval_ns * thread_index /
                                         options.connections);
  }

  while (MonotonicNowNs() < end_ns) {
    uint64_t scheduled_ns;
    if (options.open_loop_qps > 0) {
      scheduled_ns = next_arrival_ns;
      next_arrival_ns += static_cast<uint64_t>(interval_ns);
      uint64_t now = MonotonicNowNs();
      if (scheduled_ns > now) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(scheduled_ns - now));
      }
      // Behind schedule: send immediately, latency accrues the backlog.
      if (scheduled_ns >= end_ns) break;
    } else {
      scheduled_ns = MonotonicNowNs();
    }

    QueryRequest request = templates[sampler.Next()];
    request.id = next_id++;
    request.deadline_ms = options.deadline_ms;
    request.want_timings = options.want_timings;

    QueryResponse response;
    if (!RoundTrip(fd.value(), request, &buffer, &response)) {
      ++stats->errors;
      break;  // connection is gone; this worker retires
    }
    if (response.id != request.id) {
      ++stats->errors;
      break;
    }
    uint64_t done = MonotonicNowNs();
    stats->latencies_us.push_back(
        static_cast<double>(done - scheduled_ns) / 1000.0);
    if (response.timings.has) {
      const StageTimings& t = response.timings;
      stats->stages_us.push_back(
          {static_cast<double>(t.decode_ns) / 1000.0,
           static_cast<double>(t.validate_ns) / 1000.0,
           static_cast<double>(t.queue_ns) / 1000.0,
           static_cast<double>(t.batch_ns) / 1000.0,
           static_cast<double>(t.engine_ns) / 1000.0,
           static_cast<double>(t.verify_ns) / 1000.0,
           static_cast<double>(t.total_ns) / 1000.0});
    }
    if (response.status == StatusCode::kOk) {
      ++stats->ok;
    } else if (response.status == StatusCode::kOverloaded ||
               response.status == StatusCode::kDeadlineExceeded) {
      ++stats->rejected;
    } else {
      ++stats->errors;
    }
  }
  ::close(fd.value());
}

}  // namespace

util::StatusOr<LoadgenResult> RunLoadgen(
    const std::vector<QueryRequest>& templates,
    const LoadgenOptions& options) {
  if (templates.empty()) {
    return util::Status::InvalidArgument("loadgen needs query templates");
  }
  // Fail fast when the server is unreachable, before spawning threads.
  util::StatusOr<int> probe = util::net::ConnectLoopback(options.port);
  if (!probe.ok()) return probe.status();
  ::close(probe.value());

  int connections = std::max(options.connections, 1);
  std::vector<ThreadStats> stats(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  uint64_t start_ns = MonotonicNowNs();
  uint64_t end_ns =
      start_ns + static_cast<uint64_t>(options.duration_s * 1e9);
  for (int t = 0; t < connections; ++t) {
    threads.emplace_back([&, t]() {
      DriveConnection(templates, options, t, start_ns, end_ns, &stats[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  uint64_t actual_end_ns = MonotonicNowNs();

  LoadgenResult result;
  std::vector<double> all;
  for (const ThreadStats& s : stats) {
    result.ok += s.ok;
    result.rejected += s.rejected;
    result.errors += s.errors;
    all.insert(all.end(), s.latencies_us.begin(), s.latencies_us.end());
  }
  result.requests = all.size();
  result.duration_s =
      static_cast<double>(actual_end_ns - start_ns) / 1e9;
  if (result.duration_s > 0) {
    result.qps = static_cast<double>(result.ok) / result.duration_s;
  }
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    double sum = 0;
    for (double v : all) sum += v;
    result.mean_us = sum / static_cast<double>(all.size());
    result.p50_us = Percentile(all, 0.50);
    result.p90_us = Percentile(all, 0.90);
    result.p99_us = Percentile(all, 0.99);
    result.p999_us = Percentile(all, 0.999);
    result.max_us = all.back();
  }

  // Server-side latency attribution: aggregate each stage independently
  // across every response that carried a breakdown.
  StageAggregate* aggs[kNumStages] = {
      &result.stages.decode, &result.stages.validate, &result.stages.queue,
      &result.stages.batch,  &result.stages.engine,   &result.stages.verify,
      &result.stages.total};
  std::vector<double> column;
  for (size_t stage = 0; stage < kNumStages; ++stage) {
    column.clear();
    for (const ThreadStats& s : stats) {
      for (const std::array<double, kNumStages>& row : s.stages_us) {
        column.push_back(row[stage]);
      }
    }
    if (column.empty()) continue;
    result.stages.samples = column.size();
    double sum = 0;
    for (double v : column) sum += v;
    aggs[stage]->mean_us = sum / static_cast<double>(column.size());
    std::sort(column.begin(), column.end());
    aggs[stage]->p99_us = Percentile(column, 0.99);
  }
  return result;
}

}  // namespace serve
}  // namespace abitmap
