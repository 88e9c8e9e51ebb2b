#ifndef ABITMAP_SERVE_SERVER_H_
#define ABITMAP_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "engine/hybrid_engine.h"
#include "serve/query_service.h"
#include "util/status.h"

namespace abitmap {
namespace serve {

/// The network frontend of the concurrent query service: a loopback
/// listener with an acceptor thread and N epoll event-loop workers, all
/// non-blocking. Both wire protocols (see serve/protocol.h) share the
/// port; the first bytes of each connection select the decoder. Serving
/// is run to completion: the worker that decodes a query admits it
/// through the QueryService, executes it on its own thread and writes the
/// reply. Workers execute in parallel with each other; a worker's queries
/// run in the order it decoded them.
///
/// Bounded everywhere: connection count (`max_connections`, excess
/// accepts are closed immediately), per-request bytes
/// (`max_request_bytes`, enforced before buffering), and each worker's
/// decoded-but-not-executed queries (`service.queue.capacity`, excess
/// answered 503/kOverloaded). Shutdown is graceful: the acceptor stops,
/// later queries are answered kShuttingDown, each worker finishes what it
/// admitted, flushes pending responses, then closes every connection.
///
/// Connections are identified inside a worker by monotonically increasing
/// tokens (the epoll user-data), never by fd, so a reply whose connection
/// closed mid-backlog is dropped rather than written into an fd number
/// the kernel may have reused.
class QueryServer {
 public:
  struct Options {
    uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
    int backlog = 64;
    int num_workers = 2;          ///< epoll event-loop threads
    size_t max_connections = 256;  ///< across all workers
    size_t max_request_bytes = 1 << 20;
    /// Requests whose server-side latency (admission to results) reaches
    /// this land in the slow-query log at /slow.json. 0 retains every
    /// request (tests, smoke checks). Installed into the obs layer at
    /// Start.
    uint64_t slow_threshold_ns = 100ull * 1000 * 1000;
    /// Telemetry ticker cadence: every interval one TsSample (counters,
    /// latency percentiles, ingest/rebuild gauges) is pushed into the
    /// /timeseries.json ring. 0 disables the ticker. The thread only
    /// runs in a stats-enabled build.
    uint32_t telemetry_interval_ms = 1000;
    QueryService::Options service;
  };

  /// The engine must outlive the server. Non-const: POST /insert mutates
  /// it through the service's ingest entry point.
  QueryServer(engine::HybridEngine* engine, const Options& options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, spawns the workers and the acceptor. Restartable: Start after
  /// Stop builds a fresh listener and service.
  util::Status Start();

  /// Graceful shutdown; idempotent. Safe to call from a signal-driven
  /// main loop (it only joins threads and closes fds).
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (after Start).
  uint16_t port() const { return port_; }

 private:
  class Worker;

  void AcceptLoop();
  /// Periodic sampler feeding the /timeseries.json ring (see Options).
  void TelemetryLoop();

  engine::HybridEngine* engine_;
  Options options_;
  std::unique_ptr<QueryService> service_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
  std::thread telemetry_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<size_t> live_connections_{0};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  size_t next_worker_ = 0;  ///< round-robin assignment (acceptor only)
};

}  // namespace serve
}  // namespace abitmap

#endif  // ABITMAP_SERVE_SERVER_H_
