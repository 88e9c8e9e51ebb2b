// ab_serve: the concurrent query server's CLI front end. Builds a
// HybridEngine over the deterministic seed table (serve/workload.h) and
// serves it on 127.0.0.1 until SIGINT/SIGTERM, speaking both protocols of
// serve/protocol.h on one port:
//
//   ./ab_serve                          # ephemeral port, announced on stderr
//   ./ab_serve --port=9200 --rows=200000
//   ./ab_serve --workers=4 --engine-threads=1 --queue-cap=1024
//
// Each worker runs its queries to completion: it decodes, executes on its
// own thread and replies, so --workers is the inter-query parallelism and
// --engine-threads the intra-query parallelism.
//
// Try it with curl (JSON over HTTP):
//   curl -s http://127.0.0.1:PORT/healthz
//   curl -s -d '{"predicates":[{"attr":0,"lo":20,"hi":60}]}' http://127.0.0.1:PORT/query
//   curl -s -d '{"values":[45.0,17,3.2]}' http://127.0.0.1:PORT/insert
//   curl -s http://127.0.0.1:PORT/metrics | grep ab_serve
//
// or drive it hard with ./ab_loadgen --port=PORT (binary protocol).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "engine/hybrid_engine.h"
#include "serve/server.h"
#include "serve/workload.h"

using namespace abitmap;

namespace {

bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--port=N] [--rows=N] [--seed=N] [--workers=N]\n"
      "          [--engine-threads=N] [--queue-cap=N] [--deadline-ms=N]\n"
      "          [--max-connections=N] [--slow-ms=N] [--telemetry-ms=N]\n"
      "\n"
      "  --queue-cap=N     most queries a worker holds decoded and not yet\n"
      "                    executed; the excess is answered 503 (default\n"
      "                    1024)\n"
      "  --slow-ms=N       slow-query log threshold (/slow.json); 0 retains\n"
      "                    every request (default 100)\n"
      "  --telemetry-ms=N  /timeseries.json sample cadence; 0 disables\n"
      "                    (default 1000)\n",
      prog);
}

std::atomic<bool> g_stop{false};

void StopHandler(int /*sig*/) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  uint64_t rows = 200000;
  uint64_t seed = 42;
  int engine_threads = 0;
  serve::QueryServer::Options options;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--port", &v)) {
      port = std::atoi(v);
    } else if (FlagValue(argv[i], "--rows", &v)) {
      rows = std::strtoull(v, nullptr, 10);
    } else if (FlagValue(argv[i], "--seed", &v)) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (FlagValue(argv[i], "--workers", &v)) {
      options.num_workers = std::atoi(v);
    } else if (FlagValue(argv[i], "--engine-threads", &v)) {
      engine_threads = std::atoi(v);
    } else if (FlagValue(argv[i], "--queue-cap", &v)) {
      options.service.queue.capacity = std::strtoull(v, nullptr, 10);
    } else if (FlagValue(argv[i], "--deadline-ms", &v)) {
      options.service.default_deadline_ms =
          static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (FlagValue(argv[i], "--max-connections", &v)) {
      options.max_connections = std::strtoull(v, nullptr, 10);
    } else if (FlagValue(argv[i], "--slow-ms", &v)) {
      options.slow_threshold_ns =
          std::strtoull(v, nullptr, 10) * 1000ull * 1000ull;
    } else if (FlagValue(argv[i], "--telemetry-ms", &v)) {
      options.telemetry_interval_ms =
          static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "ab_serve: --port out of range\n");
    return 2;
  }
  if (rows == 0) rows = 1000;
  options.port = static_cast<uint16_t>(port);

  std::fprintf(stderr, "ab_serve: building engine over %llu rows...\n",
               static_cast<unsigned long long>(rows));
  engine::HybridEngine::Options engine_options;
  engine_options.binning.bins = 16;
  engine_options.num_threads = engine_threads;
  engine::HybridEngine engine = engine::HybridEngine::Build(
      serve::MakeSeedTable(rows, seed), engine_options);

  serve::QueryServer server(&engine, options);
  util::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "ab_serve: %s\n", status.message().c_str());
    return 1;
  }
  // One parseable line so scripts (tools/check.sh, the bench harness) can
  // find the port; same shape as ab_stats.
  std::fprintf(stderr, "ab_serve: listening on http://127.0.0.1:%u\n",
               static_cast<unsigned>(server.port()));
  std::fprintf(stderr, "ab_serve: workers=%d engine_threads=%d queue_cap=%zu\n",
               options.num_workers, engine_threads,
               options.service.queue.capacity);

  std::signal(SIGINT, StopHandler);
  std::signal(SIGTERM, StopHandler);
  while (!g_stop.load() && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  std::fprintf(stderr, "ab_serve: stopped\n");
  return 0;
}
