// ab_stats: the observability layer's CLI front end. Runs a
// representative AB workload — index build plus a batch of sampled
// rectangular queries — and dumps the process-wide stats snapshot in the
// requested format, optionally with one trace line per query.
//
//   ./ab_stats                               # text summary
//   ./ab_stats --format=json                 # machine-readable snapshot
//   ./ab_stats --format=prom                 # Prometheus exposition text
//   ./ab_stats --trace                       # per-query trace JSON lines
//   ./ab_stats --workload=hep --queries=200 --threads=4
//   ./ab_stats --serve=9100                  # serve /metrics until SIGINT
//   ./ab_stats --serve=0 --watch=2           # ephemeral port, live workload
//
// --serve=PORT runs the workload, then keeps the process alive serving
// /metrics, /stats.json, /healthz, and /traces.json on 127.0.0.1:PORT
// (PORT=0 picks an ephemeral port, announced on stderr) until SIGINT or
// SIGTERM. --watch=SECS re-runs the query workload every SECS seconds and
// prints a text snapshot, so the served numbers keep moving.
//
// In a -DAB_DISABLE_STATS=ON build the tool still runs (the snapshot API
// is link-compatible) and reports an all-zero snapshot with
// "enabled": false; the endpoints serve the disabled payloads.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ab_index.h"
#include "data/generators.h"
#include "data/query_gen.h"
#include "obs/export.h"
#include "obs/http.h"
#include "obs/stats.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

using namespace abitmap;

namespace {

/// Matches --name=value; points *value at the value on success.
bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--workload=uniform|hep|landsat] [--scale=N]\n"
      "          [--queries=N] [--rows=N] [--alpha=A]\n"
      "          [--level=dataset|attribute|column] [--threads=N]\n"
      "          [--format=text|json|prom] [--trace]\n"
      "          [--serve=PORT] [--watch=SECS]\n",
      prog);
}

/// Set by the SIGINT/SIGTERM handler; the serve loop polls it.
std::atomic<bool> g_stop{false};

void StopHandler(int /*sig*/) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "uniform";
  std::string format = "text";
  std::string level = "attribute";
  uint64_t scale = 10;
  int num_queries = 50;
  uint64_t rows_queried = 2000;
  double alpha = 8.0;
  int threads = 1;
  bool trace_lines = false;
  bool serve = false;
  int serve_port = 0;
  int watch_secs = 0;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--workload", &v)) {
      workload = v;
    } else if (FlagValue(argv[i], "--format", &v)) {
      format = v;
    } else if (FlagValue(argv[i], "--level", &v)) {
      level = v;
    } else if (FlagValue(argv[i], "--scale", &v)) {
      scale = std::strtoull(v, nullptr, 10);
    } else if (FlagValue(argv[i], "--queries", &v)) {
      num_queries = std::atoi(v);
    } else if (FlagValue(argv[i], "--rows", &v)) {
      rows_queried = std::strtoull(v, nullptr, 10);
    } else if (FlagValue(argv[i], "--alpha", &v)) {
      alpha = std::atof(v);
    } else if (FlagValue(argv[i], "--threads", &v)) {
      threads = std::atoi(v);
    } else if (FlagValue(argv[i], "--serve", &v)) {
      serve = true;
      serve_port = std::atoi(v);
    } else if (FlagValue(argv[i], "--watch", &v)) {
      watch_secs = std::atoi(v);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_lines = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (scale == 0) scale = 1;
  if (serve_port < 0 || serve_port > 65535) {
    std::fprintf(stderr, "ab_stats: --serve port out of range\n");
    return 2;
  }

  if (!obs::kStatsEnabled) {
    std::fprintf(stderr,
                 "ab_stats: built with AB_DISABLE_STATS; the snapshot "
                 "below is all zeros\n");
  }

  bitmap::BinnedDataset dataset =
      workload == "hep"       ? data::MakeHepDataset(44, scale)
      : workload == "landsat" ? data::MakeLandsatDataset(43, scale)
                              : data::MakeUniformDataset(42, scale);

  ab::AbConfig config;
  config.alpha = alpha;
  config.level = level == "dataset"  ? ab::Level::kPerDataset
                 : level == "column" ? ab::Level::kPerColumn
                                     : ab::Level::kPerAttribute;

  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);

  // Start serving before the workload so a scraper pointed at the port
  // sees the build counters move live.
  obs::HttpServer server(
      obs::HttpServer::Options{static_cast<uint16_t>(serve_port)});
  if (serve) {
    util::Status status = server.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "ab_stats: %s\n", status.message().c_str());
      return 1;
    }
    // One parseable line so scripts (tools/check.sh) can find the port.
    std::fprintf(stderr, "ab_stats: listening on http://127.0.0.1:%u\n",
                 static_cast<unsigned>(server.port()));
  }
  if (serve || watch_secs > 0) {
    std::signal(SIGINT, StopHandler);
    std::signal(SIGTERM, StopHandler);
  }

  ab::AbIndex index = ab::AbIndex::BuildParallel(dataset, config, pool.get());

  data::QueryGenParams qp;
  qp.num_queries = num_queries;
  qp.rows_queried = std::min<uint64_t>(rows_queried, dataset.num_rows());
  std::vector<bitmap::BitmapQuery> queries =
      data::GenerateQueries(dataset, qp);

  auto run_queries = [&]() {
    for (const bitmap::BitmapQuery& q : queries) {
      obs::QueryTrace trace;
      std::vector<bool> bits =
          pool != nullptr ? index.EvaluateParallel(q, pool.get(), &trace)
                          : index.EvaluateBatched(q, &trace);
      (void)bits;
      if (trace_lines) std::printf("%s\n", trace.ToJson().c_str());
    }
  };
  run_queries();

  auto print_snapshot = [&]() {
    obs::StatsSnapshot snapshot = obs::SnapshotStats();
    std::string rendered = format == "json"   ? obs::ToJson(snapshot)
                           : format == "prom" ? obs::ToPrometheus(snapshot)
                                              : obs::ToText(snapshot);
    std::fputs(rendered.c_str(), stdout);
    if (!rendered.empty() && rendered.back() != '\n') {
      std::fputc('\n', stdout);
    }
    std::fflush(stdout);
  };
  print_snapshot();

  if (serve || watch_secs > 0) {
    // Periodic mode: re-run the query workload each tick so the served
    // and printed numbers keep moving; with --serve alone, just stay
    // alive for the scraper. Sleep in 100 ms slices so SIGINT is honoured
    // promptly.
    auto tick = std::chrono::seconds(watch_secs > 0 ? watch_secs : 1);
    while (!g_stop.load() && (serve ? server.running() : true)) {
      auto deadline = std::chrono::steady_clock::now() + tick;
      while (!g_stop.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      if (g_stop.load()) break;
      if (watch_secs > 0) {
        run_queries();
        // Each tick also lands one sample in the /timeseries.json ring,
        // so a scraper of the --serve port gets history, not just the
        // latest snapshot.
        obs::TsSample sample = obs::TsSampleFromStats(obs::SnapshotStats());
        sample.mono_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
        sample.wall_ms = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        obs::RecordTimeSeriesSample(sample);
        std::printf("--- watch tick ---\n");
        print_snapshot();
      }
    }
    if (serve) server.Stop();
  }
  return 0;
}
