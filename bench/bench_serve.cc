// Multi-core serving sweep: an in-process QueryServer over the seed table,
// driven by the closed-loop load generator, at every combination of
// server workers {1, 2, 4} and engine threads {1, 4}, several reps per
// point. Serving is run to completion, so workers are the inter-query
// parallelism (each executes the queries it decodes) and engine threads
// the intra-query parallelism (a whole-relation query's pass splits
// across the engine pool). Two query mixes bracket the choice:
//   * subset: 1,000-row subsets, uniform over 1,024 templates — the
//     paper's direct-access regime, where a query costs tens of µs;
//   * whole:  whole-relation exact counts, zipf 1.2 over 32 templates —
//     milliseconds per query, the regime where the pool can help.
//
// Writes BENCH_serve.json: every rep, plus each point's median, min and
// max qps and p50. The human-readable table goes to stderr so stdout
// stays clean. ABITMAP_BENCH_SCALE shrinks rows and per-point duration
// for smoke runs.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/hybrid_engine.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "util/thread_pool.h"

namespace abitmap {
namespace bench {
namespace {

struct Mix {
  const char* name;
  serve::TemplateOptions templates;
  double zipf_theta;
};

struct SweepPoint {
  const char* mix = "";
  int workers = 1;
  int engine_threads = 1;
  std::vector<serve::LoadgenResult> reps;
};

int Main() {
  const uint64_t scale = DatasetScale();
  const uint64_t rows = 1000000 / scale;
  const double duration_s = scale > 1 ? 0.3 : 3.0;
  const int connections = 8;
  const std::vector<int> worker_sweep = {1, 2, 4};
  const std::vector<int> thread_sweep = {1, 4};
  const int reps = 3;

  std::vector<Mix> mixes(2);
  mixes[0].name = "subset";
  mixes[0].templates.num_templates = 1024;
  mixes[0].templates.row_fraction = 1000.0 / static_cast<double>(rows);
  mixes[0].templates.count_only = false;
  mixes[0].zipf_theta = 0;
  mixes[1].name = "whole";
  mixes[1].templates.num_templates = 32;
  mixes[1].templates.row_fraction = 0;
  mixes[1].templates.count_only = true;
  mixes[1].zipf_theta = 1.2;

  fprintf(stderr, "%s\n", SimdBannerLine().c_str());
  fprintf(stderr,
          "bench_serve: rows=%llu connections=%d duration=%.1fs per point "
          "reps=%d host_threads=%d\n",
          (unsigned long long)rows, connections, duration_s, reps,
          util::DefaultThreadCount());

  std::vector<engine::HybridEngine> engines;
  engines.reserve(thread_sweep.size());
  for (int threads : thread_sweep) {
    engine::HybridEngine::Options engine_options;
    engine_options.binning.bins = 16;
    engine_options.num_threads = threads;
    engines.push_back(engine::HybridEngine::Build(
        serve::MakeSeedTable(rows, 42), engine_options));
  }
  std::vector<SweepPoint> points;
  for (int threads : thread_sweep) {
    for (int workers : worker_sweep) {
      for (const Mix& mix : mixes) {
        SweepPoint point;
        point.mix = mix.name;
        point.workers = workers;
        point.engine_threads = threads;
        points.push_back(point);
      }
    }
  }
  // Reps are the outer loop, so drift on the host spreads over every
  // point instead of landing on one.
  for (int rep = 0; rep < reps; ++rep) {
    size_t at = 0;
    for (size_t e = 0; e < engines.size(); ++e) {
      for (int workers : worker_sweep) {
        serve::QueryServer::Options options;
        options.num_workers = workers;
        serve::QueryServer server(&engines[e], options);
        util::Status status = server.Start();
        if (!status.ok()) {
          fprintf(stderr, "bench_serve: server start failed: %s\n",
                  status.message().c_str());
          return 1;
        }
        for (const Mix& mix : mixes) {
          serve::LoadgenOptions loadgen;
          loadgen.port = server.port();
          loadgen.connections = connections;
          loadgen.duration_s = duration_s;
          loadgen.zipf_theta = mix.zipf_theta;
          loadgen.seed = 1;
          util::StatusOr<serve::LoadgenResult> result = serve::RunLoadgen(
              serve::MakeQueryTemplates(rows, mix.templates), loadgen);
          if (!result.ok()) {
            fprintf(stderr, "bench_serve: loadgen failed: %s\n",
                    result.status().message().c_str());
            return 1;
          }
          const serve::LoadgenResult& r = result.value();
          points[at++].reps.push_back(r);
          fprintf(stderr,
                  "  rep=%d %-6s workers=%d engine_threads=%d qps=%9.1f "
                  "p50=%8.1fus p99=%8.1fus errors=%llu rejected=%llu\n",
                  rep, mix.name, workers, thread_sweep[e], r.qps, r.p50_us,
                  r.p99_us, (unsigned long long)r.errors,
                  (unsigned long long)r.rejected);
        }
        server.Stop();
      }
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("source");
  w.String(SourceId());
  w.Key("host_threads");
  w.Uint(static_cast<uint64_t>(util::DefaultThreadCount()));
  AppendSimdInfo(&w);
  w.Key("rows");
  w.Uint(rows);
  w.Key("connections");
  w.Uint(static_cast<uint64_t>(connections));
  w.Key("duration_s");
  w.Double(duration_s, 2);
  w.Key("reps");
  w.Uint(static_cast<uint64_t>(reps));
  w.Key("mixes");
  w.BeginArray();
  for (const Mix& mix : mixes) {
    w.BeginObject();
    w.Key("name");
    w.String(mix.name);
    w.Key("templates");
    w.Uint(mix.templates.num_templates);
    w.Key("row_fraction");
    w.Double(mix.templates.row_fraction, 6);
    w.Key("count_only");
    w.Bool(mix.templates.count_only);
    w.Key("zipf_theta");
    w.Double(mix.zipf_theta, 2);
    w.EndObject();
  }
  w.EndArray();
  w.Key("sweep");
  w.BeginArray();
  for (const SweepPoint& p : points) {
    w.BeginObject();
    w.Key("mix");
    w.String(p.mix);
    w.Key("workers");
    w.Uint(static_cast<uint64_t>(p.workers));
    w.Key("engine_threads");
    w.Uint(static_cast<uint64_t>(p.engine_threads));
    std::vector<double> qps, p50;
    for (const serve::LoadgenResult& r : p.reps) {
      qps.push_back(r.qps);
      p50.push_back(r.p50_us);
    }
    AppendSpread(&w, "qps", SpreadOf(qps), 1);
    AppendSpread(&w, "p50_us", SpreadOf(p50), 1);
    w.Key("reps");
    w.BeginArray();
    for (const serve::LoadgenResult& r : p.reps) {
      w.BeginObject();
      w.Key("requests");
      w.Uint(r.requests);
      w.Key("ok");
      w.Uint(r.ok);
      w.Key("rejected");
      w.Uint(r.rejected);
      w.Key("errors");
      w.Uint(r.errors);
      w.Key("qps");
      w.Double(r.qps, 1);
      w.Key("mean_us");
      w.Double(r.mean_us, 1);
      w.Key("p50_us");
      w.Double(r.p50_us, 1);
      w.Key("p90_us");
      w.Double(r.p90_us, 1);
      w.Key("p99_us");
      w.Double(r.p99_us, 1);
      w.Key("max_us");
      w.Double(r.max_us, 1);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  WriteJsonFile("BENCH_serve.json", w.str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace abitmap

int main() { return abitmap::bench::Main(); }
