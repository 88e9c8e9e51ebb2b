// The repository's served benchmark. One process builds a HybridEngine
// over serve::MakeSeedTable(1'000'000, seed), serves it through an
// in-process serve::QueryServer on loopback, drives one of three seeded
// workloads through the benchmark's own clients, checks every answer
// against a brute-force oracle over the raw values, and prints one JSON
// line of metrics as the last line of stdout.
//
//   perfbench --workload ab_subset|exact_scan|ingest_mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--source-id ID]
//
// --trace 0 reports the end-to-end metrics from an untraced run.
// --trace 1 runs the workload untraced and traced, replays it in process
// against each module's public entry points, and reports the per-layer
// metrics derived from the benchmark's span trace. Exit status is 0 only
// when every answer was correct.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bitmap/bitmap_table.h"
#include "client.h"
#include "core/ab_index.h"
#include "engine/exact_index.h"
#include "engine/hybrid_engine.h"
#include "obs/stats.h"
#include "oracle.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "tracer.h"
#include "util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace engine = abitmap::engine;
namespace serve = abitmap::serve;
namespace bitmap = abitmap::bitmap;
namespace ab = abitmap::ab;

// ---- fixed configuration (recorded in every output) -----------------------

constexpr uint64_t kBaseRows = 1'000'000;
/// Engine pool size. Fixed, never 0/auto: a pooled build's duration
/// varies with host contention far more than a single-threaded one.
constexpr int kEngineThreads = 1;
/// Server epoll workers (the QueryServer default, pinned here so a change
/// of default does not silently change the benchmark).
constexpr int kServerWorkers = 2;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
constexpr double kWarmupSeconds = 1.0;
constexpr double kBlockSeconds = 0.5;

/// Query templates are part of the workload's definition, so they do not
/// vary with --seed; the seed varies the table, the request order, and the
/// ingested rows. (Per-seed templates made a zipf-hot template's
/// selectivity, not the system, the largest source of run-to-run spread.)
constexpr uint64_t kTemplateSeed = 7;

/// Closed-loop client connections of the read workloads. With one
/// connection, ab_subset's rate followed the host's thread wake-up latency:
/// its qps median moved 28% and its p90 55% between two 10-seed sets. With
/// four, the engine is rarely idle and the rate follows engine work.
constexpr int kReadConnections = 4;
/// ab_subset: uniform picks over 1024 templates with 1,000-row subsets.
/// Connection c picks only templates t with t % kReadConnections == c, so
/// requests in flight together are never identical and never deduplicated.
constexpr size_t kSubsetTemplates = 1024;
constexpr double kSubsetFraction = 0.001;
/// exact_scan: zipf over 32 whole-relation count templates.
constexpr size_t kScanTemplates = 32;
constexpr double kScanZipfTheta = 1.2;
/// Read-only workloads end with a fixed /insert burst after the timed
/// query window, so the ingest metrics exist on every workload. The burst
/// is paced (one batch per kTailIntervalMs) so it spans seconds rather
/// than one host phase, and its batches are large enough that ingest work,
/// not connection wake-ups, dominates each round trip.
constexpr size_t kTailBatches = 100;
constexpr size_t kTailBatchRows = 500;
constexpr double kTailIntervalMs = 20;
/// ingest_mix: rounds of one /insert batch followed by kMixQueriesPerRound
/// queries; every kMixCountEvery-th query is a whole-relation count.
constexpr size_t kMixBatchRows = 200;
constexpr size_t kMixQueriesPerRound = 4;
constexpr size_t kMixCountEvery = 8;
constexpr size_t kMixRoundsPerSecond = 30;
constexpr size_t kMixSubsetTemplates = 256;
constexpr size_t kMixCountTemplates = 8;
constexpr uint64_t kMixBaseRowsPerQuery = 500;
constexpr uint64_t kMixDeltaRowsPerQuery = 500;
/// In-process replay and kernel-timing caps (traced run).
constexpr size_t kReplayMaxQueries = 2000;
constexpr double kReplayMaxSeconds = 2.0;
constexpr size_t kKernelMaxQueries = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string source_id = "unknown";
  bool corrupt_oracle = false;
};

engine::HybridEngine::Options EngineOptions() {
  engine::HybridEngine::Options o;
  o.binning.bins = 16;
  o.ab.alpha = 16;
  o.ab.level = ab::Level::kPerAttribute;
  o.backend = "auto";
  o.num_threads = kEngineThreads;
  return o;
}

serve::QueryServer::Options ServerOptions() {
  serve::QueryServer::Options o;  // shipped admission defaults
  o.num_workers = kServerWorkers;
  return o;
}

// ---- statistics ------------------------------------------------------------

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (idx > 0) --idx;
  return v[std::min(idx, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---- answer accounting -----------------------------------------------------

struct Accounting {
  uint64_t attempted = 0;
  uint64_t transport_errors = 0;
  uint64_t rejections = 0;
  uint64_t mismatches = 0;
  uint64_t approx_returned = 0;
  uint64_t approx_true = 0;
  uint64_t exact_returned = 0;
  uint64_t exact_true = 0;
  std::vector<std::string> errors;  ///< first few, for the detail output

  uint64_t failed() const { return transport_errors + rejections + mismatches; }

  /// Keeps the first few failure descriptions, JSON-safe.
  void Note(const std::string& what) {
    if (errors.size() >= 8) return;
    std::string safe;
    for (char c : what) {
      if (c == '"' || c == '\\') safe.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) safe.push_back(c);
    }
    errors.push_back(safe);
  }

  /// One checked query response.
  void Record(const serve::QueryRequest& request, const Verdict& v,
              const serve::QueryResponse& response) {
    ++attempted;
    if (!v.ok) {
      if (response.status == serve::StatusCode::kOk) {
        ++mismatches;
      } else {
        ++rejections;
      }
      Note(v.why);
      return;
    }
    if (request.exact) {
      exact_returned += v.returned;
      exact_true += v.truly_matching;
    } else {
      approx_returned += v.returned;
      approx_true += v.truly_matching;
    }
  }

  void Merge(const Accounting& o) {
    attempted += o.attempted;
    transport_errors += o.transport_errors;
    rejections += o.rejections;
    mismatches += o.mismatches;
    approx_returned += o.approx_returned;
    approx_true += o.approx_true;
    exact_returned += o.exact_returned;
    exact_true += o.exact_true;
    for (const std::string& e : o.errors) Note(e);
  }

  /// Returned rows that truly match / returned rows, over approximate
  /// answers; a workload without approximate answers reports it over its
  /// exact ones (1 unless an answer was wrong).
  double Precision() const {
    if (approx_returned > 0) {
      return static_cast<double>(approx_true) /
             static_cast<double>(approx_returned);
    }
    if (exact_returned > 0) {
      return static_cast<double>(exact_true) /
             static_cast<double>(exact_returned);
    }
    return 1.0;
  }
};

/// Serves one query over `client`, checks it, and records its round trip.
/// With a live tracer it also records the client span and the server's
/// echoed stage timings. Returns false when the connection failed.
bool ServeQuery(BinaryClient* client, const std::string& frame,
                const serve::QueryRequest& request, const Truth& truth,
                Accounting* acct, std::vector<double>* rtt_us,
                Tracer* tracer) {
  serve::QueryResponse response;
  uint64_t t0 = NowNs();
  bool ok = client->RoundTrip(frame, &response);
  uint64_t t1 = NowNs();
  if (!ok) {
    ++acct->attempted;
    ++acct->transport_errors;
    acct->Note("query transport failure");
    return false;
  }
  acct->Record(request, CheckAnswer(request, truth, response), response);
  double rtt = (t1 - t0) / 1e3;
  rtt_us->push_back(rtt);
  if (tracer->enabled()) {
    tracer->Add("client.query", t0, t1);
    const serve::StageTimings& st = response.timings;
    if (st.has) {
      tracer->Sample("serve.queue_us", st.queue_ns / 1e3);
      tracer->Sample("serve.batch_wait_us",
                     (static_cast<double>(st.batch_ns) -
                      static_cast<double>(st.engine_ns)) / 1e3);
      tracer->Sample("serve.engine_us", st.engine_ns / 1e3);
      tracer->Sample("serve.wire_us", rtt - st.total_ns / 1e3);
      tracer->Sample("client.rtt_us", rtt);
    }
  }
  return true;
}

/// Rows for one POST /insert, with the request body rendered up front so
/// no input is generated inside a timed window.
struct InsertBatch {
  std::vector<std::vector<double>> rows;
  std::string body;
};

/// `batches` batches of `rows_per_batch` rows drawn like MakeSeedTable's.
std::vector<InsertBatch> MakeInsertBatches(size_t batches,
                                           size_t rows_per_batch,
                                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> price(0, 100);
  std::normal_distribution<double> rating(3.0, 1.0);
  std::vector<InsertBatch> out(batches);
  for (InsertBatch& b : out) {
    b.rows.resize(rows_per_batch);
    for (std::vector<double>& r : b.rows) {
      double p = price(rng);
      double q = static_cast<double>(rng() % 50);
      r = {p, q, rating(rng)};
    }
    b.body = InsertBody(b.rows);
  }
  return out;
}

/// One /insert batch: posts the rows, checks the acknowledged ids are the
/// next ones in order, and appends the rows to the oracle's raw values.
bool ServeInsert(uint16_t port, const InsertBatch& batch, RawRows* raw,
                 Accounting* acct, std::vector<double>* rtt_us,
                 Tracer* tracer) {
  const std::vector<std::vector<double>>& rows = batch.rows;
  HttpReply reply;
  uint64_t t0 = NowNs();
  bool ok = HttpCall(port, "POST", "/insert", batch.body, &reply);
  uint64_t t1 = NowNs();
  ++acct->attempted;
  if (!ok) {
    ++acct->transport_errors;
    acct->Note("insert transport failure");
    return false;
  }
  std::vector<uint64_t> ids;
  if (reply.status != 200 || !ParseInsertRowIds(reply.body, &ids)) {
    ++acct->rejections;
    acct->Note("insert rejected: " + reply.body.substr(0, 120));
    return false;
  }
  bool ids_ok = ids.size() == rows.size();
  for (size_t i = 0; ids_ok && i < ids.size(); ++i) {
    ids_ok = ids[i] == raw->num_rows() + i;
  }
  if (!ids_ok) {
    ++acct->mismatches;
    acct->Note("insert acknowledged unexpected row ids");
    return false;
  }
  for (const std::vector<double>& row : rows) raw->Append(row);
  rtt_us->push_back((t1 - t0) / 1e3);
  tracer->Add("client.insert", t0, t1);
  return true;
}

/// Marks about one template in four approximate (exact = false).
void MarkApproximate(std::vector<serve::QueryRequest>* templates,
                     uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (serve::QueryRequest& t : *templates) t.exact = rng() % 4 != 0;
}

std::string Encode(const serve::QueryRequest& request, bool want_timings) {
  serve::QueryRequest r = request;
  r.want_timings = want_timings;
  return serve::EncodeQueryFrame(r);
}

// ---- server lifetime -------------------------------------------------------

struct Served {
  std::unique_ptr<engine::HybridEngine> engine;
  std::unique_ptr<serve::QueryServer> server;

  void Stop() {
    if (server) server->Stop();
    server.reset();
    engine.reset();
  }
};

/// HybridEngine::Build plus QueryServer::Start; returns its duration.
double SetUp(const engine::Table& table, Served* out) {
  out->Stop();
  engine::Table copy = table;
  uint64_t t0 = NowNs();
  out->engine = std::make_unique<engine::HybridEngine>(
      engine::HybridEngine::Build(std::move(copy), EngineOptions()));
  out->server =
      std::make_unique<serve::QueryServer>(out->engine.get(), ServerOptions());
  abitmap::util::Status st = out->server->Start();
  uint64_t t1 = NowNs();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 st.message().c_str());
    std::exit(2);
  }
  return (t1 - t0) / 1e9;
}

struct ServeCounters {
  double batches = 0;
  double batch_queries = 0;
  double dedup_hits = 0;
};

ServeCounters ReadCounters(uint16_t port, Accounting* acct) {
  ServeCounters c;
  HttpReply reply;
  ++acct->attempted;
  if (!HttpCall(port, "GET", "/metrics", "", &reply) || reply.status != 200) {
    ++acct->transport_errors;
    acct->Note("GET /metrics failed");
    return c;
  }
  std::map<std::string, double> m = ParsePrometheus(reply.body);
  c.batches = m["abitmap_serve_batches"];
  c.batch_queries = m["abitmap_serve_batch_queries"];
  c.dedup_hits = m["abitmap_engine_batch_dedup_hits"];
  return c;
}

// ---- outputs ---------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string ToJson() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < items.size(); ++i) {
      double v = std::isfinite(items[i].second.first) ? items[i].second.first
                                                      : 0.0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    items[i].first.c_str(), v,
                    items[i].second.second.c_str());
      out += buf;
    }
    return out + "}";
  }
};

std::string ProvenanceJson(const Args& args) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"source_id\": \"%s\", \"build_type\": \"%s\", "
      "\"stats_compiled_out\": %s, \"simd_level\": \"%s\", \"nproc\": %ld, "
      "\"engine_threads\": %d, \"server_workers\": %d, "
      "\"client_connections\": %d, "
      "\"admission\": {\"max_batch\": %zu, \"max_delay_us\": %u}, "
      "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %.3f, "
      "\"base_rows\": %" PRIu64 ", \"trace\": %s}",
      args.source_id.c_str(), PERFBENCH_BUILD_TYPE,
      abitmap::obs::kStatsEnabled ? "false" : "true",
      abitmap::util::simd::SimdLevelName(
          abitmap::util::simd::ActiveSimdLevel()),
      sysconf(_SC_NPROCESSORS_ONLN), kEngineThreads, kServerWorkers,
      args.workload == "ingest_mix" ? 1 : kReadConnections,
      ServerOptions().service.queue.max_batch,
      ServerOptions().service.queue.max_delay_us, args.workload.c_str(),
      args.seed, args.seconds, kBaseRows, args.trace ? "true" : "false");
  return buf;
}

// ---- the in-process layer measurements (traced run) ------------------------

/// Builds each layer through its own public entry point, as the engine
/// does, and times each as a span.
struct Layers {
  engine::Table::Discretized discretized;
  std::unique_ptr<engine::ExactIndex> exact;
  std::unique_ptr<ab::AbIndex> ab;
};

Layers BuildLayers(const engine::Table& table, Tracer* tracer) {
  Layers l;
  engine::HybridEngine::Options o = EngineOptions();
  {
    ScopedSpan s(tracer, "bitmap.Discretize");
    l.discretized = table.Discretize(o.binning);
  }
  std::unique_ptr<bitmap::BitmapTable> bt;
  {
    ScopedSpan s(tracer, "bitmap.BitmapTable::Build");
    bt = std::make_unique<bitmap::BitmapTable>(
        bitmap::BitmapTable::Build(l.discretized.dataset));
  }
  {
    ScopedSpan s(tracer, "roaring.ExactIndex::Build");
    l.exact = std::make_unique<engine::ExactIndex>(
        engine::ExactIndex::Build(*bt, nullptr, o.backend));
  }
  {
    ScopedSpan s(tracer, "core.AbIndex::Build");
    l.ab = std::make_unique<ab::AbIndex>(
        ab::AbIndex::Build(l.discretized.dataset, o.ab));
  }
  return l;
}

/// The benchmark's own value-to-bin translation, from its Discretize
/// binners.
bitmap::BitmapQuery ToBinQuery(const Layers& l,
                               const serve::QueryRequest& request) {
  bitmap::BitmapQuery q;
  for (const engine::ValuePredicate& p : request.predicates) {
    const bitmap::Binner& b = l.discretized.binners[p.attr];
    q.ranges.push_back({p.attr, b.BinOf(p.lo), b.BinOf(p.hi)});
  }
  for (uint64_t r : request.rows) {
    if (r < l.ab->num_rows()) q.rows.push_back(r);
  }
  return q;
}

/// Times AbIndex::EvaluateBatched and ExactIndex::ExecuteBitwiseBits on the
/// workload's distinct templates.
void MeasureKernels(const Layers& l,
                    const std::vector<serve::QueryRequest>& templates,
                    Tracer* tracer) {
  uint64_t stop = NowNs() + static_cast<uint64_t>(kReplayMaxSeconds * 1e9);
  size_t n = std::min(templates.size(), kKernelMaxQueries);
  for (size_t i = 0; i < n && (i == 0 || NowNs() < stop); ++i) {
    bitmap::BitmapQuery q = ToBinQuery(l, templates[i]);
    uint64_t t0 = NowNs();
    std::vector<bool> bits = l.ab->EvaluateBatched(q);
    uint64_t t1 = NowNs();
    tracer->Add("core.AbIndex::EvaluateBatched", t0, t1);
    tracer->Count("core.ab_eval_rows", static_cast<double>(bits.size()));
    bitmap::BitmapQuery whole = q;
    whole.rows.clear();
    uint64_t t2 = NowNs();
    abitmap::util::BitVector exact = l.exact->ExecuteBitwiseBits(whole);
    uint64_t t3 = NowNs();
    tracer->Add("roaring.ExactIndex::ExecuteBitwiseBits", t2, t3);
    tracer->Count("roaring.exact_eval_bits", static_cast<double>(exact.size()));
  }
}

/// Builds the layers, records their sizes, and times their kernels on the
/// workload's templates. The layers are freed before the served part.
void MeasureLayers(const engine::Table& table,
                   const std::vector<serve::QueryRequest>& templates,
                   Tracer* tracer) {
  Layers layers = BuildLayers(table, tracer);
  tracer->Count("core.ab_bytes",
                static_cast<double>(layers.ab->SizeInBytes()));
  tracer->Count("roaring.exact_bytes",
                static_cast<double>(layers.exact->SizeInBytes()));
  MeasureKernels(layers, templates, tracer);
}

/// One in-process HybridEngine::Execute, recorded with its engine trace.
/// Returns the span's (start, end).
std::pair<uint64_t, uint64_t> ReplayQuery(const engine::HybridEngine& eng,
                                          const serve::QueryRequest& request,
                                          const char* span, Tracer* tracer) {
  engine::EngineQuery q;
  q.predicates = request.predicates;
  q.rows = request.rows;
  q.exact = request.exact;
  uint64_t t0 = NowNs();
  engine::EngineResult r = eng.Execute(q);
  uint64_t t1 = NowNs();
  tracer->Add(span, t0, t1);
  std::string prefix = span;
  tracer->Sample(prefix + ".verify_us", r.trace.verify_ns / 1e3);
  tracer->Count(prefix + ".queries");
  if (r.trace.path == std::string("ab")) tracer->Count(prefix + ".ab_routed");
  if (request.exact) {
    tracer->Count(prefix + ".rows_evaluated",
                  static_cast<double>(r.trace.rows_evaluated));
    tracer->Count(prefix + ".verified_matches",
                  static_cast<double>(r.trace.verified_matches));
  }
  return {t0, t1};
}

/// Replays a prefix of the served request sequence, bounded by
/// kReplayMaxQueries and kReplayMaxSeconds.
void ReplaySequence(const engine::HybridEngine& eng,
                    const std::vector<serve::QueryRequest>& templates,
                    const std::vector<uint32_t>& sequence, const char* span,
                    Tracer* tracer) {
  uint64_t stop = NowNs() + static_cast<uint64_t>(kReplayMaxSeconds * 1e9);
  for (size_t i = 0; i < sequence.size() && i < kReplayMaxQueries; ++i) {
    if (NowNs() > stop) break;
    ReplayQuery(eng, templates[sequence[i]], span, tracer);
  }
}

void IngestInProcess(engine::HybridEngine* eng,
                     const std::vector<std::vector<double>>& rows,
                     Tracer* tracer) {
  uint64_t t0 = NowNs();
  for (const std::vector<double>& row : rows) eng->IngestRow(row);
  uint64_t t1 = NowNs();
  tracer->Add("engine.IngestRow", t0, t1);
  tracer->Count("engine.ingest_rows", static_cast<double>(rows.size()));
}

/// Per-layer metrics shared by every workload, derived from the trace.
void LayerMetrics(const Tracer& t, double untraced_qps, double traced_qps,
                  const ServeCounters& before, const ServeCounters& after,
                  const engine::HybridEngine::IngestStats& ingest,
                  uint64_t base_rows, Metrics* m) {
  m->Set("serve.queue_us", Median(t.samples("serve.queue_us")), "us");
  m->Set("serve.batch_wait_us", Median(t.samples("serve.batch_wait_us")),
         "us");
  m->Set("serve.wire_us", Median(t.samples("serve.wire_us")), "us");
  double batches = after.batches - before.batches;
  double queries = after.batch_queries - before.batch_queries;
  m->Set("serve.batch_size", batches > 0 ? queries / batches : 0, "count");
  m->Set("serve.dedup_frac",
         queries > 0 ? (after.dedup_hits - before.dedup_hits) / queries : 0,
         "ratio");
  // Median /insert round trip minus the median in-process IngestRow time
  // of the same batches (same sizes, same order).
  std::vector<double> ingest_batches = t.DurationsUs("engine.IngestRow");
  double ingest_rows = t.count("engine.ingest_rows");
  double us_per_row = ingest_rows > 0 ? Sum(ingest_batches) / ingest_rows : 0;
  m->Set("serve.insert_overhead_us",
         Median(t.DurationsUs("client.insert")) - Median(ingest_batches),
         "us");

  std::vector<double> exec = t.DurationsUs("engine.Execute");
  m->Set("engine.execute_us", Median(exec), "us");
  m->Set("engine.verify_us", Median(t.samples("engine.Execute.verify_us")),
         "us");
  double replayed = t.count("engine.Execute.queries");
  m->Set("engine.ab_routed_frac",
         replayed > 0 ? t.count("engine.Execute.ab_routed") / replayed : 0,
         "ratio");
  double matches = t.count("engine.Execute.verified_matches");
  m->Set("engine.rows_per_match",
         matches > 0 ? t.count("engine.Execute.rows_evaluated") / matches : 0,
         "rows");
  m->Set("engine.mutable_execute_us",
         Median(t.DurationsUs("engine.Execute.mutable")), "us");
  m->Set("engine.ingest_us_per_row", us_per_row, "us");

  double ab_eval_us = Sum(t.DurationsUs("core.AbIndex::EvaluateBatched"));
  double ab_rows = t.count("core.ab_eval_rows");
  m->Set("core.ab_eval_ns_per_row", ab_rows > 0 ? ab_eval_us * 1e3 / ab_rows : 0,
         "ns");
  m->Set("core.ab_build_s",
         Median(t.DurationsUs("core.AbIndex::Build")) / 1e6, "s");
  m->Set("core.ab_bytes_per_row", t.count("core.ab_bytes") / base_rows, "B");
  m->Set("core.delta_generations",
         static_cast<double>(ingest.delta_generations), "count");
  m->Set("core.delta_worst_fp", ingest.delta_worst_fp, "ratio");
  m->Set("roaring.exact_eval_us",
         Median(t.DurationsUs("roaring.ExactIndex::ExecuteBitwiseBits")), "us");
  m->Set("roaring.exact_build_s",
         Median(t.DurationsUs("roaring.ExactIndex::Build")) / 1e6, "s");
  m->Set("roaring.exact_bytes_per_row", t.count("roaring.exact_bytes") /
         base_rows, "B");
  m->Set("bitmap.discretize_s",
         Median(t.DurationsUs("bitmap.Discretize")) / 1e6, "s");
  m->Set("bitmap.table_build_s",
         Median(t.DurationsUs("bitmap.BitmapTable::Build")) / 1e6, "s");
  // Mean client round trip minus the mean of its attributed parts: wire
  // (RTT minus the echoed server window), queue, batch wait, and the
  // in-process engine replay. What remains is served engine time the
  // replay does not explain.
  double attributed = Mean(t.samples("serve.wire_us")) +
                      Mean(t.samples("serve.queue_us")) +
                      Mean(t.samples("serve.batch_wait_us")) + Mean(exec);
  m->Set("budget.unattributed_us",
         Mean(t.samples("client.rtt_us")) - attributed, "us");
  m->Set("trace.overhead_frac",
         untraced_qps > 0 ? 1.0 - traced_qps / untraced_qps : 0, "ratio");
}

// ---- workloads -------------------------------------------------------------

/// What one served phase produced.
struct Phase {
  uint64_t start_ns = 0;
  double seconds = 0;
  uint64_t ok_queries = 0;
  std::vector<double> query_rtt_us;
  std::vector<uint64_t> query_done_ns;  ///< completion times of OK queries
  std::vector<double> insert_rtt_us;
  uint64_t inserted_rows = 0;
  double insert_seconds = 0;  ///< summed /insert round trips

  double qps() const { return seconds > 0 ? ok_queries / seconds : 0; }
};

/// ab_subset and exact_scan: closed-loop reads over a fixed template pool.
class ReadWorkload {
 public:
  ReadWorkload(const Args& args, bool subset) : args_(args), subset_(subset) {}

  void Prepare(const engine::Table& table) {
    table_ = &table;
    serve::TemplateOptions to;
    to.seed = kTemplateSeed;
    if (subset_) {
      to.num_templates = kSubsetTemplates;
      to.row_fraction = kSubsetFraction;
      to.count_only = false;
    } else {
      to.num_templates = kScanTemplates;
      to.row_fraction = 0;
      to.count_only = true;
    }
    templates_ = serve::MakeQueryTemplates(table.num_rows(), to);
    if (subset_) MarkApproximate(&templates_, kTemplateSeed);
    RawRows raw(&table);
    for (const serve::QueryRequest& t : templates_) {
      truths_.push_back(ComputeTruth(raw, t, table.num_rows()));
      frames_.push_back(Encode(t, false));
      traced_frames_.push_back(Encode(t, true));
    }
    // Enough picks per connection for any plausible window; the stream
    // wraps if a connection outruns it.
    size_t picks = static_cast<size_t>(
        (args_.seconds * 2 + kWarmupSeconds + 2) * 5000);
    for (int c = 0; c < kReadConnections; ++c) {
      std::vector<uint32_t> seq(picks);
      if (subset_) {
        std::mt19937_64 rng(args_.seed * 131 + c);
        size_t share = templates_.size() / kReadConnections;
        for (uint32_t& s : seq) {
          s = static_cast<uint32_t>(c + kReadConnections * (rng() % share));
        }
      } else {
        serve::ZipfSampler z(templates_.size(), kScanZipfTheta,
                             args_.seed * 7919 + c + 1);
        for (uint32_t& s : seq) s = static_cast<uint32_t>(z.Next());
      }
      sequences_.push_back(std::move(seq));
    }
    cursors_.assign(kReadConnections, 0);
    tail_ = MakeInsertBatches(kTailBatches, kTailBatchRows,
                              args_.seed * 97 + 5);
    if (args_.corrupt_oracle) {
      Truth& t = truths_[sequences_[0][0]];
      ++t.count;
      t.ids.push_back(table.num_rows() + 1);
    }
  }

  /// Closed-loop window over every connection for `seconds`.
  Phase Serve(uint16_t port, double seconds, bool traced, Accounting* acct,
              Tracer* tracer, std::vector<uint32_t>* served) {
    struct PerConn {
      Accounting acct;
      std::vector<double> rtt;
      std::vector<uint64_t> done;
      Tracer tracer{false};
      std::vector<uint32_t> served;
      uint64_t ok = 0;
      uint64_t end_ns = 0;
    };
    std::vector<PerConn> conns(kReadConnections);
    for (PerConn& pc : conns) pc.tracer = Tracer(tracer->enabled());
    std::vector<std::unique_ptr<BinaryClient>> clients;
    for (int c = 0; c < kReadConnections; ++c) {
      clients.push_back(std::make_unique<BinaryClient>());
      if (!clients.back()->Connect(port)) {
        acct->Note("connect failed");
        ++acct->transport_errors;
        ++acct->attempted;
        return Phase{};
      }
    }
    std::atomic<bool> go{false};
    uint64_t start_ns = 0;
    uint64_t stop_ns = 0;
    std::vector<std::thread> threads;
    for (int c = 0; c < kReadConnections; ++c) {
      threads.emplace_back([&, c]() {
        PerConn& pc = conns[c];
        while (!go.load(std::memory_order_acquire)) {
        }
        const std::vector<uint32_t>& seq = sequences_[c];
        size_t& cursor = cursors_[c];
        while (NowNs() < stop_ns) {
          uint32_t t = seq[cursor % seq.size()];
          ++cursor;
          const std::string& frame = traced ? traced_frames_[t] : frames_[t];
          size_t before = pc.acct.failed();
          if (!ServeQuery(clients[c].get(), frame, templates_[t], truths_[t],
                          &pc.acct, &pc.rtt, &pc.tracer)) {
            break;
          }
          if (pc.acct.failed() == before) {
            ++pc.ok;
            pc.done.push_back(NowNs());
          }
          pc.served.push_back(t);
        }
        pc.end_ns = NowNs();
      });
    }
    start_ns = NowNs();
    stop_ns = start_ns + static_cast<uint64_t>(seconds * 1e9);
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    Phase p;
    uint64_t end_ns = start_ns;
    for (PerConn& pc : conns) {
      acct->Merge(pc.acct);
      tracer->Merge(pc.tracer);
      p.query_rtt_us.insert(p.query_rtt_us.end(), pc.rtt.begin(),
                            pc.rtt.end());
      p.ok_queries += pc.ok;
      p.query_done_ns.insert(p.query_done_ns.end(), pc.done.begin(),
                             pc.done.end());
      end_ns = std::max(end_ns, pc.end_ns);
      if (served != nullptr) {
        served->insert(served->end(), pc.served.begin(), pc.served.end());
      }
    }
    p.start_ns = start_ns;
    p.seconds = (end_ns - start_ns) / 1e9;
    return p;
  }

  /// The fixed /insert burst after the query window, then whole-relation
  /// exact counts that must see every acknowledged row.
  void InsertTail(uint16_t port, RawRows* raw, Accounting* acct,
                  Tracer* tracer, Phase* p) {
    uint64_t next = NowNs();
    for (const InsertBatch& batch : tail_) {
      while (NowNs() < next) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      next += static_cast<uint64_t>(kTailIntervalMs * 1e6);
      if (!ServeInsert(port, batch, raw, acct, &p->insert_rtt_us, tracer)) {
        return;
      }
      p->inserted_rows += batch.rows.size();
    }
    p->insert_seconds = Sum(p->insert_rtt_us) / 1e6;
    CheckCounts(port, *raw, acct);
  }

  void CheckCounts(uint16_t port, const RawRows& raw, Accounting* acct) {
    BinaryClient client;
    if (!client.Connect(port)) {
      ++acct->attempted;
      ++acct->transport_errors;
      return;
    }
    std::vector<double> ignored;
    Tracer off(false);
    for (size_t i = 0; i < 4 && i < templates_.size(); ++i) {
      serve::QueryRequest q = templates_[i];
      q.rows.clear();
      q.count_only = true;
      q.exact = true;
      Truth truth = ComputeTruth(raw, q, raw.num_rows());
      if (!ServeQuery(&client, Encode(q, false), q, truth, acct, &ignored,
                      &off)) {
        return;
      }
    }
  }

  void WarmUp(uint16_t port, Accounting* acct) {
    Tracer off(false);
    Serve(port, kWarmupSeconds, false, acct, &off, nullptr);
  }

  const std::vector<serve::QueryRequest>& templates() const {
    return templates_;
  }
  const std::vector<InsertBatch>& tail() const { return tail_; }

 private:
  const Args& args_;
  bool subset_;
  const engine::Table* table_ = nullptr;
  std::vector<serve::QueryRequest> templates_;
  std::vector<Truth> truths_;
  std::vector<std::string> frames_;
  std::vector<std::string> traced_frames_;
  std::vector<std::vector<uint32_t>> sequences_;
  std::vector<size_t> cursors_;
  std::vector<InsertBatch> tail_;
};

/// ingest_mix: a fixed, seeded sequence of rounds, each one /insert batch
/// then a few queries. Subset queries name base rows plus the most
/// recently acknowledged ingested ids; every kMixCountEvery-th query is a
/// whole-relation exact count that scans the whole delta. The sequence
/// length scales with --seconds (kMixRoundsPerSecond), so every run does
/// the same work and its duration is what is measured. It is runnable but
/// not in BENCHMARK.json's gated set; perfbench/METRICS.md says why.
class IngestMix {
 public:
  explicit IngestMix(const Args& args) : args_(args) {}

  struct Op {
    bool insert = false;
    uint32_t index = 0;  ///< batch index, or query index
  };
  struct MixQuery {
    uint32_t tmpl = 0;    ///< subset template, or count template
    bool count = false;
    uint64_t delta_lo = 0;  ///< ingested ids [delta_lo, delta_hi) named
    uint64_t delta_hi = 0;
  };

  void Prepare(const engine::Table& table) {
    table_ = &table;
    uint64_t n = table.num_rows();
    serve::TemplateOptions to;
    to.seed = kTemplateSeed + 1;
    to.num_templates = kMixSubsetTemplates;
    to.row_fraction = static_cast<double>(kMixBaseRowsPerQuery) /
                      static_cast<double>(n);
    to.count_only = false;
    subset_templates_ = serve::MakeQueryTemplates(n, to);
    MarkApproximate(&subset_templates_, kTemplateSeed + 1);
    to.seed += 1;
    to.num_templates = kMixCountTemplates;
    to.row_fraction = 0;
    to.count_only = true;
    count_templates_ = serve::MakeQueryTemplates(n, to);

    RawRows raw(&table);
    for (const serve::QueryRequest& t : subset_templates_) {
      subset_truths_.push_back(ComputeTruth(raw, t, n));
    }
    std::vector<uint64_t> count_base;
    for (const serve::QueryRequest& t : count_templates_) {
      count_base.push_back(ComputeTruth(raw, t, n).count);
    }

    size_t rounds = std::max<size_t>(
        1, static_cast<size_t>(args_.seconds * kMixRoundsPerSecond));
    batches_ = MakeInsertBatches(rounds, kMixBatchRows, args_.seed * 97 + 13);
    // The whole sequence's rows in acknowledgement order, so that `raw`
    // holds row n + i for the i-th ingested row.
    for (const InsertBatch& b : batches_) {
      for (const std::vector<double>& row : b.rows) raw.Append(row);
    }
    // Per count template, matches among the first i ingested rows.
    size_t total = rounds * kMixBatchRows;
    std::vector<std::vector<uint64_t>> prefix(
        count_templates_.size(), std::vector<uint64_t>(total + 1, 0));
    for (size_t c = 0; c < count_templates_.size(); ++c) {
      for (size_t i = 0; i < total; ++i) {
        bool match = raw.Matches(n + i, count_templates_[c].predicates);
        prefix[c][i + 1] = prefix[c][i] + (match ? 1 : 0);
      }
    }

    std::mt19937_64 rng(args_.seed * 131 + 71);
    uint64_t committed = 0;
    for (size_t r = 0; r < rounds; ++r) {
      ops_.push_back(Op{true, static_cast<uint32_t>(r)});
      committed += kMixBatchRows;
      for (size_t k = 0; k < kMixQueriesPerRound; ++k) {
        MixQuery q;
        Truth truth;
        q.count = queries_.size() % kMixCountEvery == kMixCountEvery - 1;
        if (q.count) {
          q.tmpl = static_cast<uint32_t>((queries_.size() / kMixCountEvery) %
                                         count_templates_.size());
          truth.count = count_base[q.tmpl] + prefix[q.tmpl][committed];
        } else {
          q.tmpl = static_cast<uint32_t>(rng() % subset_templates_.size());
          q.delta_hi = committed;
          q.delta_lo = committed - std::min(committed, kMixDeltaRowsPerQuery);
          // The query names only committed rows, so its truth over the
          // whole sequence's rows is its truth when it is sent.
          truth = ComputeTruth(raw, Request(q), raw.num_rows());
        }
        ops_.push_back(Op{false, static_cast<uint32_t>(queries_.size())});
        queries_.push_back(q);
        truths_.push_back(std::move(truth));
      }
    }
    if (args_.corrupt_oracle) {
      ++truths_[0].count;
      truths_[0].ids.push_back(n + total + 1);
    }
  }

  serve::QueryRequest Request(const MixQuery& q) const {
    if (q.count) return count_templates_[q.tmpl];
    serve::QueryRequest r = subset_templates_[q.tmpl];
    uint64_t n = table_->num_rows();
    for (uint64_t i = q.delta_lo; i < q.delta_hi; ++i) r.rows.push_back(n + i);
    return r;
  }

  /// Runs the whole sequence against a freshly set-up server.
  Phase Serve(uint16_t port, bool traced, Accounting* acct, Tracer* tracer) {
    Phase p;
    RawRows raw(table_);
    BinaryClient client;
    if (!client.Connect(port)) {
      ++acct->attempted;
      ++acct->transport_errors;
      return p;
    }
    uint64_t start = NowNs();
    p.start_ns = start;
    for (const Op& op : ops_) {
      if (op.insert) {
        const InsertBatch& batch = batches_[op.index];
        if (!ServeInsert(port, batch, &raw, acct, &p.insert_rtt_us, tracer)) {
          break;
        }
        p.inserted_rows += batch.rows.size();
        continue;
      }
      serve::QueryRequest request = Request(queries_[op.index]);
      std::string frame = Encode(request, traced);
      size_t before = acct->failed();
      if (!ServeQuery(&client, frame, request, truths_[op.index], acct,
                      &p.query_rtt_us, tracer)) {
        break;
      }
      if (acct->failed() == before) {
        ++p.ok_queries;
        p.query_done_ns.push_back(NowNs());
      }
    }
    p.seconds = (NowNs() - start) / 1e9;
    p.insert_seconds = Sum(p.insert_rtt_us) / 1e6;
    return p;
  }

  /// Base-only subset queries before the sequence (no rows ingested yet).
  void WarmUp(uint16_t port, Accounting* acct) {
    BinaryClient client;
    if (!client.Connect(port)) {
      ++acct->attempted;
      ++acct->transport_errors;
      return;
    }
    std::vector<double> ignored;
    Tracer off(false);
    uint64_t stop = NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
    for (size_t i = 0; NowNs() < stop; ++i) {
      size_t t = i % subset_templates_.size();
      if (!ServeQuery(&client, Encode(subset_templates_[t], false),
                      subset_templates_[t], subset_truths_[t], acct, &ignored,
                      &off)) {
        return;
      }
    }
  }

  /// Replays the identical sequence in process: IngestRow per batch and
  /// HybridEngine::Execute per query.
  void Replay(engine::HybridEngine* eng, Tracer* tracer) {
    for (const Op& op : ops_) {
      if (op.insert) {
        IngestInProcess(eng, batches_[op.index].rows, tracer);
        continue;
      }
      serve::QueryRequest request = Request(queries_[op.index]);
      // Every replayed query follows an insert, so each is also a
      // mutation-aware execution.
      auto [t0, t1] = ReplayQuery(*eng, request, "engine.Execute", tracer);
      tracer->Add("engine.Execute.mutable", t0, t1);
    }
  }

  std::vector<serve::QueryRequest> KernelTemplates() const {
    std::vector<serve::QueryRequest> out = count_templates_;
    out.insert(out.end(), subset_templates_.begin(), subset_templates_.end());
    return out;
  }

 private:
  const Args& args_;
  const engine::Table* table_ = nullptr;
  std::vector<serve::QueryRequest> subset_templates_;
  std::vector<Truth> subset_truths_;
  std::vector<serve::QueryRequest> count_templates_;
  std::vector<InsertBatch> batches_;
  std::vector<Op> ops_;
  std::vector<MixQuery> queries_;
  std::vector<Truth> truths_;
};

// ---- runs --------------------------------------------------------------------

struct RunOutput {
  Metrics metrics;
  Accounting acct;
  std::string detail;  ///< extra JSON fields (no braces)
  std::string trace_json;
};

void EndToEnd(const Phase& p, double setup_s, const Accounting& acct,
              const engine::HybridEngine& eng, Metrics* m) {
  m->Set("setup_s", setup_s, "s");
  m->Set("qps", p.qps(), "1/s");
  m->Set("query_p50_us", Percentile(p.query_rtt_us, 0.5), "us");
  m->Set("query_p90_us", Percentile(p.query_rtt_us, 0.9), "us");
  m->Set("answer_precision", acct.Precision(), "ratio");
  m->Set("index_bytes_per_row",
         static_cast<double>(eng.AbSizeBytes() + eng.ExactSizeBytes()) /
             static_cast<double>(eng.base_rows()),
         "B");
  m->Set("peak_rss_mb", PeakRssMb(), "MiB");
  m->Set("insert_rows_per_s",
         p.insert_seconds > 0 ? p.inserted_rows / p.insert_seconds : 0,
         "rows/s");
}

/// OK queries per second in consecutive kBlockSeconds blocks of the window.
std::vector<double> BlockQps(const Phase& p) {
  std::vector<double> out;
  if (p.query_done_ns.empty()) return out;
  std::vector<uint64_t> done = p.query_done_ns;
  std::sort(done.begin(), done.end());
  uint64_t block_ns = static_cast<uint64_t>(kBlockSeconds * 1e9);
  uint64_t start = p.start_ns;
  size_t i = 0;
  while (start + block_ns <= done.back()) {
    size_t n = 0;
    while (i < done.size() && done[i] < start + block_ns) {
      ++n;
      ++i;
    }
    out.push_back(n / kBlockSeconds);
    start += block_ns;
  }
  return out;
}

std::string PhaseDetail(const Phase& p, const std::vector<double>& setups,
                        const engine::HybridEngine& eng) {
  engine::HybridEngine::IngestStats ing = eng.GetIngestStats();
  char buf[8192];
  std::string blocks;
  for (double q : BlockQps(p)) {
    blocks += (blocks.empty() ? "" : ", ") + std::to_string(q);
  }
  std::string setup_list;
  for (double s : setups) {
    setup_list += (setup_list.empty() ? "" : ", ") + std::to_string(s);
  }
  std::snprintf(
      buf, sizeof(buf),
      "\"window_s\": %.4f, \"query_samples\": %zu, \"query_p99_us\": %.2f, "
      "\"insert_samples\": %zu, \"insert_p50_us\": %.2f, "
      "\"insert_p90_us\": %.2f, "
      "\"insert_p99_us\": %.2f, "
      "\"inserted_rows\": %" PRIu64 ", \"delta_generations\": %" PRIu64
      ", \"delta_worst_fp\": %.6g, \"setup_samples_s\": [%s], "
      "\"qps_blocks\": [%s]",
      p.seconds, p.query_rtt_us.size(), Percentile(p.query_rtt_us, 0.99),
      p.insert_rtt_us.size(), Percentile(p.insert_rtt_us, 0.5),
      Percentile(p.insert_rtt_us, 0.9),
      Percentile(p.insert_rtt_us, 0.99),
      p.inserted_rows, ing.delta_generations, ing.delta_worst_fp,
      setup_list.c_str(), blocks.c_str());
  return buf;
}

double ServedSetups(const engine::Table& table, Served* served,
                    std::vector<double>* samples) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    samples->push_back(SetUp(table, served));
  }
  return Median(*samples);
}

RunOutput RunRead(const Args& args, bool subset, const engine::Table& table) {
  RunOutput out;
  ReadWorkload w(args, subset);
  w.Prepare(table);
  Served served;
  Tracer off(false);
  if (!args.trace) {
    std::vector<double> setups;
    double setup_s = ServedSetups(table, &served, &setups);
    uint16_t port = served.server->port();
    w.WarmUp(port, &out.acct);
    Phase p = w.Serve(port, args.seconds, false, &out.acct, &off, nullptr);
    RawRows raw(&table);
    w.InsertTail(port, &raw, &out.acct, &off, &p);
    EndToEnd(p, setup_s, out.acct, *served.engine, &out.metrics);
    out.detail = PhaseDetail(p, setups, *served.engine);
    served.Stop();
    return out;
  }

  Tracer tracer(true);
  {
    ScopedPhase phase(&tracer, "layers");
    MeasureLayers(table, w.templates(), &tracer);
  }
  {
    ScopedPhase phase(&tracer, "setup");
    SetUp(table, &served);
  }
  uint16_t port = served.server->port();
  w.WarmUp(port, &out.acct);
  Phase untraced =
      w.Serve(port, args.seconds / 2, false, &out.acct, &off, nullptr);
  ServeCounters before = ReadCounters(port, &out.acct);
  std::vector<uint32_t> served_seq;
  Phase traced;
  {
    ScopedPhase phase(&tracer, "serve.traced");
    traced = w.Serve(port, args.seconds / 2, true, &out.acct, &tracer,
                     &served_seq);
  }
  ServeCounters after = ReadCounters(port, &out.acct);
  {
    // In-process replay of the identical request sequence on the served
    // (still read-only) engine.
    ScopedPhase phase(&tracer, "replay");
    ReplaySequence(*served.engine, w.templates(), served_seq,
                   "engine.Execute", &tracer);
  }
  RawRows raw(&table);
  Phase tail;
  {
    ScopedPhase phase(&tracer, "serve.insert_tail");
    w.InsertTail(port, &raw, &out.acct, &tracer, &tail);
  }
  engine::HybridEngine::IngestStats ingest = served.engine->GetIngestStats();
  {
    // The same requests on the engine now holding the delta.
    ScopedPhase phase(&tracer, "replay.mutable");
    ReplaySequence(*served.engine, w.templates(), served_seq,
                   "engine.Execute.mutable", &tracer);
  }
  served.Stop();
  {
    // The same rows through IngestRow on a fresh engine, batch by batch.
    ScopedPhase phase(&tracer, "ingest.in_process");
    engine::Table copy = table;
    engine::HybridEngine fresh =
        engine::HybridEngine::Build(std::move(copy), EngineOptions());
    for (const InsertBatch& batch : w.tail()) {
      IngestInProcess(&fresh, batch.rows, &tracer);
    }
  }
  LayerMetrics(tracer, untraced.qps(), traced.qps(), before, after, ingest,
               table.num_rows(), &out.metrics);
  out.trace_json = tracer.ToJson();
  return out;
}

RunOutput RunMix(const Args& args, const engine::Table& table) {
  RunOutput out;
  IngestMix w(args);
  w.Prepare(table);
  Served served;
  Tracer off(false);
  if (!args.trace) {
    std::vector<double> setups;
    double setup_s = ServedSetups(table, &served, &setups);
    uint16_t port = served.server->port();
    w.WarmUp(port, &out.acct);
    Phase p = w.Serve(port, false, &out.acct, &off);
    EndToEnd(p, setup_s, out.acct, *served.engine, &out.metrics);
    out.detail = PhaseDetail(p, setups, *served.engine);
    served.Stop();
    return out;
  }

  Tracer tracer(true);
  {
    ScopedPhase phase(&tracer, "layers");
    MeasureLayers(table, w.KernelTemplates(), &tracer);
  }
  // Untraced reference pass, then the traced pass on a fresh engine (the
  // sequence mutates the engine, so each pass needs its own).
  SetUp(table, &served);
  w.WarmUp(served.server->port(), &out.acct);
  Phase untraced = w.Serve(served.server->port(), false, &out.acct, &off);
  {
    ScopedPhase phase(&tracer, "setup");
    SetUp(table, &served);
  }
  uint16_t port = served.server->port();
  w.WarmUp(port, &out.acct);
  ServeCounters before = ReadCounters(port, &out.acct);
  Phase traced;
  {
    ScopedPhase phase(&tracer, "serve.traced");
    traced = w.Serve(port, true, &out.acct, &tracer);
  }
  ServeCounters after = ReadCounters(port, &out.acct);
  engine::HybridEngine::IngestStats ingest = served.engine->GetIngestStats();
  served.Stop();
  {
    ScopedPhase phase(&tracer, "replay");
    engine::Table copy = table;
    engine::HybridEngine fresh =
        engine::HybridEngine::Build(std::move(copy), EngineOptions());
    w.Replay(&fresh, &tracer);
  }
  LayerMetrics(tracer, untraced.qps(), traced.qps(), before, after, ingest,
               table.num_rows(), &out.metrics);
  out.trace_json = tracer.ToJson();
  return out;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--source-id") {
      a->source_id = v;
    } else if (k == "--corrupt-oracle") {
      a->corrupt_oracle = v == "1";
    } else {
      return false;
    }
  }
  return (a->workload == "ab_subset" || a->workload == "exact_scan" ||
          a->workload == "ingest_mix") &&
         a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ab_subset|exact_scan|ingest_mix "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--source-id ID] [--corrupt-oracle 0|1]\n");
    return 2;
  }
  // Inputs: the table (the oracle's raw values) before anything is timed.
  engine::Table table = serve::MakeSeedTable(kBaseRows, args.seed);
  RunOutput out = args.workload == "ingest_mix"
                      ? RunMix(args, table)
                      : RunRead(args, args.workload == "ab_subset", table);

  const Accounting& acct = out.acct;
  bool correct = acct.failed() == 0 && acct.attempted > 0;
  std::string errors;
  for (const std::string& e : acct.errors) {
    errors += (errors.empty() ? "\"" : ", \"") + e + "\"";
  }
  char counts[512];
  std::snprintf(counts, sizeof(counts),
                "\"attempted\": %" PRIu64 ", \"transport_errors\": %" PRIu64
                ", \"rejections\": %" PRIu64 ", \"oracle_mismatches\": %" PRIu64
                ", \"failed_frac\": %.6g",
                acct.attempted, acct.transport_errors, acct.rejections,
                acct.mismatches,
                acct.attempted > 0
                    ? static_cast<double>(acct.failed()) / acct.attempted
                    : 0.0);
  std::string detail = "{\"provenance\": " + ProvenanceJson(args) + ", " +
                       counts + ", \"errors\": [" + errors + "]" +
                       (out.detail.empty() ? "" : ", " + out.detail) +
                       ", \"metrics\": " + out.metrics.ToJson() + "}";
  std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                     std::to_string(args.seed) + "-trace" +
                     (args.trace ? "1" : "0");
  std::ofstream(stem + ".json") << detail << "\n";
  if (!out.trace_json.empty()) {
    std::ofstream(stem + "-spans.json") << out.trace_json << "\n";
  }
  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", acct.attempted, acct.failed(),
              out.metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
