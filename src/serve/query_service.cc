#include "serve/query_service.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace abitmap {
namespace serve {

QueryService::QueryService(engine::HybridEngine* engine,
                           const Options& options)
    : engine_(engine),
      options_(options),
      queue_([&options]() {
        BatchQueue::Options q = options.queue;
        if (!options.batching) {
          q.max_batch = 1;
          q.max_delay_us = 0;
        }
        return q;
      }()) {}

QueryService::~QueryService() { Stop(); }

util::Status QueryService::Start() {
  if (started_.exchange(true)) {
    return util::Status::InvalidArgument("QueryService already started");
  }
  dispatcher_ = std::thread([this]() { DispatchLoop(); });
  return util::Status::Ok();
}

void QueryService::Stop() {
  if (!started_.load()) return;
  if (stopped_.exchange(true)) return;
  queue_.Stop();
  if (dispatcher_.joinable()) dispatcher_.join();
}

bool QueryService::Validate(const QueryRequest& request,
                            std::string* error) const {
  const engine::Table& table = engine_->table();
  // Ingested rows are addressable too; TotalRows is an acquire load, so a
  // client that saw its insert response can immediately query the row.
  uint64_t num_rows = engine_->TotalRows();
  uint32_t num_columns = static_cast<uint32_t>(table.num_columns());
  for (const engine::ValuePredicate& p : request.predicates) {
    // The engine AB_CHECKs these invariants and aborts the process on
    // violation — the trust boundary is here, before untrusted input
    // reaches it.
    if (p.attr >= num_columns) {
      *error = "unknown attribute " + std::to_string(p.attr) + " (table has " +
               std::to_string(num_columns) + " columns)";
      return false;
    }
    if (std::isnan(p.lo) || std::isnan(p.hi)) {
      *error = "predicate bounds must not be NaN";
      return false;
    }
    if (p.lo > p.hi) {
      *error = "predicate lo > hi";
      return false;
    }
  }
  for (uint64_t row : request.rows) {
    if (row >= num_rows) {
      *error = "row id " + std::to_string(row) + " out of range (table has " +
               std::to_string(num_rows) + " rows)";
      return false;
    }
  }
  return true;
}

void QueryService::Submit(QueryRequest request,
                          std::function<void(QueryResponse)> done,
                          uint64_t decode_ns) {
  // Identity first: every response (including rejections) echoes a
  // nonzero trace id, client-supplied or minted here. This is protocol,
  // not telemetry, so it works in an AB_DISABLE_STATS build too.
  if (request.trace_id == 0) request.trace_id = obs::NextTraceId();
  QueryResponse reject;
  reject.id = request.id;
  reject.trace_id = request.trace_id;
  if (stopped_.load(std::memory_order_acquire) || !started_.load()) {
    reject.status = StatusCode::kShuttingDown;
    reject.error = "server is shutting down";
    done(std::move(reject));
    return;
  }
  uint64_t validate_start = MonotonicNowNs();
  std::string verr;
  if (!Validate(request, &verr)) {
    AB_STATS_INC(obs::Counter::kServeBadRequests);
    reject.status = StatusCode::kBadRequest;
    reject.error = std::move(verr);
    done(std::move(reject));
    return;
  }

  PendingQuery pending;
  pending.enqueue_ns = MonotonicNowNs();
  pending.decode_ns = decode_ns;
  pending.validate_ns = pending.enqueue_ns - validate_start;
  uint32_t deadline_ms = request.deadline_ms != 0
                             ? request.deadline_ms
                             : options_.default_deadline_ms;
  if (deadline_ms != 0) {
    pending.deadline_ns =
        pending.enqueue_ns + static_cast<uint64_t>(deadline_ms) * 1000000;
  }
  pending.request = std::move(request);
  pending.done = std::move(done);
  if (!queue_.TryEnqueue(&pending)) {
    AB_STATS_INC(obs::Counter::kServeOverloadRejected);
    reject.status = StatusCode::kOverloaded;
    reject.error = "admission queue full";
    pending.done(std::move(reject));
    return;
  }
  AB_STATS_INC(obs::Counter::kServeRequests);
}

InsertResponse QueryService::HandleInsert(const InsertRequest& request) {
  InsertResponse response;
  if (stopped_.load(std::memory_order_acquire) || !started_.load()) {
    response.status = StatusCode::kShuttingDown;
    response.error = "server is shutting down";
    return response;
  }
  size_t num_columns = engine_->table().num_columns();
  for (size_t i = 0; i < request.rows.size(); ++i) {
    const std::vector<double>& row = request.rows[i];
    if (row.size() != num_columns) {
      response.status = StatusCode::kBadRequest;
      response.error = "row " + std::to_string(i) + " has " +
                       std::to_string(row.size()) + " values (table has " +
                       std::to_string(num_columns) + " columns)";
      return response;
    }
    for (double v : row) {
      if (std::isnan(v)) {
        response.status = StatusCode::kBadRequest;
        response.error = "row " + std::to_string(i) + " has a NaN value";
        return response;
      }
    }
  }
  response.row_ids.reserve(request.rows.size());
  for (const std::vector<double>& row : request.rows) {
    response.row_ids.push_back(engine_->IngestRow(row));
  }
  AB_STATS_ADD(obs::Counter::kServeInserts, request.rows.size());
  response.total_rows = engine_->TotalRows();
  return response;
}

void QueryService::DispatchLoop() {
  std::vector<PendingQuery> batch;
  while (queue_.NextBatch(&batch)) {
    AB_SPAN("serve/batch");
    uint64_t now = MonotonicNowNs();

    // Shed queries whose deadline lapsed while queued — executing them
    // would spend engine time on answers nobody is waiting for.
    std::vector<PendingQuery*> live;
    live.reserve(batch.size());
    for (PendingQuery& p : batch) {
      if (p.deadline_ns != 0 && p.deadline_ns <= now) {
        AB_STATS_INC(obs::Counter::kServeDeadlineExpired);
        QueryResponse resp;
        resp.id = p.request.id;
        resp.trace_id = p.request.trace_id;
        resp.status = StatusCode::kDeadlineExceeded;
        resp.error = "deadline expired before execution";
        resp.latency_us = static_cast<double>(now - p.enqueue_ns) / 1000.0;
        resp.timings.decode_ns = p.decode_ns;
        resp.timings.validate_ns = p.validate_ns;
        resp.timings.queue_ns = now - p.enqueue_ns;
        resp.timings.total_ns = now - p.enqueue_ns;
        resp.timings.has = p.request.want_timings;
        p.done(std::move(resp));
      } else {
        live.push_back(&p);
      }
    }
    if (live.empty()) continue;

    std::vector<engine::EngineQuery> queries;
    queries.reserve(live.size());
    for (PendingQuery* p : live) {
      engine::EngineQuery q;
      q.predicates = std::move(p->request.predicates);
      q.rows = std::move(p->request.rows);
      q.exact = p->request.exact;
      q.count_only = p->request.count_only;
      queries.push_back(std::move(q));
    }

    AB_STATS_INC(obs::Counter::kServeBatches);
    AB_STATS_ADD(obs::Counter::kServeBatchQueries, live.size());
    AB_STATS_HIST(obs::Histogram::kServeBatchSize, live.size());
    std::vector<engine::EngineResult> results = engine_->ExecuteBatch(queries);

    uint64_t done_ns = MonotonicNowNs();
    for (size_t i = 0; i < live.size(); ++i) {
      PendingQuery* p = live[i];
      engine::EngineResult& r = results[i];
      QueryResponse resp;
      resp.id = p->request.id;
      resp.trace_id = p->request.trace_id;
      resp.status = StatusCode::kOk;
      resp.count = r.count;
      resp.row_ids = std::move(r.row_ids);
      resp.path = r.trace.path;
      resp.backend = r.trace.backend;
      resp.batch_size = static_cast<uint32_t>(live.size());
      resp.latency_us = static_cast<double>(done_ns - p->enqueue_ns) / 1000.0;
      // Stage breakdown: queue + batch tile the server-side request
      // window exactly; engine/verify are attributions inside the batch
      // window (ExecuteBatch blocks for the whole batch, so a query's
      // own engine time overlaps its batchmates'). The numeric fields
      // are always filled — the transport's slow-query log reads them —
      // but only ride the wire when the client asked (timings.has).
      resp.timings.decode_ns = p->decode_ns;
      resp.timings.validate_ns = p->validate_ns;
      resp.timings.queue_ns = now - p->enqueue_ns;
      resp.timings.batch_ns = done_ns - now;
      resp.timings.engine_ns =
          static_cast<uint64_t>(r.trace.latency_ms * 1e6);
      resp.timings.verify_ns = r.trace.verify_ns;
      resp.timings.total_ns = done_ns - p->enqueue_ns;
      resp.timings.has = p->request.want_timings;
      resp.trace = r.trace;
      AB_STATS_HIST(obs::Histogram::kServeQueueWaitNs, now - p->enqueue_ns);
      AB_STATS_HIST(obs::Histogram::kServeRequestLatencyNs,
                    done_ns - p->enqueue_ns);
      p->done(std::move(resp));
    }
  }
}

}  // namespace serve
}  // namespace abitmap
