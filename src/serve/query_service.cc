#include "serve/query_service.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "obs/stats.h"
#include "obs/trace.h"

namespace abitmap {
namespace serve {

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

bool QueryService::Admit(QueryRequest request, uint64_t decode_ns,
                         std::vector<PendingQuery>* backlog,
                         QueryResponse* reject) const {
  // Identity first: every response (including rejections) echoes a
  // nonzero trace id, client-supplied or minted here. This is protocol,
  // not telemetry, so it works in an AB_DISABLE_STATS build too.
  if (request.trace_id == 0) request.trace_id = obs::NextTraceId();
  reject->id = request.id;
  reject->trace_id = request.trace_id;
  if (stopped_.load(std::memory_order_acquire)) {
    reject->status = StatusCode::kShuttingDown;
    reject->error = "server is shutting down";
    return false;
  }
  uint64_t validate_start = MonotonicNowNs();
  std::string verr;
  if (!Validate(request, &verr)) {
    AB_STATS_INC(obs::Counter::kServeBadRequests);
    reject->status = StatusCode::kBadRequest;
    reject->error = std::move(verr);
    return false;
  }
  if (backlog->size() >= options_.queue.capacity) {
    AB_STATS_INC(obs::Counter::kServeOverloadRejected);
    reject->status = StatusCode::kOverloaded;
    reject->error = "admission backlog full";
    return false;
  }

  PendingQuery& pending = backlog->emplace_back();
  pending.admit_ns = MonotonicNowNs();
  pending.decode_ns = decode_ns;
  pending.validate_ns = pending.admit_ns - validate_start;
  uint32_t deadline_ms = request.deadline_ms != 0
                             ? request.deadline_ms
                             : options_.default_deadline_ms;
  if (deadline_ms != 0) {
    pending.deadline_ns =
        pending.admit_ns + static_cast<uint64_t>(deadline_ms) * 1000000;
  }
  pending.request = std::move(request);
  AB_STATS_INC(obs::Counter::kServeRequests);
  return true;
}

QueryResponse QueryService::Run(PendingQuery* p) const {
  uint64_t start = MonotonicNowNs();
  QueryResponse resp;
  resp.id = p->request.id;
  resp.trace_id = p->request.trace_id;
  // Stage breakdown: queue (admission to execution start) + batch (the
  // execution) tile the server-side request window exactly; engine and
  // verify are attributions inside the execution. The numeric fields are
  // always filled — the transport's slow-query log reads them — but only
  // ride the wire when the client asked (timings.has).
  resp.timings.decode_ns = p->decode_ns;
  resp.timings.validate_ns = p->validate_ns;
  resp.timings.queue_ns = start - p->admit_ns;
  resp.timings.has = p->request.want_timings;
  AB_STATS_HIST(obs::Histogram::kServeQueueWaitNs, start - p->admit_ns);

  // A query whose deadline lapsed while it waited behind its worker's
  // earlier work is shed: executing it would spend engine time on an
  // answer nobody is waiting for.
  if (p->deadline_ns != 0 && p->deadline_ns <= start) {
    AB_STATS_INC(obs::Counter::kServeDeadlineExpired);
    resp.status = StatusCode::kDeadlineExceeded;
    resp.error = "deadline expired before execution";
    resp.latency_us = static_cast<double>(start - p->admit_ns) / 1000.0;
    resp.timings.total_ns = start - p->admit_ns;
    return resp;
  }

  engine::EngineQuery q;
  q.predicates = std::move(p->request.predicates);
  q.rows = std::move(p->request.rows);
  q.exact = p->request.exact;
  q.count_only = p->request.count_only;
  engine::EngineResult r = engine_->Execute(q);
  uint64_t done_ns = MonotonicNowNs();
  AB_STATS_INC(obs::Counter::kServeBatches);
  AB_STATS_INC(obs::Counter::kServeBatchQueries);

  resp.status = StatusCode::kOk;
  resp.count = r.count;
  resp.row_ids = std::move(r.row_ids);
  resp.path = r.trace.path;
  resp.batch_size = 1;
  resp.latency_us = static_cast<double>(done_ns - p->admit_ns) / 1000.0;
  resp.timings.batch_ns = done_ns - start;
  resp.timings.engine_ns = static_cast<uint64_t>(r.trace.latency_ms * 1e6);
  resp.timings.verify_ns = r.trace.verify_ns;
  resp.timings.total_ns = done_ns - p->admit_ns;
  resp.trace = r.trace;
  AB_STATS_HIST(obs::Histogram::kServeRequestLatencyNs, done_ns - p->admit_ns);
  return resp;
}

InsertResponse QueryService::HandleInsert(const InsertRequest& request) {
  InsertResponse response;
  if (stopped_.load(std::memory_order_acquire)) {
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

}  // namespace serve
}  // namespace abitmap
