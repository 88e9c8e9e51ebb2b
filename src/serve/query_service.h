#ifndef ABITMAP_SERVE_QUERY_SERVICE_H_
#define ABITMAP_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/hybrid_engine.h"
#include "serve/protocol.h"

namespace abitmap {
namespace serve {

/// A query admitted for execution but not yet executed: the parsed
/// request and its timing envelope. decode_ns/validate_ns are the
/// pre-admission stage durations, carried so the response can echo a
/// complete stage breakdown.
struct PendingQuery {
  QueryRequest request;
  uint64_t admit_ns = 0;     ///< MonotonicNowNs when admission finished
  uint64_t deadline_ns = 0;  ///< 0 = none; absolute MonotonicNowNs time
  uint64_t decode_ns = 0;    ///< wire decode duration (transport-stamped)
  uint64_t validate_ns = 0;  ///< schema validation duration (Admit)
};

/// The execution half of the query server, independent of any transport.
/// It is a synchronous executor: the caller (an epoll worker of
/// QueryServer) admits the queries it has decoded into its own backlog,
/// then runs each one on its own thread with Run, which returns the
/// response.
///
/// Request lifecycle:
///   Admit -> shutdown check (kShuttingDown)
///         -> validate (kBadRequest on schema violations)
///         -> backlog bound (kOverloaded when `capacity` queries are
///            already decoded and waiting)
///         -> deadline stamped, appended to the backlog
///   Run   -> kDeadlineExceeded if the deadline lapsed while it waited
///         -> HybridEngine::Execute -> the response
///
/// Several workers call Run concurrently: Execute is const and safe
/// against concurrent queries and ingest.
class QueryService {
 public:
  struct Options {
    struct Admission {
      /// Most queries a worker holds decoded and not yet executed (a
      /// pipelined burst); the excess is answered kOverloaded.
      size_t capacity = 1024;
      /// Each query executes alone, as soon as its worker reaches it:
      /// there is no batch to fill and no window to wait out.
      static constexpr size_t max_batch = 1;
      static constexpr uint32_t max_delay_us = 0;
    };
    Admission queue;
    /// Applied to requests that carry no deadline_ms of their own.
    /// 0 = no default deadline.
    uint32_t default_deadline_ms = 0;
  };

  /// The engine must outlive the service. Non-const because the service
  /// is also the ingest entry point (HandleInsert); queries only read.
  QueryService(engine::HybridEngine* engine, const Options& options)
      : engine_(engine), options_(options) {}

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Makes every later Admit and HandleInsert answer kShuttingDown.
  /// Queries already admitted still run. Idempotent.
  void Stop() { stopped_.store(true, std::memory_order_release); }

  /// Admits one decoded request into `backlog`, the caller's queries that
  /// are decoded and not yet executed. Mints a trace id when
  /// request.trace_id is 0; every response, rejections included, echoes
  /// it. `decode_ns` is the transport's wire-decode duration (0 when it
  /// does not measure it). Returns false, with the rejection in *reject,
  /// when the request is not admitted (see the lifecycle above).
  bool Admit(QueryRequest request, uint64_t decode_ns,
             std::vector<PendingQuery>* backlog, QueryResponse* reject) const;

  /// Executes one admitted query on the calling thread and returns its
  /// response, or kDeadlineExceeded without executing it when its
  /// deadline has passed. Moves the request's predicates and rows out.
  QueryResponse Run(PendingQuery* query) const;

  /// Streaming ingest: validates the rows against the engine's schema and
  /// appends them, returning their engine row ids. Runs synchronously on
  /// the caller's thread: HybridEngine::IngestRow is internally
  /// synchronized and safe against concurrent queries. All-or-nothing per
  /// request: a bad row rejects the whole batch before any row lands.
  InsertResponse HandleInsert(const InsertRequest& request);

 private:
  /// Schema validation against the engine's table; fills *error and
  /// returns false on violation.
  bool Validate(const QueryRequest& request, std::string* error) const;

  engine::HybridEngine* engine_;
  Options options_;
  std::atomic<bool> stopped_{false};
};

}  // namespace serve
}  // namespace abitmap

#endif  // ABITMAP_SERVE_QUERY_SERVICE_H_
