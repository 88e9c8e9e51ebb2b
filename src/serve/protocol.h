#ifndef ABITMAP_SERVE_PROTOCOL_H_
#define ABITMAP_SERVE_PROTOCOL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/hybrid_engine.h"
#include "obs/trace.h"

/// Wire protocols of the concurrent query frontend (serve/server.h). Two
/// encodings of the same request/response model share one port:
///
///  * JSON over HTTP/1.1 — POST /query with a JSON body; curl-friendly,
///    one request per connection (Connection: close).
///  * Compact binary framing — persistent pipelined connections for load
///    generators and latency-sensitive clients. A frame is
///    [u32 magic][u32 payload_len][payload]; request magic "ABQ1",
///    response magic "ABR1" (little-endian byte order throughout, via
///    util::ByteWriter). Responses echo the request id so pipelined
///    clients can match them.
///
/// Both decoders are fed from streaming buffers, so they distinguish
/// "frame incomplete, read more" from "malformed, fail the request":
/// DecodeStatus::kNeedMore vs kMalformed. Every size field is validated
/// against the enclosing payload length and the server's request-size
/// bound before any allocation — a hostile length prefix cannot OOM the
/// server.

namespace abitmap {
namespace serve {

/// Frame magics, little-endian on the wire ("ABQ1" / "ABR1").
inline constexpr uint32_t kQueryMagic = 0x31514241u;     // "ABQ1"
inline constexpr uint32_t kResponseMagic = 0x31524241u;  // "ABR1"
inline constexpr size_t kFrameHeaderBytes = 8;

/// Hard shape bounds, defense-in-depth behind the byte-size bound.
inline constexpr size_t kMaxPredicates = 4096;
inline constexpr size_t kMaxInsertRows = 4096;

/// Outcome classes of a served query. Kept small and stable: the binary
/// protocol sends the raw value, the HTTP mapping is HttpStatusFor().
enum class StatusCode : uint8_t {
  kOk = 0,
  kBadRequest = 1,        ///< malformed frame/JSON or invalid predicate
  kOverloaded = 2,        ///< admission queue full (backpressure)
  kDeadlineExceeded = 3,  ///< deadline lapsed before execution
  kShuttingDown = 4,      ///< server stopping
  kInternal = 5,
};

const char* StatusCodeName(StatusCode code);
int HttpStatusFor(StatusCode code);

/// One query as it travels the wire: a conjunction of value predicates
/// over an optional row subset, plus serving controls.
struct QueryRequest {
  uint32_t id = 0;  ///< echoed in the response (pipelining)
  std::vector<engine::ValuePredicate> predicates;
  std::vector<uint64_t> rows;  ///< empty = whole relation
  bool exact = true;
  bool count_only = false;     ///< response carries count, not row ids
  bool want_timings = false;   ///< echo a per-stage timing breakdown
  uint32_t deadline_ms = 0;    ///< 0 = no deadline; measured from admission
  /// Request trace id. 0 (the default) asks the server to mint one;
  /// clients propagating a distributed trace send their own nonzero id.
  /// Echoed in the response and retained in /slow.json. Note the JSON
  /// surface parses numbers as doubles, so JSON-supplied ids are exact
  /// only up to 2^53; the binary framing carries the full 64 bits.
  uint64_t trace_id = 0;
};

/// Monotonic clock for stage, queue-wait and deadline accounting. Lives in
/// the serve layer (not in obs) so it keeps working under
/// AB_DISABLE_STATS.
inline uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-request stage timing breakdown (DESIGN.md §11), echoed when the
/// request set want_timings. queue_ns (admission to execution start) and
/// batch_ns (the execution) tile the server-side request window exactly;
/// engine_ns and verify_ns are attributions inside the execution;
/// decode_ns and validate_ns happen before admission; serialize_ns and
/// flush_ns are echoed as 0 (a response cannot carry the cost of its own
/// rendering and flush — those land in the serve_serialize_ns and
/// serve_flush_ns histograms and the slow-query log instead).
struct StageTimings {
  bool has = false;  ///< present on the wire (response flags bit 1)
  uint64_t decode_ns = 0;
  uint64_t validate_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t batch_ns = 0;
  uint64_t engine_ns = 0;
  uint64_t verify_ns = 0;
  uint64_t serialize_ns = 0;
  uint64_t flush_ns = 0;
  uint64_t total_ns = 0;  ///< admission to results done (queue + batch)
};

/// The served answer.
struct QueryResponse {
  uint32_t id = 0;
  uint64_t trace_id = 0;        ///< echoed (client-supplied or minted)
  StatusCode status = StatusCode::kOk;
  std::string error;            ///< human-readable cause when status != kOk
  uint64_t count = 0;           ///< matching rows (even when count_only)
  std::vector<uint64_t> row_ids;
  StageTimings timings;         ///< filled when the request asked for it
  // Serving annotations (JSON only; diagnostics, not results).
  const char* path = "";        ///< "exact" (engine trace path)
  uint32_t batch_size = 0;      ///< queries executed together: always 1
  double latency_us = 0.0;      ///< server-side queue + execution time
  /// Engine trace of the executed query (server-side only, never
  /// serialized): the slow-query log extracts path/verification detail
  /// from it at completion.
  obs::QueryTrace trace;
};

/// Streaming decode outcome.
enum class DecodeStatus {
  kOk,        ///< one complete message decoded; *consumed bytes eaten
  kNeedMore,  ///< prefix of a valid message; feed more bytes
  kMalformed, ///< cannot be (a prefix of) a valid message
};

/// ---- binary framing ----

std::string EncodeQueryFrame(const QueryRequest& request);
std::string EncodeResponseFrame(const QueryResponse& response);

/// Decodes one request frame from the front of [data, data+len).
/// `max_frame_bytes` bounds the declared payload length (malformed when
/// exceeded). On kOk sets *consumed; on kMalformed fills *error.
DecodeStatus DecodeQueryFrame(const uint8_t* data, size_t len,
                              size_t max_frame_bytes, QueryRequest* out,
                              size_t* consumed, std::string* error);

/// Decodes one response frame (client side: load generator, tests).
DecodeStatus DecodeResponseFrame(const uint8_t* data, size_t len,
                                 size_t max_frame_bytes, QueryResponse* out,
                                 size_t* consumed);

/// ---- JSON ----

/// Parses a POST /query body:
///   {"predicates": [{"attr": 0, "lo": 1.5, "hi": 3.0}, ...],
///    "rows": [0, 5, 9],          // optional, default whole relation
///    "exact": true,               // optional
///    "count_only": false,         // optional
///    "deadline_ms": 50,           // optional
///    "id": 7,                     // optional
///    "trace_id": 123456,          // optional (0/absent = server mints)
///    "timings": true}             // optional: echo stage breakdown
/// Unknown keys are skipped. Returns false with *error on malformed
/// input. Purely syntactic — semantic checks (attribute range, row
/// bounds) happen in QueryService against the engine's table.
bool ParseJsonQuery(std::string_view body, QueryRequest* out,
                    std::string* error);

/// Renders a response as a single-line JSON object. Row ids are included
/// only for kOk without count_only.
std::string ResponseToJson(const QueryResponse& response);

/// ---- streaming ingest (JSON only) ----

/// A POST /insert body: one or more rows, each one value per column.
struct InsertRequest {
  std::vector<std::vector<double>> rows;
};

/// The ingest answer: the engine row ids the rows were assigned.
struct InsertResponse {
  StatusCode status = StatusCode::kOk;
  std::string error;
  std::vector<uint64_t> row_ids;
  uint64_t total_rows = 0;  ///< engine rows after the insert
};

/// Parses a POST /insert body. Two accepted shapes:
///   {"values": [1.5, 2.0, 3.0]}                 // one row
///   {"rows": [[1.5, 2.0, 3.0], [4.0, 5.0, 6.0]]} // a batch
/// Unknown keys are skipped. Purely syntactic — column-count and NaN
/// checks happen in QueryService against the engine's schema.
bool ParseJsonInsert(std::string_view body, InsertRequest* out,
                     std::string* error);

std::string InsertResponseToJson(const InsertResponse& response);

}  // namespace serve
}  // namespace abitmap

#endif  // ABITMAP_SERVE_PROTOCOL_H_
