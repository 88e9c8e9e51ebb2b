#include "serve/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/byte_io.h"

namespace abitmap {
namespace serve {

namespace {

/// Fixed per-message byte counts of the binary payload layout (see the
/// encode functions); used to validate declared element counts against
/// the declared payload length before any allocation.
constexpr size_t kQueryFixedBytes = 24;      // id+flags+reserved+preds+deadline+rows+trace_id
constexpr size_t kPredicateBytes = 20;       // attr + lo + hi
constexpr size_t kResponseFixedBytes = 28;   // id+status+flags+reserved+trace_id+count+err_len
constexpr size_t kTimingsBytes = 72;         // 9 x u64 stage breakdown

std::string AssembleFrame(uint32_t magic, const util::ByteWriter& payload) {
  util::ByteWriter header;
  header.WriteU32(magic);
  header.WriteU32(static_cast<uint32_t>(payload.size()));
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(reinterpret_cast<const char*>(header.bytes().data()),
               header.size());
  frame.append(reinterpret_cast<const char*>(payload.bytes().data()),
               payload.size());
  return frame;
}

/// Reads the [magic][payload_len] header and locates the payload.
/// Shared shape of both frame decoders.
DecodeStatus DecodeFrameHeader(const uint8_t* data, size_t len,
                               uint32_t want_magic, size_t max_frame_bytes,
                               const uint8_t** payload, size_t* payload_len,
                               size_t* consumed, std::string* error) {
  if (len < 4) return DecodeStatus::kNeedMore;
  uint32_t magic;
  std::memcpy(&magic, data, 4);
  if (magic != want_magic) {
    if (error != nullptr) *error = "bad frame magic";
    return DecodeStatus::kMalformed;
  }
  if (len < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  uint32_t plen;
  std::memcpy(&plen, data + 4, 4);
  if (plen > max_frame_bytes) {
    if (error != nullptr) *error = "frame exceeds size limit";
    return DecodeStatus::kMalformed;
  }
  if (len < kFrameHeaderBytes + plen) return DecodeStatus::kNeedMore;
  *payload = data + kFrameHeaderBytes;
  *payload_len = plen;
  *consumed = kFrameHeaderBytes + plen;
  return DecodeStatus::kOk;
}

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

/// Minimal cursor-based JSON scanner, specialized to the query shape but
/// tolerant of unknown keys and arbitrary nesting inside them (bounded
/// depth). Hand-rolled because the repo carries no JSON dependency.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view s)
      : p_(s.data()), end_(s.data() + s.size()) {}

  void SkipWs() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return p_ < end_ && *p_ == c;
  }
  bool AtEnd() {
    SkipWs();
    return p_ == end_;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (p_ < end_) {
      char c = *p_++;
      if (c == '"') return true;
      if (c == '\\') {
        if (p_ >= end_) return false;
        char e = *p_++;
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            // Enough to skip over \uXXXX safely; non-ASCII code points are
            // replaced — no field in this protocol carries them.
            for (int i = 0; i < 4; ++i) {
              if (p_ >= end_ || !std::isxdigit(static_cast<unsigned char>(*p_)))
                return false;
              ++p_;
            }
            out->push_back('?');
            break;
          }
          default:
            return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(double* out) {
    SkipWs();
    char buf[64];
    size_t n = 0;
    const char* q = p_;
    while (q < end_ && n < sizeof(buf) - 1 &&
           (std::isdigit(static_cast<unsigned char>(*q)) || *q == '-' ||
            *q == '+' || *q == '.' || *q == 'e' || *q == 'E')) {
      buf[n++] = *q++;
    }
    if (n == 0) return false;
    buf[n] = '\0';
    char* endp = nullptr;
    double v = std::strtod(buf, &endp);
    if (endp != buf + n) return false;
    p_ = q;
    *out = v;
    return true;
  }

  bool ParseBool(bool* out) {
    SkipWs();
    if (end_ - p_ >= 4 && std::memcmp(p_, "true", 4) == 0) {
      p_ += 4;
      *out = true;
      return true;
    }
    if (end_ - p_ >= 5 && std::memcmp(p_, "false", 5) == 0) {
      p_ += 5;
      *out = false;
      return true;
    }
    return false;
  }

  /// Skips one well-formed value of any type (for unknown keys).
  bool SkipValue(int depth) {
    if (depth > 16) return false;
    SkipWs();
    if (p_ >= end_) return false;
    char c = *p_;
    if (c == '"') {
      std::string scratch;
      return ParseString(&scratch);
    }
    if (c == '{' || c == '[') {
      char close = (c == '{') ? '}' : ']';
      ++p_;
      if (Consume(close)) return true;
      for (;;) {
        if (c == '{') {
          std::string key;
          if (!ParseString(&key) || !Consume(':')) return false;
        }
        if (!SkipValue(depth + 1)) return false;
        if (Consume(close)) return true;
        if (!Consume(',')) return false;
      }
    }
    if (c == 't' || c == 'f') {
      bool scratch;
      return ParseBool(&scratch);
    }
    if (end_ - p_ >= 4 && std::memcmp(p_, "null", 4) == 0) {
      p_ += 4;
      return true;
    }
    double scratch;
    return ParseNumber(&scratch);
  }

 private:
  const char* p_;
  const char* end_;
};

bool ParseU32Field(JsonCursor* c, uint32_t* out) {
  double v;
  if (!c->ParseNumber(&v)) return false;
  if (!(v >= 0) || v > 4294967295.0 || v != std::floor(v)) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

/// JSON numbers travel as doubles, so ids are exact up to 2^53 — the
/// binary framing carries the full 64 bits for clients that need them.
bool ParseU64Field(JsonCursor* c, uint64_t* out) {
  double v;
  if (!c->ParseNumber(&v)) return false;
  if (!(v >= 0) || v > 9007199254740992.0 || v != std::floor(v)) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParsePredicateObject(JsonCursor* c, engine::ValuePredicate* out,
                          std::string* error) {
  if (!c->Consume('{')) {
    *error = "predicate must be an object";
    return false;
  }
  if (c->Consume('}')) return true;  // defaults; validated downstream
  for (;;) {
    std::string key;
    if (!c->ParseString(&key) || !c->Consume(':')) {
      *error = "bad predicate key";
      return false;
    }
    bool ok;
    if (key == "attr") {
      ok = ParseU32Field(c, &out->attr);
    } else if (key == "lo") {
      ok = c->ParseNumber(&out->lo);
    } else if (key == "hi") {
      ok = c->ParseNumber(&out->hi);
    } else {
      ok = c->SkipValue(0);
    }
    if (!ok) {
      *error = "bad predicate value for \"" + key + "\"";
      return false;
    }
    if (c->Consume('}')) return true;
    if (!c->Consume(',')) {
      *error = "bad predicate object";
      return false;
    }
  }
}

}  // namespace

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kBadRequest: return "bad_request";
    case StatusCode::kOverloaded: return "overloaded";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kShuttingDown: return "shutting_down";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 200;
    case StatusCode::kBadRequest: return 400;
    case StatusCode::kOverloaded: return 503;
    case StatusCode::kDeadlineExceeded: return 504;
    case StatusCode::kShuttingDown: return 503;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

std::string EncodeQueryFrame(const QueryRequest& request) {
  util::ByteWriter payload;
  payload.WriteU32(request.id);
  uint8_t flags = 0;
  if (request.exact) flags |= 1;
  if (request.count_only) flags |= 2;
  if (request.want_timings) flags |= 4;
  payload.WriteU8(flags);
  payload.WriteU8(0);  // reserved
  payload.WriteU8(static_cast<uint8_t>(request.predicates.size() & 0xff));
  payload.WriteU8(static_cast<uint8_t>((request.predicates.size() >> 8) & 0xff));
  payload.WriteU32(request.deadline_ms);
  payload.WriteU32(static_cast<uint32_t>(request.rows.size()));
  payload.WriteU64(request.trace_id);
  for (const engine::ValuePredicate& p : request.predicates) {
    payload.WriteU32(p.attr);
    payload.WriteDouble(p.lo);
    payload.WriteDouble(p.hi);
  }
  for (uint64_t row : request.rows) payload.WriteU64(row);
  return AssembleFrame(kQueryMagic, payload);
}

std::string EncodeResponseFrame(const QueryResponse& response) {
  util::ByteWriter payload;
  payload.WriteU32(response.id);
  payload.WriteU8(static_cast<uint8_t>(response.status));
  bool has_rows =
      response.status == StatusCode::kOk && !response.row_ids.empty();
  uint8_t flags = 0;
  if (has_rows) flags |= 1;
  if (response.timings.has) flags |= 2;
  payload.WriteU8(flags);
  payload.WriteU8(0);
  payload.WriteU8(0);
  payload.WriteU64(response.trace_id);
  payload.WriteU64(response.count);
  payload.WriteU32(static_cast<uint32_t>(response.error.size()));
  payload.WriteBytes(response.error.data(), response.error.size());
  if (response.timings.has) {
    const StageTimings& t = response.timings;
    payload.WriteU64(t.decode_ns);
    payload.WriteU64(t.validate_ns);
    payload.WriteU64(t.queue_ns);
    payload.WriteU64(t.batch_ns);
    payload.WriteU64(t.engine_ns);
    payload.WriteU64(t.verify_ns);
    payload.WriteU64(t.serialize_ns);
    payload.WriteU64(t.flush_ns);
    payload.WriteU64(t.total_ns);
  }
  payload.WriteU32(has_rows ? static_cast<uint32_t>(response.row_ids.size())
                            : 0);
  if (has_rows) {
    for (uint64_t row : response.row_ids) payload.WriteU64(row);
  }
  return AssembleFrame(kResponseMagic, payload);
}

DecodeStatus DecodeQueryFrame(const uint8_t* data, size_t len,
                              size_t max_frame_bytes, QueryRequest* out,
                              size_t* consumed, std::string* error) {
  const uint8_t* payload;
  size_t payload_len;
  DecodeStatus hs = DecodeFrameHeader(data, len, kQueryMagic, max_frame_bytes,
                                      &payload, &payload_len, consumed, error);
  if (hs != DecodeStatus::kOk) return hs;

  util::ByteReader r(payload, payload_len);
  uint8_t flags, reserved, preds_lo, preds_hi;
  uint32_t num_rows;
  *out = QueryRequest();
  if (!r.ReadU32(&out->id) || !r.ReadU8(&flags) || !r.ReadU8(&reserved) ||
      !r.ReadU8(&preds_lo) || !r.ReadU8(&preds_hi) ||
      !r.ReadU32(&out->deadline_ms) || !r.ReadU32(&num_rows) ||
      !r.ReadU64(&out->trace_id)) {
    *error = "truncated query payload";
    return DecodeStatus::kMalformed;
  }
  if (reserved != 0 || (flags & ~0x7u) != 0) {
    *error = "unknown query flags";
    return DecodeStatus::kMalformed;
  }
  out->exact = (flags & 1) != 0;
  out->count_only = (flags & 2) != 0;
  out->want_timings = (flags & 4) != 0;
  size_t num_predicates = preds_lo | (static_cast<size_t>(preds_hi) << 8);
  if (num_predicates > kMaxPredicates) {
    *error = "too many predicates";
    return DecodeStatus::kMalformed;
  }
  // The declared element counts must account for the payload exactly —
  // reject both short payloads and trailing garbage.
  if (payload_len != kQueryFixedBytes + num_predicates * kPredicateBytes +
                         static_cast<size_t>(num_rows) * 8) {
    *error = "query payload length mismatch";
    return DecodeStatus::kMalformed;
  }
  out->predicates.resize(num_predicates);
  for (engine::ValuePredicate& p : out->predicates) {
    if (!r.ReadU32(&p.attr) || !r.ReadDouble(&p.lo) || !r.ReadDouble(&p.hi)) {
      *error = "truncated predicate";
      return DecodeStatus::kMalformed;
    }
  }
  out->rows.resize(num_rows);
  for (uint64_t& row : out->rows) {
    if (!r.ReadU64(&row)) {
      *error = "truncated row list";
      return DecodeStatus::kMalformed;
    }
  }
  return DecodeStatus::kOk;
}

DecodeStatus DecodeResponseFrame(const uint8_t* data, size_t len,
                                 size_t max_frame_bytes, QueryResponse* out,
                                 size_t* consumed) {
  const uint8_t* payload;
  size_t payload_len;
  DecodeStatus hs =
      DecodeFrameHeader(data, len, kResponseMagic, max_frame_bytes, &payload,
                        &payload_len, consumed, nullptr);
  if (hs != DecodeStatus::kOk) return hs;

  util::ByteReader r(payload, payload_len);
  uint8_t status, flags, r0, r1;
  uint32_t error_len;
  *out = QueryResponse();
  if (!r.ReadU32(&out->id) || !r.ReadU8(&status) || !r.ReadU8(&flags) ||
      !r.ReadU8(&r0) || !r.ReadU8(&r1) || !r.ReadU64(&out->trace_id) ||
      !r.ReadU64(&out->count) || !r.ReadU32(&error_len)) {
    return DecodeStatus::kMalformed;
  }
  if (status > static_cast<uint8_t>(StatusCode::kInternal)) {
    return DecodeStatus::kMalformed;
  }
  out->status = static_cast<StatusCode>(status);
  if (error_len > r.remaining()) return DecodeStatus::kMalformed;
  out->error.resize(error_len);
  if (error_len > 0 && !r.ReadBytes(&out->error[0], error_len)) {
    return DecodeStatus::kMalformed;
  }
  if ((flags & 2) != 0) {
    StageTimings& t = out->timings;
    if (r.remaining() < kTimingsBytes || !r.ReadU64(&t.decode_ns) ||
        !r.ReadU64(&t.validate_ns) || !r.ReadU64(&t.queue_ns) ||
        !r.ReadU64(&t.batch_ns) || !r.ReadU64(&t.engine_ns) ||
        !r.ReadU64(&t.verify_ns) || !r.ReadU64(&t.serialize_ns) ||
        !r.ReadU64(&t.flush_ns) || !r.ReadU64(&t.total_ns)) {
      return DecodeStatus::kMalformed;
    }
    t.has = true;
  }
  uint32_t num_rows;
  if (!r.ReadU32(&num_rows)) return DecodeStatus::kMalformed;
  if (static_cast<size_t>(num_rows) * 8 != r.remaining()) {
    return DecodeStatus::kMalformed;
  }
  out->row_ids.resize(num_rows);
  for (uint64_t& row : out->row_ids) {
    if (!r.ReadU64(&row)) return DecodeStatus::kMalformed;
  }
  return DecodeStatus::kOk;
}

bool ParseJsonQuery(std::string_view body, QueryRequest* out,
                    std::string* error) {
  *out = QueryRequest();
  JsonCursor c(body);
  if (!c.Consume('{')) {
    *error = "body must be a JSON object";
    return false;
  }
  if (!c.Consume('}')) {
    for (;;) {
      std::string key;
      if (!c.ParseString(&key) || !c.Consume(':')) {
        *error = "malformed JSON key";
        return false;
      }
      bool ok = true;
      if (key == "predicates") {
        if (!c.Consume('[')) {
          *error = "\"predicates\" must be an array";
          return false;
        }
        if (!c.Consume(']')) {
          for (;;) {
            if (out->predicates.size() >= kMaxPredicates) {
              *error = "too many predicates";
              return false;
            }
            engine::ValuePredicate p;
            if (!ParsePredicateObject(&c, &p, error)) return false;
            out->predicates.push_back(p);
            if (c.Consume(']')) break;
            if (!c.Consume(',')) {
              *error = "malformed predicates array";
              return false;
            }
          }
        }
      } else if (key == "rows") {
        if (!c.Consume('[')) {
          *error = "\"rows\" must be an array";
          return false;
        }
        if (!c.Consume(']')) {
          for (;;) {
            double v;
            if (!c.ParseNumber(&v) || !(v >= 0) || v != std::floor(v)) {
              *error = "row ids must be non-negative integers";
              return false;
            }
            out->rows.push_back(static_cast<uint64_t>(v));
            if (c.Consume(']')) break;
            if (!c.Consume(',')) {
              *error = "malformed rows array";
              return false;
            }
          }
        }
      } else if (key == "exact") {
        ok = c.ParseBool(&out->exact);
      } else if (key == "count_only") {
        ok = c.ParseBool(&out->count_only);
      } else if (key == "deadline_ms") {
        ok = ParseU32Field(&c, &out->deadline_ms);
      } else if (key == "id") {
        ok = ParseU32Field(&c, &out->id);
      } else if (key == "trace_id") {
        ok = ParseU64Field(&c, &out->trace_id);
      } else if (key == "timings") {
        ok = c.ParseBool(&out->want_timings);
      } else {
        ok = c.SkipValue(0);
      }
      if (!ok) {
        *error = "bad value for \"" + key + "\"";
        return false;
      }
      if (c.Consume('}')) break;
      if (!c.Consume(',')) {
        *error = "malformed JSON object";
        return false;
      }
    }
  }
  if (!c.AtEnd()) {
    *error = "trailing data after JSON object";
    return false;
  }
  return true;
}

bool ParseJsonInsert(std::string_view body, InsertRequest* out,
                     std::string* error) {
  *out = InsertRequest();
  JsonCursor c(body);
  if (!c.Consume('{')) {
    *error = "body must be a JSON object";
    return false;
  }
  // Parses one [v, v, ...] into a fresh row of *out, enforcing the row
  // bound. Shared by both accepted shapes.
  auto parse_row = [&c, out, error]() {
    if (out->rows.size() >= kMaxInsertRows) {
      *error = "too many rows";
      return false;
    }
    std::vector<double> row;
    if (!c.Consume('[')) {
      *error = "row must be an array of numbers";
      return false;
    }
    if (!c.Consume(']')) {
      for (;;) {
        double v;
        if (!c.ParseNumber(&v)) {
          *error = "row values must be numbers";
          return false;
        }
        row.push_back(v);
        if (c.Consume(']')) break;
        if (!c.Consume(',')) {
          *error = "malformed row array";
          return false;
        }
      }
    }
    out->rows.push_back(std::move(row));
    return true;
  };
  if (!c.Consume('}')) {
    for (;;) {
      std::string key;
      if (!c.ParseString(&key) || !c.Consume(':')) {
        *error = "malformed JSON key";
        return false;
      }
      bool ok = true;
      if (key == "values") {
        ok = parse_row();
      } else if (key == "rows") {
        if (!c.Consume('[')) {
          *error = "\"rows\" must be an array of arrays";
          return false;
        }
        if (!c.Consume(']')) {
          for (;;) {
            if (!parse_row()) return false;
            if (c.Consume(']')) break;
            if (!c.Consume(',')) {
              *error = "malformed rows array";
              return false;
            }
          }
        }
      } else {
        ok = c.SkipValue(0);
      }
      if (!ok) {
        if (error->empty()) *error = "bad value for \"" + key + "\"";
        return false;
      }
      if (c.Consume('}')) break;
      if (!c.Consume(',')) {
        *error = "malformed JSON object";
        return false;
      }
    }
  }
  if (!c.AtEnd()) {
    *error = "trailing data after JSON object";
    return false;
  }
  if (out->rows.empty()) {
    *error = "no rows: provide \"values\" or \"rows\"";
    return false;
  }
  return true;
}

std::string InsertResponseToJson(const InsertResponse& response) {
  std::string out;
  out.reserve(64 + response.row_ids.size() * 8);
  out.append("{\"status\":\"");
  out.append(StatusCodeName(response.status));
  out.push_back('"');
  if (response.status != StatusCode::kOk) {
    out.append(",\"error\":\"");
    AppendJsonEscaped(response.error, &out);
    out.push_back('"');
  } else {
    out.append(",\"rows\":[");
    for (size_t i = 0; i < response.row_ids.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append(std::to_string(response.row_ids[i]));
    }
    out.append("],\"total_rows\":");
    out.append(std::to_string(response.total_rows));
  }
  out.push_back('}');
  return out;
}

std::string ResponseToJson(const QueryResponse& response) {
  std::string out;
  out.reserve(128 + response.row_ids.size() * 8);
  out.append("{\"id\":");
  out.append(std::to_string(response.id));
  out.append(",\"trace_id\":");
  out.append(std::to_string(response.trace_id));
  out.append(",\"status\":\"");
  out.append(StatusCodeName(response.status));
  out.push_back('"');
  if (response.status != StatusCode::kOk) {
    out.append(",\"error\":\"");
    AppendJsonEscaped(response.error, &out);
    out.push_back('"');
  }
  out.append(",\"count\":");
  out.append(std::to_string(response.count));
  if (response.status == StatusCode::kOk && !response.row_ids.empty()) {
    out.append(",\"rows\":[");
    for (size_t i = 0; i < response.row_ids.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append(std::to_string(response.row_ids[i]));
    }
    out.push_back(']');
  }
  if (response.path[0] != '\0') {
    out.append(",\"path\":\"");
    out.append(response.path);
    out.push_back('"');
  }
  if (response.batch_size > 0) {
    out.append(",\"batch_size\":");
    out.append(std::to_string(response.batch_size));
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"latency_us\":%.1f",
                  response.latency_us);
    out.append(buf);
  }
  if (response.timings.has) {
    const StageTimings& t = response.timings;
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        ",\"timings\":{\"decode_us\":%.1f,\"validate_us\":%.1f,"
        "\"queue_us\":%.1f,\"batch_us\":%.1f,\"engine_us\":%.1f,"
        "\"verify_us\":%.1f,\"serialize_us\":%.1f,\"flush_us\":%.1f,"
        "\"total_us\":%.1f}",
        static_cast<double>(t.decode_ns) / 1000.0,
        static_cast<double>(t.validate_ns) / 1000.0,
        static_cast<double>(t.queue_ns) / 1000.0,
        static_cast<double>(t.batch_ns) / 1000.0,
        static_cast<double>(t.engine_ns) / 1000.0,
        static_cast<double>(t.verify_ns) / 1000.0,
        static_cast<double>(t.serialize_ns) / 1000.0,
        static_cast<double>(t.flush_ns) / 1000.0,
        static_cast<double>(t.total_ns) / 1000.0);
    out.append(buf);
  }
  out.push_back('}');
  return out;
}

}  // namespace serve
}  // namespace abitmap
