#include "serve/server.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/appendf.h"
#include "obs/http.h"
#include "obs/slowlog.h"
#include "obs/stats.h"
#include "obs/timeseries.h"
#include "serve/protocol.h"
#include "util/logging.h"
#include "util/net.h"

namespace abitmap {
namespace serve {

namespace {

std::string RenderHttp(int status, const char* content_type,
                       std::string body) {
  return obs::RenderHttpResponse(
      obs::HttpResponse{status, content_type, std::move(body)},
      /*head=*/false);
}

std::string RenderHttpQueryResponse(const QueryResponse& response) {
  return RenderHttp(HttpStatusFor(response.status), "application/json",
                    ResponseToJson(response) + "\n");
}

struct HttpRequestData {
  std::string method;
  std::string path;
  std::string body;
};

/// Parses one HTTP/1.1 request (request line + headers + optional
/// Content-Length body) from the front of `in`. Distinguishes an
/// incomplete prefix from a malformed or oversized request; on
/// kMalformed, *error_status carries the HTTP status to answer with.
DecodeStatus ParseHttpRequest(const std::string& in, size_t max_bytes,
                              HttpRequestData* out, size_t* consumed,
                              int* error_status) {
  size_t header_end = in.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (in.size() > max_bytes) {
      *error_status = 431;
      return DecodeStatus::kMalformed;
    }
    return DecodeStatus::kNeedMore;
  }

  size_t line_end = in.find("\r\n");
  if (!obs::ParseRequestLine(in.substr(0, line_end), &out->method,
                             &out->path)) {
    *error_status = 400;
    return DecodeStatus::kMalformed;
  }

  // Scan headers for Content-Length (case-insensitive); everything else
  // is irrelevant to this server.
  size_t content_length = 0;
  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t eol = in.find("\r\n", pos);
    std::string header = in.substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = header.find(':');
    if (colon == std::string::npos) continue;
    std::string name = header.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(
        static_cast<unsigned char>(c)));
    if (name == "content-length") {
      char* endp = nullptr;
      std::string value = header.substr(colon + 1);
      unsigned long long v = std::strtoull(value.c_str(), &endp, 10);
      while (endp != nullptr && *endp == ' ') ++endp;
      if (endp == value.c_str() || (endp != nullptr && *endp != '\0')) {
        *error_status = 400;
        return DecodeStatus::kMalformed;
      }
      content_length = static_cast<size_t>(v);
    }
  }
  size_t total = header_end + 4 + content_length;
  if (total > max_bytes) {
    *error_status = 431;
    return DecodeStatus::kMalformed;
  }
  if (in.size() < total) return DecodeStatus::kNeedMore;
  out->body = in.substr(header_end + 4, content_length);
  *consumed = total;
  return DecodeStatus::kOk;
}

void AppendGauge(std::string* out, const char* name, const char* help,
                 double value) {
  obs::internal::Appendf(out, "# HELP %s %s\n# TYPE %s gauge\n%s %.9g\n",
                         name, help, name, name, value);
}

/// Live engine/serve gauges appended to the /metrics body. These are
/// point-in-time reads of live state (not obs counters), so they exist in
/// both stats configurations — the ingest health surface must not go dark
/// in a stats-off build.
std::string IngestGaugesPrometheus(engine::HybridEngine* engine,
                                   size_t backlog_depth,
                                   uint64_t slow_threshold_ns) {
  std::string out;
  engine::HybridEngine::IngestStats ing = engine->GetIngestStats();
  AppendGauge(&out, "abitmap_engine_total_rows",
              "Committed rows, base plus ingested (dead rows included)",
              static_cast<double>(engine->TotalRows()));
  AppendGauge(&out, "abitmap_engine_delta_live",
              "Ingested rows not deleted",
              static_cast<double>(ing.delta_live));
  AppendGauge(&out, "abitmap_serve_queue_depth",
              "Queries decoded and not yet executed, across workers",
              static_cast<double>(backlog_depth));
  AppendGauge(&out, "abitmap_serve_slow_threshold_ns",
              "Slow-query log retention threshold in nanoseconds",
              static_cast<double>(slow_threshold_ns));
  return out;
}

}  // namespace

/// One epoll event loop owning a disjoint set of connections, run to
/// completion: the loop decodes a connection's requests, executes each on
/// its own thread through the QueryService and writes the reply. All
/// connection state is confined to the loop thread; the only cross-thread
/// surface is the inbox of new fds from the acceptor, under a mutex, with
/// an eventfd to wake the loop.
class QueryServer::Worker {
 public:
  explicit Worker(QueryServer* server) : server_(server) {}

  ~Worker() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (event_fd_ >= 0) ::close(event_fd_);
  }

  util::Status Start() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return util::Status::FailedPrecondition("epoll_create1 failed");
    }
    event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (event_fd_ < 0) {
      return util::Status::FailedPrecondition("eventfd failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // token 0 = the wakeup eventfd
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
      return util::Status::FailedPrecondition("epoll_ctl(eventfd) failed");
    }
    thread_ = std::thread([this]() { Loop(); });
    return util::Status::Ok();
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Acceptor handoff. The fd is already non-blocking.
  void AddConnection(int fd) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inbox_.push_back(fd);
    }
    Wake();
  }

  /// Queries this loop holds decoded and not yet executed (a relaxed
  /// read for the /metrics gauge; it is nonzero only mid-burst).
  size_t backlog_depth() const {
    return backlog_depth_.load(std::memory_order_relaxed);
  }

 private:
  enum class Proto { kUnknown, kBinary, kHttp };

  struct Conn {
    int fd = -1;
    uint64_t token = 0;
    Proto proto = Proto::kUnknown;
    std::string in;
    std::string out;
    size_t out_off = 0;
    bool close_after_write = false;
    bool want_write = false;
    /// HTTP: one request in flight; buffered bytes wait for its response
    /// (connections are Connection: close, so there is nothing to wait
    /// for anyway). Binary connections pipeline freely.
    bool paused = false;
    /// A protocol violation was answered; ignore any further input.
    bool failed = false;
  };

  void Wake() {
    uint64_t one = 1;
    ssize_t n = ::write(event_fd_, &one, sizeof(one));
    (void)n;  // EAGAIN means a wakeup is already pending — good enough
  }

  void Loop() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    for (;;) {
      int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 100);
      // Reset the wakeup eventfd before draining the inbox: a handoff
      // that lands after the drain re-arms it, so the next epoll_wait
      // returns at once instead of waiting out its timeout.
      for (int i = 0; i < n; ++i) {
        if (events[i].data.u64 != 0) continue;
        uint64_t val;
        while (::read(event_fd_, &val, sizeof(val)) > 0) {
        }
      }
      DrainInbox();
      if (stop_.load(std::memory_order_acquire)) break;
      for (int i = 0; i < n; ++i) {
        uint64_t token = events[i].data.u64;
        if (token == 0) continue;
        auto it = conns_.find(token);
        if (it == conns_.end()) continue;  // closed earlier this sweep
        if (events[i].events & (EPOLLERR | EPOLLHUP)) {
          CloseConn(token);
          continue;
        }
        if (events[i].events & EPOLLIN) {
          if (!OnReadable(it->second)) {
            CloseConn(token);
            continue;
          }
        }
        if (events[i].events & EPOLLOUT) {
          auto it2 = conns_.find(token);
          if (it2 != conns_.end() && !FlushOut(it2->second)) CloseConn(token);
        }
      }
    }
    // Shutdown: every query this loop admitted has been answered. Flush
    // what can be flushed within a short grace period, then close
    // everything.
    DrainInbox();
    for (auto& [token, conn] : conns_) {
      for (int attempt = 0; attempt < 10 && conn.out_off < conn.out.size();
           ++attempt) {
        if (!FlushPending(conn)) break;
        if (conn.out_off < conn.out.size()) {
          pollfd pfd{conn.fd, POLLOUT, 0};
          ::poll(&pfd, 1, 10);
        }
      }
      ::close(conn.fd);
      server_->live_connections_.fetch_sub(1, std::memory_order_relaxed);
    }
    conns_.clear();
  }

  void DrainInbox() {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fds.swap(inbox_);
    }
    for (int fd : fds) RegisterConn(fd);
  }

  void RegisterConn(int fd) {
    uint64_t token = next_token_++;
    Conn conn;
    conn.fd = fd;
    conn.token = token;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = token;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      server_->live_connections_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    conns_.emplace(token, std::move(conn));
  }

  void CloseConn(uint64_t token) {
    auto it = conns_.find(token);
    if (it == conns_.end()) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
    ::close(it->second.fd);
    conns_.erase(it);
    server_->live_connections_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Reads until EAGAIN, then parses. Returns false when the connection
  /// should close (EOF, error).
  bool OnReadable(Conn& conn) {
    char buf[16384];
    for (;;) {
      ssize_t n = util::net::RecvSome(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        if (!conn.failed) conn.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) break;  // drained (EAGAIN)
      return false;       // EOF or hard error
    }
    return ParseBuffered(conn);
  }

  bool ParseBuffered(Conn& conn) {
    if (conn.failed) return true;  // error response in flight
    if (conn.proto == Proto::kUnknown) {
      if (conn.in.size() < 4) return true;
      uint32_t magic;
      std::memcpy(&magic, conn.in.data(), 4);
      conn.proto = (magic == kQueryMagic) ? Proto::kBinary : Proto::kHttp;
    }
    return conn.proto == Proto::kBinary ? ParseBinary(conn) : ParseHttp(conn);
  }

  /// Decodes every complete frame buffered on the connection and admits
  /// it to the backlog, then executes the backlog in arrival order and
  /// answers each query. Rejections (schema, a full backlog) follow the
  /// answers; clients match responses by id. A malformed frame is
  /// answered last, with an error frame, and closes the connection.
  bool ParseBinary(Conn& conn) {
    const uint64_t token = conn.token;
    const uint8_t* data = reinterpret_cast<const uint8_t*>(conn.in.data());
    size_t off = 0;
    std::vector<QueryResponse> rejected;
    std::string malformed;
    while (off < conn.in.size()) {
      QueryRequest request;
      size_t consumed = 0;
      std::string derr;
      uint64_t decode_start = MonotonicNowNs();
      DecodeStatus st = DecodeQueryFrame(
          data + off, conn.in.size() - off, server_->options_.max_request_bytes,
          &request, &consumed, &derr);
      uint64_t decode_ns = MonotonicNowNs() - decode_start;
      if (st == DecodeStatus::kNeedMore) break;
      if (st == DecodeStatus::kMalformed) {
        AB_STATS_INC(obs::Counter::kServeBadRequests);
        malformed = std::move(derr);
        conn.failed = true;
        off = conn.in.size();
        break;
      }
      off += consumed;
      AB_STATS_HIST(obs::Histogram::kServeDecodeNs, decode_ns);
      QueryResponse reject;
      if (!server_->service_->Admit(std::move(request), decode_ns, &backlog_,
                                    &reject)) {
        rejected.push_back(std::move(reject));
      }
      backlog_depth_.store(backlog_.size(), std::memory_order_relaxed);
    }
    conn.in.erase(0, off);
    // Every Reply may close (and erase) the connection, so from here on
    // it is addressed by token only.
    bool alive = RunBacklog(token, Proto::kBinary);
    for (size_t i = 0; alive && i < rejected.size(); ++i) {
      alive = Reply(token, Proto::kBinary, rejected[i]);
    }
    if (alive && conn.failed) {
      QueryResponse resp;
      resp.status = StatusCode::kBadRequest;
      resp.error = std::move(malformed);
      alive = Reply(token, Proto::kBinary, resp, /*close_after=*/true);
    }
    return alive;
  }

  bool ParseHttp(Conn& conn) {
    if (conn.paused) return true;
    HttpRequestData request;
    size_t consumed = 0;
    int error_status = 400;
    DecodeStatus st =
        ParseHttpRequest(conn.in, server_->options_.max_request_bytes,
                         &request, &consumed, &error_status);
    if (st == DecodeStatus::kNeedMore) return true;
    if (st == DecodeStatus::kMalformed) {
      AB_STATS_INC(obs::Counter::kServeBadRequests);
      conn.failed = true;
      conn.in.clear();
      uint64_t token = conn.token;
      QueueBytes(conn,
                 RenderHttp(error_status, "text/plain", "bad request\n"),
                 /*close_after=*/true);
      return conns_.count(token) > 0;
    }
    conn.in.erase(0, consumed);
    conn.paused = true;  // Connection: close — one request per connection

    if (request.method == "POST" && request.path == "/query") {
      QueryRequest query;
      std::string perr;
      uint64_t decode_start = MonotonicNowNs();
      bool parsed = ParseJsonQuery(request.body, &query, &perr);
      uint64_t decode_ns = MonotonicNowNs() - decode_start;
      if (!parsed) {
        AB_STATS_INC(obs::Counter::kServeBadRequests);
        QueryResponse resp;
        resp.id = query.id;
        resp.status = StatusCode::kBadRequest;
        resp.error = perr;
        uint64_t token = conn.token;
        QueueBytes(conn, RenderHttpQueryResponse(resp), /*close_after=*/true);
        return conns_.count(token) > 0;
      }
      AB_STATS_HIST(obs::Histogram::kServeDecodeNs, decode_ns);
      QueryResponse reject;
      if (!server_->service_->Admit(std::move(query), decode_ns, &backlog_,
                                    &reject)) {
        return Reply(conn.token, Proto::kHttp, reject);
      }
      return RunBacklog(conn.token, Proto::kHttp);
    }
    if (request.method == "POST" && request.path == "/insert") {
      // Ingest runs inline on this worker thread, like queries:
      // IngestRow is internally synchronized and safe against the other
      // workers' concurrent queries.
      InsertRequest insert;
      std::string perr;
      InsertResponse resp;
      if (!ParseJsonInsert(request.body, &insert, &perr)) {
        AB_STATS_INC(obs::Counter::kServeBadRequests);
        resp.status = StatusCode::kBadRequest;
        resp.error = perr;
      } else {
        resp = server_->service_->HandleInsert(insert);
      }
      uint64_t token = conn.token;
      QueueBytes(conn,
                 RenderHttp(HttpStatusFor(resp.status), "application/json",
                            InsertResponseToJson(resp) + "\n"),
                 /*close_after=*/true);
      return conns_.count(token) > 0;
    }
    if (request.method == "GET" || request.method == "HEAD") {
      obs::HttpResponse response = obs::HandleObsGet(request.path);
      if (request.path == "/metrics") {
        size_t backlog = 0;
        for (const auto& w : server_->workers_) backlog += w->backlog_depth();
        response.body += IngestGaugesPrometheus(
            server_->engine_, backlog, server_->options_.slow_threshold_ns);
      }
      uint64_t token = conn.token;
      QueueBytes(conn,
                 obs::RenderHttpResponse(response, request.method == "HEAD"),
                 /*close_after=*/true);
      return conns_.count(token) > 0;
    }
    uint64_t token = conn.token;
    QueueBytes(conn,
               RenderHttp(405, "text/plain", "method not allowed\n"),
               /*close_after=*/true);
    return conns_.count(token) > 0;
  }

  /// Executes the backlog in order on this thread and answers each
  /// query on `token`. Returns false once the connection is gone; the
  /// queries left are dropped with it.
  bool RunBacklog(uint64_t token, Proto proto) {
    bool alive = true;
    for (size_t i = 0; alive && i < backlog_.size(); ++i) {
      alive = Reply(token, proto, server_->service_->Run(&backlog_[i]));
    }
    backlog_.clear();
    backlog_depth_.store(0, std::memory_order_relaxed);
    return alive;
  }

  /// Serializes one response and writes it on `token`'s connection, which
  /// closes after it when `close_after` or for HTTP. Returns false when
  /// the connection is gone.
  bool Reply(uint64_t token, Proto proto, const QueryResponse& resp,
             bool close_after = false) {
    uint64_t serialize_start = MonotonicNowNs();
    std::string bytes = proto == Proto::kHttp ? RenderHttpQueryResponse(resp)
                                              : EncodeResponseFrame(resp);
    uint64_t serialize_ns = MonotonicNowNs() - serialize_start;
    AB_STATS_HIST(obs::Histogram::kServeSerializeNs, serialize_ns);
    // Slow-query retention: Run always fills the numeric timing fields,
    // so the threshold check works whether or not the client asked for a
    // wire echo. serialize_ns lands only here — a response cannot carry
    // its own rendering cost.
    if (obs::kStatsEnabled &&
        resp.timings.total_ns >= obs::SlowLogThresholdNs()) {
      obs::SlowQueryRecord rec;
      rec.trace_id = resp.trace_id;
      rec.request_id = resp.id;
      rec.status = static_cast<uint32_t>(resp.status);
      rec.batch_size = resp.batch_size;
      rec.mono_ns = serialize_start + serialize_ns;
      rec.total_ns = resp.timings.total_ns;
      rec.decode_ns = resp.timings.decode_ns;
      rec.queue_ns = resp.timings.queue_ns;
      rec.batch_ns = resp.timings.batch_ns;
      rec.engine_ns = resp.timings.engine_ns;
      rec.verify_ns = resp.timings.verify_ns;
      rec.serialize_ns = serialize_ns;
      rec.path = resp.trace.path;
      rec.candidates = resp.trace.candidates;
      rec.verified_matches = resp.trace.verified_matches;
      rec.observed_precision = resp.trace.observed_precision;
      obs::RecordSlowQuery(rec);
    }
    auto it = conns_.find(token);
    if (it == conns_.end()) return false;
    QueueBytes(it->second, std::move(bytes),
               close_after || proto == Proto::kHttp);
    return conns_.count(token) > 0;
  }

  /// Appends bytes and attempts an immediate non-blocking flush; closes
  /// the connection on write failure or when done and marked for close.
  void QueueBytes(Conn& conn, std::string bytes, bool close_after) {
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    conn.out += bytes;
    if (close_after) conn.close_after_write = true;
    if (!FlushOut(conn)) CloseConn(conn.token);
  }

  /// One write pass. Returns false when the connection must close.
  bool FlushOut(Conn& conn) {
    if (!FlushPending(conn)) return false;
    bool drained = conn.out_off == conn.out.size();
    if (drained && conn.close_after_write) return false;
    bool want_write = !drained;
    if (want_write != conn.want_write) {
      conn.want_write = want_write;
      epoll_event ev{};
      ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0);
      ev.data.u64 = conn.token;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
    }
    return true;
  }

  /// Non-blocking sends until EAGAIN or drained. False = peer gone.
  bool FlushPending(Conn& conn) {
    if (conn.out_off == conn.out.size()) return true;
    // Histogram the wall time of this write pass; the loop never blocks
    // (EAGAIN exits), so this prices syscall + copy cost, not waiting.
    [[maybe_unused]] uint64_t flush_start =
        obs::kStatsEnabled ? MonotonicNowNs() : 0;
    bool alive = true;
    while (conn.out_off < conn.out.size()) {
      ssize_t n = util::net::SendSome(conn.fd, conn.out.data() + conn.out_off,
                                      conn.out.size() - conn.out_off);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0) alive = false;  // peer gone
      break;                     // n == 0: EAGAIN, wait for EPOLLOUT
    }
    if (obs::kStatsEnabled) {
      AB_STATS_HIST(obs::Histogram::kServeFlushNs,
                    MonotonicNowNs() - flush_start);
    }
    return alive;
  }

  QueryServer* server_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<int> inbox_;
  /// Loop-thread only.
  std::unordered_map<uint64_t, Conn> conns_;
  std::vector<PendingQuery> backlog_;  ///< decoded, not yet executed
  std::atomic<size_t> backlog_depth_{0};
  uint64_t next_token_ = 1;
};

QueryServer::QueryServer(engine::HybridEngine* engine,
                         const Options& options)
    : engine_(engine), options_(options) {
  if (options_.num_workers < 1) options_.num_workers = 1;
}

QueryServer::~QueryServer() { Stop(); }

util::Status QueryServer::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    return util::Status::FailedPrecondition("QueryServer already started");
  }
  stop_.store(false, std::memory_order_release);
  live_connections_.store(0, std::memory_order_relaxed);
  next_worker_ = 0;
  obs::SetSlowLogThresholdNs(options_.slow_threshold_ns);

  service_ = std::make_unique<QueryService>(engine_, options_.service);

  util::StatusOr<int> fd =
      util::net::ListenLoopback(options_.port, options_.backlog, &port_);
  if (!fd.ok()) {
    service_.reset();
    running_.store(false, std::memory_order_release);
    return fd.status();
  }
  listen_fd_ = fd.value();

  workers_.clear();
  for (int i = 0; i < options_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>(this);
    util::Status st = worker->Start();
    if (!st.ok()) {
      for (auto& w : workers_) w->RequestStop();
      for (auto& w : workers_) w->Join();
      workers_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      service_.reset();
      running_.store(false, std::memory_order_release);
      return st;
    }
    workers_.push_back(std::move(worker));
  }

  acceptor_ = std::thread([this]() { AcceptLoop(); });
  // The telemetry ticker feeds the /timeseries.json ring; without stats
  // the ring is a no-op, so don't spend a thread on it.
  if (obs::kStatsEnabled && options_.telemetry_interval_ms != 0) {
    telemetry_ = std::thread([this]() { TelemetryLoop(); });
  }
  return util::Status::Ok();
}

void QueryServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (telemetry_.joinable()) telemetry_.join();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Queries decoded from here on are answered kShuttingDown; each worker
  // finishes the queries it already admitted, flushes and closes.
  if (service_) service_->Stop();
  for (auto& w : workers_) w->RequestStop();
  for (auto& w : workers_) w->Join();
  workers_.clear();
  service_.reset();
}

void QueryServer::TelemetryLoop() {
  const uint64_t interval_ns =
      static_cast<uint64_t>(options_.telemetry_interval_ms) * 1000000ull;
  uint64_t next_ns = MonotonicNowNs() + interval_ns;
  while (!stop_.load(std::memory_order_acquire)) {
    // Short sleep chunks so Stop() never waits a full interval.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    uint64_t now = MonotonicNowNs();
    if (now < next_ns) continue;
    next_ns = now + interval_ns;

    obs::TsSample s = obs::TsSampleFromStats(obs::SnapshotStats());
    s.mono_ns = now;
    s.wall_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    s.delta_live = engine_->GetIngestStats().delta_live;
    obs::RecordTimeSeriesSample(s);
  }
}

void QueryServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    if (live_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Bounded connection table: shed at accept rather than queueing
      // unbounded fds. The abrupt close is the backpressure signal.
      ::close(conn);
      continue;
    }
    if (!util::net::SetNonBlocking(conn)) {
      ::close(conn);
      continue;
    }
    util::net::SetNoDelay(conn);
    AB_STATS_INC(obs::Counter::kServeConnsAccepted);
    live_connections_.fetch_add(1, std::memory_order_relaxed);
    workers_[next_worker_]->AddConnection(conn);
    next_worker_ = (next_worker_ + 1) % workers_.size();
  }
}

}  // namespace serve
}  // namespace abitmap
