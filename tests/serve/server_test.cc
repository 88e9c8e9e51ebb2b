#include "serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/http.h"
#include "obs/stats.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/workload.h"
#include "util/net.h"

namespace abitmap {
namespace serve {
namespace {

constexpr uint64_t kRows = 3000;

engine::HybridEngine MakeEngine() {
  engine::HybridEngine::Options options;
  options.binning.bins = 16;
  // A pooled build. At 3,000 rows no query reaches the pooled
  // whole-relation pass (HybridEngine's 16,384-row floor), so every query
  // runs on its worker's thread; ConcurrentPoolCoordinatorsMatchSerialExecute
  // drives the pooled pass.
  options.num_threads = 2;
  return engine::HybridEngine::Build(MakeSeedTable(kRows, 11), options);
}

/// A minimal blocking binary-protocol client for tests.
class Client {
 public:
  static Client Connect(uint16_t port) {
    util::StatusOr<int> fd = util::net::ConnectLoopback(port);
    AB_CHECK(fd.ok());
    util::net::SetRecvTimeout(fd.value(), 10000);
    return Client(fd.value());
  }

  explicit Client(int fd) : fd_(fd) {}
  ~Client() { Close(); }
  Client(Client&& o) : fd_(o.fd_), buffer_(std::move(o.buffer_)) {
    o.fd_ = -1;
  }
  Client(const Client&) = delete;

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendRaw(const std::string& bytes) {
    return util::net::SendAll(fd_, bytes.data(), bytes.size());
  }

  bool Send(const QueryRequest& request) {
    return SendRaw(EncodeQueryFrame(request));
  }

  /// Blocks for one response frame; false on timeout/close/bad frame.
  bool Receive(QueryResponse* response) {
    char chunk[16384];
    for (;;) {
      size_t consumed = 0;
      DecodeStatus st = DecodeResponseFrame(
          reinterpret_cast<const uint8_t*>(buffer_.data()), buffer_.size(),
          64u << 20, response, &consumed);
      if (st == DecodeStatus::kOk) {
        buffer_.erase(0, consumed);
        return true;
      }
      if (st == DecodeStatus::kMalformed) return false;
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  bool RoundTrip(const QueryRequest& request, QueryResponse* response) {
    return Send(request) && Receive(response);
  }

  /// Reads until the peer closes; returns everything seen (HTTP mode).
  std::string ReadUntilClose() {
    std::string out = std::move(buffer_);
    buffer_.clear();
    char chunk[16384];
    for (;;) {
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) break;
      out.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class QueryServerTest : public ::testing::Test {
 protected:
  QueryServerTest() : engine_(MakeEngine()) {}

  QueryServer::Options DefaultOptions() {
    QueryServer::Options options;
    options.num_workers = 2;
    return options;
  }

  engine::HybridEngine engine_;
};

TEST_F(QueryServerTest, ConcurrentClientsGetBitIdenticalResults) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());

  TemplateOptions template_options;
  template_options.num_templates = 16;
  template_options.row_fraction = 0.05;
  template_options.count_only = false;  // compare full row-id lists
  std::vector<QueryRequest> templates =
      MakeQueryTemplates(kRows, template_options);

  // Reference answers computed directly against the engine.
  std::vector<std::vector<uint64_t>> expected;
  for (const QueryRequest& t : templates) {
    engine::EngineQuery q;
    q.predicates = t.predicates;
    q.rows = t.rows;
    q.exact = t.exact;
    expected.push_back(engine_.Execute(q).row_ids);
  }

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Client client = Client::Connect(server.port());
      ZipfSampler sampler(templates.size(), 0.9,
                          static_cast<uint64_t>(c) + 1);
      for (int i = 0; i < kQueriesPerClient; ++i) {
        size_t pick = sampler.Next();
        QueryRequest request = templates[pick];
        request.id = static_cast<uint32_t>(i + 1);
        QueryResponse response;
        if (!client.RoundTrip(request, &response) ||
            response.status != StatusCode::kOk ||
            response.id != request.id ||
            response.row_ids != expected[pick]) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

TEST_F(QueryServerTest, PipelinedRequestsOnOneConnectionAllAnswer) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());

  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 10.0, 80.0});
  request.count_only = true;

  engine::EngineQuery direct;
  direct.predicates = request.predicates;
  uint64_t expected = engine_.Execute(direct).row_ids.size();

  Client client = Client::Connect(server.port());
  constexpr int kPipelined = 25;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    QueryRequest r = request;
    r.id = static_cast<uint32_t>(i + 1);
    burst += EncodeQueryFrame(r);
  }
  ASSERT_TRUE(client.SendRaw(burst));
  std::vector<bool> answered(kPipelined + 1, false);
  for (int i = 0; i < kPipelined; ++i) {
    QueryResponse response;
    ASSERT_TRUE(client.Receive(&response)) << i;
    EXPECT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.count, expected);
    ASSERT_GE(response.id, 1u);
    ASSERT_LE(response.id, static_cast<uint32_t>(kPipelined));
    EXPECT_FALSE(answered[response.id]) << "duplicate id " << response.id;
    answered[response.id] = true;
  }
  server.Stop();
}

TEST_F(QueryServerTest, HttpQueryMatchesEngineAndMetricsServe) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());

  engine::EngineQuery direct;
  direct.predicates.push_back(engine::ValuePredicate{0, 20.0, 60.0});
  uint64_t expected = engine_.Execute(direct).row_ids.size();

  {
    Client client = Client::Connect(server.port());
    std::string body =
        R"({"predicates":[{"attr":0,"lo":20,"hi":60}],"count_only":true})";
    std::string request = "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
    ASSERT_TRUE(client.SendRaw(request));
    std::string response = client.ReadUntilClose();
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
    EXPECT_NE(response.find("\"count\":" + std::to_string(expected)),
              std::string::npos)
        << response;
  }
  {
    Client client = Client::Connect(server.port());
    ASSERT_TRUE(client.SendRaw("GET /healthz HTTP/1.1\r\n\r\n"));
    EXPECT_NE(client.ReadUntilClose().find("HTTP/1.1 200"),
              std::string::npos);
  }
  {
    Client client = Client::Connect(server.port());
    ASSERT_TRUE(client.SendRaw("GET /nope HTTP/1.1\r\n\r\n"));
    EXPECT_NE(client.ReadUntilClose().find("HTTP/1.1 404"),
              std::string::npos);
  }
  server.Stop();
}

TEST_F(QueryServerTest, HttpInsertRoundTripMakesRowsQueryable) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());

  auto http_post = [&](const std::string& path, const std::string& body) {
    Client client = Client::Connect(server.port());
    std::string request = "POST " + path +
                          " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
    EXPECT_TRUE(client.SendRaw(request));
    return client.ReadUntilClose();
  };

  // Single-row insert: the new id continues the base numbering.
  std::string r1 = http_post("/insert", R"({"values":[45.5,17,3.2]})");
  EXPECT_NE(r1.find("HTTP/1.1 200"), std::string::npos) << r1;
  EXPECT_NE(r1.find("\"rows\":[" + std::to_string(kRows) + "]"),
            std::string::npos)
      << r1;
  EXPECT_NE(r1.find("\"total_rows\":" + std::to_string(kRows + 1)),
            std::string::npos)
      << r1;

  // Batch insert: ids in commit order.
  std::string r2 =
      http_post("/insert", R"({"rows":[[45.6,18,3.1],[45.7,19,3.0]]})");
  EXPECT_NE(r2.find("HTTP/1.1 200"), std::string::npos) << r2;
  EXPECT_NE(r2.find("\"rows\":[" + std::to_string(kRows + 1) + "," +
                    std::to_string(kRows + 2) + "]"),
            std::string::npos)
      << r2;

  // A client that saw the insert response can immediately query the new
  // rows by id — the explicit subset names only ingested ids.
  std::string query_body =
      R"({"predicates":[{"attr":0,"lo":45.0,"hi":46.0}],"rows":[)" +
      std::to_string(kRows) + "," + std::to_string(kRows + 1) + "," +
      std::to_string(kRows + 2) + R"(],"count_only":true})";
  std::string r3 = http_post("/query", query_body);
  EXPECT_NE(r3.find("HTTP/1.1 200"), std::string::npos) << r3;
  EXPECT_NE(r3.find("\"count\":3"), std::string::npos) << r3;

  // Rejections: wrong column count, malformed JSON, and no rows at all
  // are 400s, and none of them land a row.
  EXPECT_NE(http_post("/insert", R"({"values":[1,2]})").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_post("/insert", "{").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_post("/insert", "{}").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_EQ(engine_.TotalRows(), kRows + 3);
  EXPECT_TRUE(engine_.RowLive(kRows + 2));
  server.Stop();
}

TEST_F(QueryServerTest, LifecycleStartStopRestart) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_FALSE(server.Start().ok());  // double start refused
  uint16_t first_port = server.port();
  {
    Client client = Client::Connect(first_port);
    QueryRequest request;
    request.predicates.push_back(engine::ValuePredicate{0, 0.0, 50.0});
    request.count_only = true;
    QueryResponse response;
    ASSERT_TRUE(client.RoundTrip(request, &response));
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent

  ASSERT_TRUE(server.Start().ok());
  {
    Client client = Client::Connect(server.port());
    QueryRequest request;
    request.predicates.push_back(engine::ValuePredicate{1, 0.0, 10.0});
    request.count_only = true;
    QueryResponse response;
    ASSERT_TRUE(client.RoundTrip(request, &response));
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
  server.Stop();
}

TEST_F(QueryServerTest, MalformedBinaryFrameGetsErrorFrameThenClose) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());

  Client client = Client::Connect(server.port());
  // Valid magic, hostile declared length.
  std::string frame = EncodeQueryFrame(QueryRequest{});
  uint32_t huge = 1u << 30;
  std::string hostile = frame.substr(0, 4);
  hostile.append(reinterpret_cast<const char*>(&huge), 4);
  hostile += "xxxx";
  ASSERT_TRUE(client.SendRaw(hostile));
  QueryResponse response;
  ASSERT_TRUE(client.Receive(&response));
  EXPECT_EQ(response.status, StatusCode::kBadRequest);
  // The server closes after answering a protocol violation.
  char c;
  EXPECT_LE(::read(client.fd(), &c, 1), 0);
  server.Stop();
}

TEST_F(QueryServerTest, GarbageBytesAnsweredAsHttp400) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = Client::Connect(server.port());
  ASSERT_TRUE(client.SendRaw("total nonsense\r\n\r\n"));
  std::string response = client.ReadUntilClose();
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  server.Stop();
}

TEST_F(QueryServerTest, TruncatedFrameThenDisconnectDoesNotWedgeTheServer) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    Client client = Client::Connect(server.port());
    std::string frame = EncodeQueryFrame(QueryRequest{});
    ASSERT_TRUE(client.SendRaw(frame.substr(0, frame.size() / 2)));
    // Abandon the connection mid-frame.
  }
  // The server must still answer on a fresh connection.
  Client client = Client::Connect(server.port());
  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 50.0});
  request.count_only = true;
  QueryResponse response;
  ASSERT_TRUE(client.RoundTrip(request, &response));
  EXPECT_EQ(response.status, StatusCode::kOk);
  server.Stop();
}

TEST_F(QueryServerTest, BackpressureSheds503UnderFlood) {
  QueryServer::Options options = DefaultOptions();
  // The flood arrives as one pipelined burst, so the worker decodes it in
  // one pass: 2 queries fit its backlog, the rest are shed.
  options.service.queue.capacity = 2;
  QueryServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());

  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 100.0});
  request.count_only = true;

  Client client = Client::Connect(server.port());
  constexpr int kFlood = 12;
  std::string burst;
  for (int i = 0; i < kFlood; ++i) {
    QueryRequest r = request;
    r.id = static_cast<uint32_t>(i + 1);
    burst += EncodeQueryFrame(r);
  }
  ASSERT_TRUE(client.SendRaw(burst));
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kFlood; ++i) {
    QueryResponse response;
    ASSERT_TRUE(client.Receive(&response)) << i;
    if (response.status == StatusCode::kOk) ++ok;
    if (response.status == StatusCode::kOverloaded) ++overloaded;
  }
  EXPECT_EQ(ok + overloaded, kFlood);
  EXPECT_GE(overloaded, kFlood - 4);
  EXPECT_GE(ok, 2);
  server.Stop();
}

TEST_F(QueryServerTest, DeadlineExpiryAnsweredAs504Equivalent) {
  // One worker, one pipelined burst: the worker admits every frame of the
  // burst before it executes any, so the last query's 1 ms deadline lapses
  // while the long queries ahead of it run.
  constexpr uint64_t kLongRows = 100000;
  engine::HybridEngine::Options engine_options;
  engine_options.binning.bins = 16;
  engine_options.num_threads = 1;
  engine::HybridEngine engine = engine::HybridEngine::Build(
      MakeSeedTable(kLongRows, 11), engine_options);
  QueryServer::Options options = DefaultOptions();
  options.num_workers = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Each query ahead returns every row id: collecting and encoding 100k
  // ids costs well over 1 ms for the burst.
  constexpr int kAhead = 16;
  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 100.0});
  std::string burst;
  for (int i = 0; i < kAhead; ++i) {
    request.id = static_cast<uint32_t>(i + 1);
    burst += EncodeQueryFrame(request);
  }
  request.id = kAhead + 1;
  request.count_only = true;
  request.deadline_ms = 1;
  burst += EncodeQueryFrame(request);

  Client client = Client::Connect(server.port());
  ASSERT_TRUE(client.SendRaw(burst));
  QueryResponse response;
  do {
    ASSERT_TRUE(client.Receive(&response));
  } while (response.id != request.id);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  server.Stop();
}

TEST_F(QueryServerTest, ConcurrentPoolCoordinatorsMatchSerialExecute) {
  // Run to completion makes every worker a coordinator of the engine's
  // pool: 4 workers execute at once on a 4-thread engine, each splitting
  // its whole-relation passes across the same pool. Every answer must
  // equal a serial (1-thread) engine's, bit for bit.
  constexpr uint64_t kPoolRows = 40000;  // above the pooled-pass floor
  engine::HybridEngine::Options engine_options;
  engine_options.binning.bins = 16;
  engine_options.num_threads = 4;
  engine::HybridEngine pooled = engine::HybridEngine::Build(
      MakeSeedTable(kPoolRows, 11), engine_options);
  engine_options.num_threads = 1;
  engine::HybridEngine serial = engine::HybridEngine::Build(
      MakeSeedTable(kPoolRows, 11), engine_options);

  // Whole-relation queries (the pooled pass), small subsets and
  // half-relation subsets (always on the worker's thread), as ids and as
  // counts, exact and approximate.
  std::vector<QueryRequest> mix;
  for (double fraction : {0.0, 0.0025, 0.5}) {
    TemplateOptions template_options;
    template_options.num_templates = 8;
    template_options.row_fraction = fraction;
    template_options.count_only = false;
    for (QueryRequest& r : MakeQueryTemplates(kPoolRows, template_options)) {
      mix.push_back(std::move(r));
    }
  }
  std::vector<engine::EngineResult> expected;
  for (size_t i = 0; i < mix.size(); ++i) {
    mix[i].count_only = i % 3 == 1;
    mix[i].exact = i % 5 != 2;
    engine::EngineQuery q;
    q.predicates = mix[i].predicates;
    q.rows = mix[i].rows;
    q.exact = mix[i].exact;
    q.count_only = mix[i].count_only;
    expected.push_back(serial.Execute(q));
  }

  QueryServer::Options options = DefaultOptions();
  options.num_workers = 4;
  QueryServer server(&pooled, options);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Client client = Client::Connect(server.port());
      for (int i = 0; i < kQueriesPerClient; ++i) {
        size_t pick = static_cast<size_t>(c * 7 + i * 5) % mix.size();
        QueryRequest request = mix[pick];
        request.id = static_cast<uint32_t>(i + 1);
        QueryResponse response;
        if (!client.RoundTrip(request, &response) ||
            response.status != StatusCode::kOk ||
            response.id != request.id ||
            response.count != expected[pick].count ||
            response.row_ids != expected[pick].row_ids) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

TEST_F(QueryServerTest, ConnectionLimitShedsExcessAccepts) {
  QueryServer::Options options = DefaultOptions();
  options.max_connections = 1;
  QueryServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());

  Client first = Client::Connect(server.port());
  // Prove the first connection is fully registered before probing.
  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 50.0});
  request.count_only = true;
  QueryResponse response;
  ASSERT_TRUE(first.RoundTrip(request, &response));

  // The next accept must be shed: the socket closes without an answer.
  Client second = Client::Connect(server.port());
  ASSERT_TRUE(second.Send(request));
  EXPECT_FALSE(second.Receive(&response));

  // The first connection keeps working.
  ASSERT_TRUE(first.RoundTrip(request, &response));
  EXPECT_EQ(response.status, StatusCode::kOk);
  server.Stop();
}

TEST_F(QueryServerTest, FreshConnectionInsertsBesideQueriesAnswerPromptly) {
  // Every /insert arrives on a new connection (Connection: close), which
  // the acceptor hands to the worker through its inbox while the worker
  // is answering queries. A handoff whose wakeup is lost waits out the
  // worker's 100 ms epoll timeout.
  QueryServer::Options options = DefaultOptions();
  options.num_workers = 1;  // all handoffs share one inbox
  options.telemetry_interval_ms = 0;
  QueryServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());

  // One query on each of several connections: the worker answers them in
  // one sweep, so it is still answering when the first answer prompts the
  // next insert.
  constexpr int kQueryConns = 16;
  std::vector<Client> clients;
  for (int c = 0; c < kQueryConns; ++c) {
    clients.push_back(Client::Connect(server.port()));
  }
  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 10.0, 60.0});
  request.count_only = true;
  const std::string body = R"({"values":[45.5,17,3.2]})";
  const std::string insert = "POST /insert HTTP/1.1\r\nContent-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" +
                             body;
  uint64_t slowest_ns = 0;
  for (int i = 0; i < 100; ++i) {
    uint64_t start = MonotonicNowNs();
    for (Client& client : clients) ASSERT_TRUE(client.Send(request));
    QueryResponse response;
    ASSERT_TRUE(clients[0].Receive(&response));
    EXPECT_EQ(response.status, StatusCode::kOk);
    Client inserter = Client::Connect(server.port());
    ASSERT_TRUE(inserter.SendRaw(insert));
    std::string reply = inserter.ReadUntilClose();
    EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
    for (int c = 1; c < kQueryConns; ++c) {
      ASSERT_TRUE(clients[c].Receive(&response));
      EXPECT_EQ(response.status, StatusCode::kOk);
    }
    // A lost wakeup of the insert's handoff stalls the round for the
    // worker's 100 ms timeout.
    slowest_ns = std::max(slowest_ns, MonotonicNowNs() - start);
  }
  EXPECT_LT(slowest_ns, 50u * 1000 * 1000);
  server.Stop();
}

TEST_F(QueryServerTest, TracesJsonShowsSlowRequestSpans) {
  QueryServer::Options options = DefaultOptions();
  options.slow_threshold_ns = 0;  // every request is retained as slow
  QueryServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());
  {
    Client client = Client::Connect(server.port());
    QueryRequest request;
    request.predicates.push_back(engine::ValuePredicate{0, 10.0, 60.0});
    request.count_only = true;
    QueryResponse response;
    ASSERT_TRUE(client.RoundTrip(request, &response));
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
  Client scraper = Client::Connect(server.port());
  ASSERT_TRUE(scraper.SendRaw("GET /traces.json HTTP/1.1\r\n\r\n"));
  std::string reply = scraper.ReadUntilClose();
  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos) << reply;
  EXPECT_NE(reply.find("application/json"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"traceEvents\""), std::string::npos) << reply;
  if (obs::kStatsEnabled) {
    EXPECT_NE(reply.find("serve/slow_request"), std::string::npos) << reply;
  } else {
    EXPECT_NE(reply.find("\"enabled\": false"), std::string::npos) << reply;
  }
  server.Stop();
}

TEST_F(QueryServerTest, HeadAnswersGetHeadersWithoutBodyOnBothServers) {
  QueryServer::Options options = DefaultOptions();
  options.telemetry_interval_ms = 0;  // keep /timeseries.json unchanged
  QueryServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());
  obs::HttpServer obs_server;
  ASSERT_TRUE(obs_server.Start().ok());

  auto fetch = [](uint16_t port, const std::string& method,
                  const std::string& path) {
    Client client = Client::Connect(port);
    EXPECT_TRUE(client.SendRaw(method + " " + path + " HTTP/1.1\r\n\r\n"));
    return client.ReadUntilClose();
  };
  for (uint16_t port : {server.port(), obs_server.port()}) {
    for (const char* path :
         {"/healthz", "/slow.json", "/timeseries.json", "/nope"}) {
      std::string get = fetch(port, "GET", path);
      std::string head = fetch(port, "HEAD", path);
      size_t header_end = get.find("\r\n\r\n");
      ASSERT_NE(header_end, std::string::npos) << get;
      EXPECT_GT(get.size(), header_end + 4) << path << ": GET has a body";
      EXPECT_EQ(head, get.substr(0, header_end + 4)) << path;
    }
  }
  obs_server.Stop();
  server.Stop();
}

TEST_F(QueryServerTest, QueryStringIsStrippedTheSameOnBothServers) {
  QueryServer::Options options = DefaultOptions();
  options.telemetry_interval_ms = 0;
  QueryServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());
  obs::HttpServer obs_server;
  ASSERT_TRUE(obs_server.Start().ok());

  auto status_line = [](uint16_t port, const std::string& target) {
    Client client = Client::Connect(port);
    EXPECT_TRUE(client.SendRaw("GET " + target + " HTTP/1.1\r\n\r\n"));
    std::string response = client.ReadUntilClose();
    return response.substr(0, response.find("\r\n"));
  };
  for (const char* target :
       {"/healthz?verbose=1", "/slow.json?", "/nope?healthz", "/healthz"}) {
    EXPECT_EQ(status_line(server.port(), target),
              status_line(obs_server.port(), target))
        << target;
  }
  EXPECT_EQ(status_line(server.port(), "/healthz?verbose=1"),
            "HTTP/1.1 200 OK");
  EXPECT_EQ(status_line(server.port(), "/nope?healthz"),
            "HTTP/1.1 404 Not Found");
  obs_server.Stop();
  server.Stop();
}

TEST_F(QueryServerTest, IngestGaugesRenderWholeLines) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = Client::Connect(server.port());
  ASSERT_TRUE(client.SendRaw("GET /metrics HTTP/1.1\r\n\r\n"));
  std::string body = client.ReadUntilClose();
  server.Stop();
  for (const char* name :
       {"abitmap_engine_total_rows", "abitmap_engine_delta_live",
        "abitmap_serve_queue_depth", "abitmap_serve_slow_threshold_ns"}) {
    std::string help = std::string("# HELP ") + name + " ";
    size_t at = body.find(help);
    ASSERT_NE(at, std::string::npos) << name;
    // HELP (non-empty text), TYPE and value lines, each complete.
    size_t help_end = body.find('\n', at);
    ASSERT_NE(help_end, std::string::npos) << name;
    EXPECT_GT(help_end, at + help.size()) << name;
    std::string type = std::string("# TYPE ") + name + " gauge\n";
    ASSERT_EQ(body.compare(help_end + 1, type.size(), type), 0) << name;
    size_t value_at = help_end + 1 + type.size();
    size_t value_end = body.find('\n', value_at);
    ASSERT_NE(value_end, std::string::npos) << name;
    std::string line = body.substr(value_at, value_end - value_at);
    std::string prefix = std::string(name) + " ";
    ASSERT_EQ(line.compare(0, prefix.size(), prefix), 0) << line;
    char* end = nullptr;
    std::string value = line.substr(prefix.size());
    std::strtod(value.c_str(), &end);
    EXPECT_TRUE(!value.empty() && *end == '\0') << line;
  }
  // The delta has no index, so no rebuild or filter gauges.
  for (const char* gone :
       {"abitmap_engine_delta_generations", "abitmap_engine_delta_worst_fp",
        "abitmap_engine_delta_fp_budget",
        "abitmap_engine_delta_rebuild_running"}) {
    EXPECT_EQ(body.find(gone), std::string::npos) << gone;
  }
  EXPECT_EQ(body.back(), '\n');
}

TEST_F(QueryServerTest, LoadgenDrivesTheServerCleanly) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());

  TemplateOptions template_options;
  template_options.num_templates = 8;
  template_options.row_fraction = 0.02;
  std::vector<QueryRequest> templates =
      MakeQueryTemplates(kRows, template_options);

  LoadgenOptions loadgen;
  loadgen.port = server.port();
  loadgen.connections = 2;
  loadgen.duration_s = 0.5;
  util::StatusOr<LoadgenResult> result = RunLoadgen(templates, loadgen);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().ok, 0u);
  EXPECT_EQ(result.value().errors, 0u);
  EXPECT_GT(result.value().qps, 0.0);
  EXPECT_GT(result.value().p99_us, 0.0);
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace abitmap
