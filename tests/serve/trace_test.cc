// Socket-level tests of request tracing and stage timings end to end:
// client-supplied trace ids survive both wire protocols, server-minted
// ids are nonzero and distinct, want_timings echoes a breakdown whose
// queue + batch stages tile the server-side window, retained requests
// surface in /slow.json with their trace id, and concurrent pipelined
// requests never cross-attribute ids (the TSan serve suite runs this
// file, so the trace plumbing is also a race witness).

#include "serve/server.h"

#include <unistd.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/slowlog.h"
#include "obs/stats.h"
#include "serve/protocol.h"
#include "serve/workload.h"
#include "util/net.h"

namespace abitmap {
namespace serve {
namespace {

constexpr uint64_t kRows = 2000;

engine::HybridEngine MakeEngine() {
  engine::HybridEngine::Options options;
  options.binning.bins = 16;
  options.num_threads = 2;
  return engine::HybridEngine::Build(MakeSeedTable(kRows, 11), options);
}

/// A minimal blocking binary-protocol client (same shape as
/// server_test.cc; each TU keeps its own copy in its anonymous
/// namespace).
class Client {
 public:
  static Client Connect(uint16_t port) {
    util::StatusOr<int> fd = util::net::ConnectLoopback(port);
    AB_CHECK(fd.ok());
    util::net::SetRecvTimeout(fd.value(), 10000);
    return Client(fd.value());
  }

  explicit Client(int fd) : fd_(fd) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(Client&& o) : fd_(o.fd_), buffer_(std::move(o.buffer_)) {
    o.fd_ = -1;
  }
  Client(const Client&) = delete;

  bool SendRaw(const std::string& bytes) {
    return util::net::SendAll(fd_, bytes.data(), bytes.size());
  }

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
    return SendRaw(EncodeQueryFrame(request)) && Receive(response);
  }

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

 private:
  int fd_ = -1;
  std::string buffer_;
};

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : engine_(MakeEngine()) {}

  QueryServer::Options DefaultOptions() {
    QueryServer::Options options;
    options.num_workers = 2;
    options.telemetry_interval_ms = 0;  // no ticker noise in unit tests
    return options;
  }

  QueryRequest SmallQuery() {
    QueryRequest request;
    request.predicates.push_back(engine::ValuePredicate{0, 10.0, 60.0});
    request.count_only = true;
    return request;
  }

  engine::HybridEngine engine_;
};

TEST_F(TraceTest, BinaryTraceIdRoundTripsAndMintsWhenAbsent) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = Client::Connect(server.port());

  // Client-supplied id is echoed verbatim — full 64 bits, above 2^53.
  QueryRequest request = SmallQuery();
  request.id = 1;
  request.trace_id = 0xFEEDFACECAFEBEEFull;
  QueryResponse response;
  ASSERT_TRUE(client.RoundTrip(request, &response));
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.trace_id, 0xFEEDFACECAFEBEEFull);

  // trace_id = 0 asks the server to mint; minted ids are nonzero and
  // distinct across requests.
  request.trace_id = 0;
  request.id = 2;
  QueryResponse minted_a, minted_b;
  ASSERT_TRUE(client.RoundTrip(request, &minted_a));
  request.id = 3;
  ASSERT_TRUE(client.RoundTrip(request, &minted_b));
  EXPECT_NE(minted_a.trace_id, 0u);
  EXPECT_NE(minted_b.trace_id, 0u);
  EXPECT_NE(minted_a.trace_id, minted_b.trace_id);
  server.Stop();
}

TEST_F(TraceTest, BinaryTimingsTileTheServerWindow) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = Client::Connect(server.port());

  QueryRequest request = SmallQuery();
  request.id = 9;
  request.want_timings = true;
  QueryResponse response;
  ASSERT_TRUE(client.RoundTrip(request, &response));
  EXPECT_EQ(response.status, StatusCode::kOk);
  // Timings are protocol, not telemetry: present in both stats
  // configurations.
  ASSERT_TRUE(response.timings.has);
  const StageTimings& t = response.timings;
  EXPECT_GT(t.total_ns, 0u);
  // queue + batch tile the admission-to-done window by construction.
  EXPECT_EQ(t.queue_ns + t.batch_ns, t.total_ns);
  // Attributions stay inside their enclosing window.
  EXPECT_LE(t.engine_ns, t.batch_ns);
  EXPECT_LE(t.verify_ns, t.batch_ns);
  // Serialize/flush cannot describe themselves (causality): echoed 0.
  EXPECT_EQ(t.serialize_ns, 0u);
  EXPECT_EQ(t.flush_ns, 0u);

  // Without want_timings the frame stays lean.
  request.id = 10;
  request.want_timings = false;
  ASSERT_TRUE(client.RoundTrip(request, &response));
  EXPECT_FALSE(response.timings.has);
  server.Stop();
}

TEST_F(TraceTest, JsonTraceIdAndTimingsRoundTrip) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());

  auto http_post = [&](const std::string& body) {
    Client client = Client::Connect(server.port());
    std::string request = "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
    EXPECT_TRUE(client.SendRaw(request));
    return client.ReadUntilClose();
  };

  // Client-supplied id comes back; so does the stage breakdown.
  std::string echoed = http_post(
      R"({"predicates":[{"attr":0,"lo":10,"hi":60}],"count_only":true,)"
      R"("trace_id":424242,"timings":true})");
  EXPECT_NE(echoed.find("HTTP/1.1 200"), std::string::npos) << echoed;
  EXPECT_NE(echoed.find("\"trace_id\":424242"), std::string::npos) << echoed;
  EXPECT_NE(echoed.find("\"timings\":{\"decode_us\":"), std::string::npos)
      << echoed;
  EXPECT_NE(echoed.find("\"total_us\":"), std::string::npos) << echoed;

  // No trace_id in the body: the server mints a nonzero one.
  std::string minted = http_post(
      R"({"predicates":[{"attr":0,"lo":10,"hi":60}],"count_only":true})");
  EXPECT_NE(minted.find("\"trace_id\":"), std::string::npos) << minted;
  EXPECT_EQ(minted.find("\"trace_id\":0,"), std::string::npos) << minted;
  // And omits timings that were not asked for.
  EXPECT_EQ(minted.find("\"timings\""), std::string::npos) << minted;
  server.Stop();
}

TEST_F(TraceTest, SlowLogRetainsTheTraceId) {
  obs::ClearSlowLog();
  QueryServer::Options options = DefaultOptions();
  options.slow_threshold_ns = 0;  // retain every completed request
  QueryServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());

  {
    Client client = Client::Connect(server.port());
    QueryRequest request = SmallQuery();
    request.id = 77;
    request.trace_id = 31337;
    QueryResponse response;
    ASSERT_TRUE(client.RoundTrip(request, &response));
    EXPECT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.trace_id, 31337u);
  }

  Client scraper = Client::Connect(server.port());
  ASSERT_TRUE(scraper.SendRaw("GET /slow.json HTTP/1.1\r\n\r\n"));
  std::string body = scraper.ReadUntilClose();
  EXPECT_NE(body.find("HTTP/1.1 200"), std::string::npos) << body;
  if (obs::kStatsEnabled) {
    EXPECT_NE(body.find("\"trace_id\": 31337"), std::string::npos) << body;
    EXPECT_NE(body.find("\"queue_ns\""), std::string::npos) << body;
  } else {
    EXPECT_NE(body.find("\"enabled\": false"), std::string::npos) << body;
  }
  server.Stop();
}

TEST_F(TraceTest, TimeSeriesEndpointServes) {
  QueryServer::Options options = DefaultOptions();
  options.telemetry_interval_ms = 50;
  QueryServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());
  // Two ticker periods (the loop polls every 20 ms).
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  Client scraper = Client::Connect(server.port());
  ASSERT_TRUE(scraper.SendRaw("GET /timeseries.json HTTP/1.1\r\n\r\n"));
  std::string body = scraper.ReadUntilClose();
  EXPECT_NE(body.find("HTTP/1.1 200"), std::string::npos) << body;
  EXPECT_NE(body.find("\"samples\""), std::string::npos) << body;
  if (obs::kStatsEnabled) {
    EXPECT_NE(body.find("\"mono_ns\""), std::string::npos) << body;
  }
  server.Stop();
}

TEST_F(TraceTest, MetricsExposeIngestGauges) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client scraper = Client::Connect(server.port());
  ASSERT_TRUE(scraper.SendRaw("GET /metrics HTTP/1.1\r\n\r\n"));
  std::string body = scraper.ReadUntilClose();
  EXPECT_NE(body.find("HTTP/1.1 200"), std::string::npos) << body;
  // The gauge block is live state, served in both stats configurations.
  EXPECT_NE(body.find("abitmap_engine_total_rows"), std::string::npos) << body;
  EXPECT_NE(body.find("abitmap_engine_delta_live"), std::string::npos);
  EXPECT_NE(body.find("abitmap_serve_slow_threshold_ns"), std::string::npos);
  EXPECT_NE(body.find("# HELP abitmap_engine_delta_live"), std::string::npos);
  server.Stop();
}

TEST_F(TraceTest, ConcurrentPipelinedRequestsNeverCrossAttribute) {
  QueryServer server(&engine_, DefaultOptions());
  ASSERT_TRUE(server.Start().ok());

  // Each client pipelines a burst where trace_id is derived from the
  // request id; any cross-attribution (batching mixes requests from all
  // connections into shared dispatch batches) breaks the relation.
  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Client client = Client::Connect(server.port());
      std::string burst;
      for (int i = 0; i < kPerClient; ++i) {
        QueryRequest request;
        request.predicates.push_back(
            engine::ValuePredicate{0, 5.0 * (i % 8), 60.0});
        request.count_only = true;
        request.want_timings = (i % 2) == 0;
        request.id = static_cast<uint32_t>(i + 1);
        request.trace_id = (static_cast<uint64_t>(c + 1) << 32) |
                           static_cast<uint64_t>(i + 1);
        burst += EncodeQueryFrame(request);
      }
      if (!client.SendRaw(burst)) {
        ++failures;
        return;
      }
      std::set<uint64_t> seen;
      for (int i = 0; i < kPerClient; ++i) {
        QueryResponse response;
        if (!client.Receive(&response)) {
          ++failures;
          return;
        }
        uint64_t expected = (static_cast<uint64_t>(c + 1) << 32) |
                            static_cast<uint64_t>(response.id);
        if (response.trace_id != expected || !seen.insert(expected).second) {
          ++failures;
          return;
        }
        if (((response.id - 1) % 2) == 0 && !response.timings.has) {
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

}  // namespace
}  // namespace serve
}  // namespace abitmap
