// Embedded observability HTTP server: loopback integration tests. A raw
// BSD-socket client (the test needs no HTTP library either) fetches every
// endpoint — including while a multi-threaded build + query workload is
// running — and checks status codes, content types, and payload shape in
// both tier-1 configurations.

#include "obs/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/ab_index.h"
#include "data/generators.h"
#include "data/query_gen.h"
#include "gtest/gtest.h"
#include "json_check.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "util/thread_pool.h"

namespace abitmap {
namespace obs {
namespace {

struct FetchResult {
  bool ok = false;
  int status = 0;
  std::string headers;
  std::string body;
};

/// Minimal HTTP/1.1 client: one request, reads to EOF (the server sends
/// Connection: close).
FetchResult Fetch(uint16_t port, const std::string& request_line) {
  FetchResult r;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return r;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return r;
  }
  std::string request = request_line + "\r\nHost: 127.0.0.1\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return r;
  r.headers = raw.substr(0, header_end);
  r.body = raw.substr(header_end + 4);
  if (std::sscanf(raw.c_str(), "HTTP/1.1 %d", &r.status) != 1) return r;
  r.ok = true;
  return r;
}

FetchResult Get(uint16_t port, const std::string& path) {
  return Fetch(port, "GET " + path + " HTTP/1.1");
}

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Status status = server_.Start();  // ephemeral port
    ASSERT_TRUE(status.ok()) << status.message();
    ASSERT_NE(server_.port(), 0);
  }

  HttpServer server_;
};

TEST_F(HttpServerTest, HealthzServesOk) {
  FetchResult r = Get(server_.port(), "/healthz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
}

TEST_F(HttpServerTest, MetricsServesPrometheusWithBuildInfo) {
  FetchResult r = Get(server_.port(), "/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.headers.find("text/plain; version=0.0.4"), std::string::npos);
  // The build-info gauge always reports, with the stats label telling a
  // live exporter from a compiled-out one.
  EXPECT_NE(r.body.find("abitmap_build_info{"), std::string::npos);
  EXPECT_NE(r.body.find(kStatsEnabled ? "stats=\"on\"" : "stats=\"off\""),
            std::string::npos);
  EXPECT_NE(r.body.find("# HELP abitmap_build_info"), std::string::npos);
  EXPECT_NE(r.body.find("# TYPE abitmap_index_queries counter"),
            std::string::npos);
}

TEST_F(HttpServerTest, StatsJsonIsValidJson) {
  FetchResult r = Get(server_.port(), "/stats.json");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.headers.find("application/json"), std::string::npos);
  EXPECT_TRUE(test::IsValidJson(r.body)) << r.body;
  EXPECT_NE(r.body.find("\"counters\""), std::string::npos);
  EXPECT_NE(r.body.find(kStatsEnabled ? "\"enabled\": true"
                                      : "\"enabled\": false"),
            std::string::npos);
}

TEST_F(HttpServerTest, TracesJsonIsValidChromeTrace) {
  { AB_SPAN("http_test/marker"); }
  FetchResult r = Get(server_.port(), "/traces.json");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(test::IsValidJson(r.body)) << r.body;
  EXPECT_NE(r.body.find("\"traceEvents\""), std::string::npos);
  if (kStatsEnabled) {
    EXPECT_NE(r.body.find("http_test/marker"), std::string::npos);
  } else {
    EXPECT_NE(r.body.find("\"enabled\": false"), std::string::npos);
  }
}

TEST_F(HttpServerTest, RejectsUnknownPathAndMethod) {
  FetchResult not_found = Get(server_.port(), "/nope");
  ASSERT_TRUE(not_found.ok);
  EXPECT_EQ(not_found.status, 404);

  FetchResult post = Fetch(server_.port(), "POST /metrics HTTP/1.1");
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.status, 405);
}

TEST_F(HttpServerTest, HeadOmitsBodyAndQueryStringIsStripped) {
  FetchResult head = Fetch(server_.port(), "HEAD /healthz HTTP/1.1");
  ASSERT_TRUE(head.ok);
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  // Content-Length still describes the GET body.
  EXPECT_NE(head.headers.find("Content-Length: 3"), std::string::npos);

  FetchResult query = Get(server_.port(), "/healthz?verbose=1");
  ASSERT_TRUE(query.ok);
  EXPECT_EQ(query.status, 200);
}

TEST(ParseRequestLineTest, SplitsMethodAndStripsQueryString) {
  std::string method, path;
  ASSERT_TRUE(ParseRequestLine("GET /metrics HTTP/1.1", &method, &path));
  EXPECT_EQ(method, "GET");
  EXPECT_EQ(path, "/metrics");
  ASSERT_TRUE(ParseRequestLine("HEAD /slow.json?limit=5&x HTTP/1.1", &method,
                               &path));
  EXPECT_EQ(method, "HEAD");
  EXPECT_EQ(path, "/slow.json");
  ASSERT_TRUE(ParseRequestLine("GET /? HTTP/1.0", &method, &path));
  EXPECT_EQ(path, "/");
  EXPECT_FALSE(ParseRequestLine("GET /metrics", &method, &path));
  EXPECT_FALSE(ParseRequestLine("", &method, &path));
}

TEST_F(HttpServerTest, ServesDuringParallelWorkload) {
  // The acceptance scenario: a multi-threaded BuildParallel +
  // EvaluateParallel workload runs while a client scrapes the endpoints.
  std::atomic<bool> done{false};
  std::thread workload([&done]() {
    // Scale 10 keeps the build above BuildParallel's serial-fallback cell
    // floor, so the trace check below sees the parallel phases.
    bitmap::BinnedDataset dataset = data::MakeUniformDataset(21, 10);
    ab::AbConfig config;
    config.alpha = 8.0;
    util::ThreadPool pool(4);
    for (int iter = 0; iter < 3 && !done.load(); ++iter) {
      ab::AbIndex index =
          ab::AbIndex::BuildParallel(dataset, config, &pool);
      data::QueryGenParams qp;
      qp.num_queries = 5;
      qp.rows_queried = dataset.num_rows();
      for (const bitmap::BitmapQuery& q :
           data::GenerateQueries(dataset, qp)) {
        std::vector<bool> bits = index.EvaluateParallel(q, &pool);
        (void)bits;
      }
    }
    done.store(true);
  });
  int fetches = 0;
  while (!done.load() && fetches < 50) {
    FetchResult health = Get(server_.port(), "/healthz");
    ASSERT_TRUE(health.ok);
    EXPECT_EQ(health.status, 200);
    FetchResult metrics = Get(server_.port(), "/metrics");
    ASSERT_TRUE(metrics.ok);
    EXPECT_EQ(metrics.status, 200);
    ++fetches;
  }
  workload.join();
  EXPECT_GE(fetches, 1);
  // After the workload, the trace endpoint shows its phases (stats-on).
  FetchResult traces = Get(server_.port(), "/traces.json");
  ASSERT_TRUE(traces.ok);
  EXPECT_TRUE(test::IsValidJson(traces.body));
  if (kStatsEnabled) {
    EXPECT_NE(traces.body.find("ab/build/parallel"), std::string::npos);
    EXPECT_NE(traces.body.find("pool/task"), std::string::npos);
  }
}

TEST(HttpServerLifecycleTest, StopIsIdempotentAndRestartFails) {
  HttpServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_FALSE(server.Start().ok());  // already started
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(server.running());
}

TEST(HttpServerLifecycleTest, FixedPortConflictReportsError) {
  HttpServer a;
  ASSERT_TRUE(a.Start().ok());
  HttpServer::Options opts;
  opts.port = a.port();
  HttpServer b(opts);
  util::Status status = b.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bind"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace abitmap
