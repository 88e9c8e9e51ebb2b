#include "serve/query_service.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/stats.h"
#include "serve/workload.h"

namespace abitmap {
namespace serve {
namespace {

engine::HybridEngine MakeEngine(uint64_t rows) {
  engine::HybridEngine::Options options;
  options.binning.bins = 16;
  options.num_threads = 1;  // keep unit tests single-threaded in the engine
  return engine::HybridEngine::Build(MakeSeedTable(rows, 11), options);
}

/// Admits one request into a fresh backlog and runs it, as a worker
/// does; a rejected request returns its rejection.
QueryResponse AdmitAndRun(const QueryService& service, QueryRequest request) {
  std::vector<PendingQuery> backlog;
  QueryResponse reject;
  if (!service.Admit(std::move(request), 0, &backlog, &reject)) return reject;
  EXPECT_EQ(backlog.size(), 1u);
  return service.Run(&backlog[0]);
}

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() : engine_(MakeEngine(3000)) {}

  engine::HybridEngine engine_;
};

TEST_F(QueryServiceTest, AnswersMatchDirectEngineExecution) {
  QueryService service(&engine_, QueryService::Options{});

  QueryRequest request;
  request.id = 5;
  request.predicates.push_back(engine::ValuePredicate{0, 20.0, 60.0});
  request.predicates.push_back(engine::ValuePredicate{1, 5.0, 30.0});

  engine::EngineQuery direct;
  direct.predicates = request.predicates;
  std::vector<uint64_t> expected = engine_.Execute(direct).row_ids;

  QueryResponse response = AdmitAndRun(service, request);
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.id, 5u);
  EXPECT_EQ(response.count, expected.size());
  EXPECT_EQ(response.row_ids, expected);
  EXPECT_STREQ(response.path, "exact");  // whole-relation query
  EXPECT_EQ(response.batch_size, 1u);
  EXPECT_NE(response.trace_id, 0u);
}

TEST_F(QueryServiceTest, CountOnlySuppressesRowsButKeepsCount) {
  QueryService service(&engine_, QueryService::Options{});

  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 50.0});
  request.count_only = true;

  engine::EngineQuery direct;
  direct.predicates = request.predicates;
  size_t expected = engine_.Execute(direct).row_ids.size();

  QueryResponse response = AdmitAndRun(service, request);
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.count, expected);
  EXPECT_TRUE(response.row_ids.empty());
}

TEST_F(QueryServiceTest, CountAndIdsOfOneQueryInOneBatchStayApart) {
  // One burst (a worker's backlog) holds the same predicates as a count
  // and as an ids request; the ids request must get its row ids back.
  QueryService service(&engine_, QueryService::Options{});

  QueryRequest count;
  count.predicates.push_back(engine::ValuePredicate{0, 10.0, 70.0});
  count.count_only = true;
  QueryRequest ids = count;
  ids.count_only = false;

  engine::EngineQuery direct;
  direct.predicates = count.predicates;
  std::vector<uint64_t> expected = engine_.Execute(direct).row_ids;
  ASSERT_FALSE(expected.empty());

  std::vector<PendingQuery> backlog;
  QueryResponse reject;
  ASSERT_TRUE(service.Admit(count, 0, &backlog, &reject));
  ASSERT_TRUE(service.Admit(ids, 0, &backlog, &reject));
  ASSERT_EQ(backlog.size(), 2u);
  QueryResponse responses[2] = {service.Run(&backlog[0]),
                                service.Run(&backlog[1])};
  EXPECT_EQ(responses[0].status, StatusCode::kOk);
  EXPECT_EQ(responses[0].count, expected.size());
  EXPECT_TRUE(responses[0].row_ids.empty());
  EXPECT_EQ(responses[1].status, StatusCode::kOk);
  EXPECT_EQ(responses[1].count, expected.size());
  EXPECT_EQ(responses[1].row_ids, expected);
}

TEST_F(QueryServiceTest, SchemaViolationsRejectSynchronouslyBeforeTheEngine) {
  QueryService service(&engine_, QueryService::Options{});

  struct Case {
    QueryRequest request;
    const char* what;
  };
  std::vector<Case> cases;
  {
    QueryRequest r;
    r.predicates.push_back(engine::ValuePredicate{99, 0.0, 1.0});
    cases.push_back({r, "unknown attribute"});
  }
  {
    QueryRequest r;
    r.predicates.push_back(
        engine::ValuePredicate{0, std::nan(""), 1.0});
    cases.push_back({r, "NaN bound"});
  }
  {
    QueryRequest r;
    r.predicates.push_back(engine::ValuePredicate{0, 5.0, 1.0});
    cases.push_back({r, "lo > hi"});
  }
  {
    QueryRequest r;
    r.predicates.push_back(engine::ValuePredicate{0, 0.0, 1.0});
    r.rows = {1u << 30};
    cases.push_back({r, "row out of range"});
  }
  for (Case& c : cases) {
    std::vector<PendingQuery> backlog;
    QueryResponse resp;
    // Rejected at admission: the query never reaches the backlog, so the
    // engine never sees it.
    EXPECT_FALSE(service.Admit(c.request, 0, &backlog, &resp)) << c.what;
    EXPECT_TRUE(backlog.empty()) << c.what;
    EXPECT_EQ(resp.status, StatusCode::kBadRequest) << c.what;
    EXPECT_FALSE(resp.error.empty()) << c.what;
  }
}

TEST_F(QueryServiceTest, SubmitAfterStopSaysShuttingDown) {
  QueryService service(&engine_, QueryService::Options{});
  service.Stop();
  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 1.0});
  EXPECT_EQ(AdmitAndRun(service, request).status, StatusCode::kShuttingDown);
}

TEST_F(QueryServiceTest, ExpiredDeadlineIsShedNotExecuted) {
  QueryService service(&engine_, QueryService::Options{});
  if (obs::kStatsEnabled) obs::ResetStats();

  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 100.0});
  request.deadline_ms = 1;
  std::vector<PendingQuery> backlog;
  QueryResponse reject;
  ASSERT_TRUE(service.Admit(request, 0, &backlog, &reject));
  // The query waits in the backlog past its deadline, as it would behind
  // a pipelined burst or a long query on its worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  QueryResponse response = service.Run(&backlog[0]);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.timings.queue_ns, response.timings.total_ns);
  EXPECT_GE(response.timings.queue_ns, 1000000u);
  if (obs::kStatsEnabled) {
    // Shed, not executed: the engine ran no query.
    obs::StatsSnapshot stats = obs::SnapshotStats();
    EXPECT_EQ(stats.counter(obs::Counter::kServeDeadlineExpired), 1u);
    EXPECT_EQ(stats.counter(obs::Counter::kEngineQueries), 0u);
  }
}

TEST_F(QueryServiceTest, BackpressureRejectsWhenTheQueueIsFull) {
  QueryService::Options options;
  options.queue.capacity = 2;
  QueryService service(&engine_, options);

  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 100.0});
  request.count_only = true;

  // A flood decoded in one pass: the backlog holds `capacity` queries and
  // the rest are answered kOverloaded at once; the admitted ones run.
  int ok = 0, overloaded = 0;
  constexpr int kFlood = 10;
  std::vector<PendingQuery> backlog;
  for (int i = 0; i < kFlood; ++i) {
    QueryResponse reject;
    if (!service.Admit(request, 0, &backlog, &reject)) {
      if (reject.status == StatusCode::kOverloaded) ++overloaded;
    }
  }
  for (PendingQuery& p : backlog) {
    if (service.Run(&p).status == StatusCode::kOk) ++ok;
  }
  EXPECT_GE(overloaded, kFlood - 4);
  EXPECT_GE(ok, 2);
  EXPECT_EQ(ok + overloaded, kFlood);
}

}  // namespace
}  // namespace serve
}  // namespace abitmap
