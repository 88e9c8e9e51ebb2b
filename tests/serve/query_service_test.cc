#include "serve/query_service.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
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
  options.ab.alpha = 16;
  options.ab.level = ab::Level::kPerAttribute;
  options.num_threads = 1;  // keep unit tests single-threaded in the engine
  return engine::HybridEngine::Build(MakeSeedTable(rows, 11), options);
}

/// Blocks until the service delivers the response.
QueryResponse SubmitAndWait(QueryService* service, QueryRequest request) {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  QueryResponse out;
  service->Submit(std::move(request), [&](QueryResponse resp) {
    std::lock_guard<std::mutex> lock(mu);
    out = std::move(resp);
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&]() { return ready; });
  return out;
}

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() : engine_(MakeEngine(3000)) {}

  engine::HybridEngine engine_;
};

TEST_F(QueryServiceTest, AnswersMatchDirectEngineExecution) {
  QueryService::Options options;
  options.queue.max_delay_us = 100;
  QueryService service(&engine_, options);
  ASSERT_TRUE(service.Start().ok());

  QueryRequest request;
  request.id = 5;
  request.predicates.push_back(engine::ValuePredicate{0, 20.0, 60.0});
  request.predicates.push_back(engine::ValuePredicate{1, 5.0, 30.0});

  engine::EngineQuery direct;
  direct.predicates = request.predicates;
  std::vector<uint64_t> expected = engine_.Execute(direct).row_ids;

  QueryResponse response = SubmitAndWait(&service, request);
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.id, 5u);
  EXPECT_EQ(response.count, expected.size());
  EXPECT_EQ(response.row_ids, expected);
  EXPECT_STREQ(response.path, "exact");  // whole-relation query
  EXPECT_GE(response.batch_size, 1u);
  service.Stop();
}

TEST_F(QueryServiceTest, CountOnlySuppressesRowsButKeepsCount) {
  QueryService::Options options;
  options.queue.max_delay_us = 100;
  QueryService service(&engine_, options);
  ASSERT_TRUE(service.Start().ok());

  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 50.0});
  request.count_only = true;

  engine::EngineQuery direct;
  direct.predicates = request.predicates;
  size_t expected = engine_.Execute(direct).row_ids.size();

  QueryResponse response = SubmitAndWait(&service, request);
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.count, expected);
  EXPECT_TRUE(response.row_ids.empty());
  service.Stop();
}

TEST_F(QueryServiceTest, CountAndIdsOfOneQueryInOneBatchStayApart) {
  // A batch of two holds the same predicates as a count and as an ids
  // request; the ids request must get its row ids back.
  QueryService::Options options;
  options.queue.max_batch = 2;
  options.queue.max_delay_us = 200000;  // hold the window for both
  QueryService service(&engine_, options);
  ASSERT_TRUE(service.Start().ok());

  QueryRequest count;
  count.predicates.push_back(engine::ValuePredicate{0, 10.0, 70.0});
  count.count_only = true;
  QueryRequest ids = count;
  ids.count_only = false;

  engine::EngineQuery direct;
  direct.predicates = count.predicates;
  std::vector<uint64_t> expected = engine_.Execute(direct).row_ids;
  ASSERT_FALSE(expected.empty());

  std::mutex mu;
  std::condition_variable cv;
  int pending = 2;
  QueryResponse responses[2];
  for (int i = 0; i < 2; ++i) {
    service.Submit(i == 0 ? count : ids, [&, i](QueryResponse resp) {
      std::lock_guard<std::mutex> lock(mu);
      responses[i] = std::move(resp);
      if (--pending == 0) cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return pending == 0; });
  }
  EXPECT_EQ(responses[0].status, StatusCode::kOk);
  EXPECT_EQ(responses[0].count, expected.size());
  EXPECT_TRUE(responses[0].row_ids.empty());
  EXPECT_EQ(responses[1].status, StatusCode::kOk);
  EXPECT_EQ(responses[1].batch_size, 2u);
  EXPECT_EQ(responses[1].count, expected.size());
  EXPECT_EQ(responses[1].row_ids, expected);
  service.Stop();
}

TEST_F(QueryServiceTest, SchemaViolationsRejectSynchronouslyBeforeTheEngine) {
  QueryService service(&engine_, QueryService::Options{});
  ASSERT_TRUE(service.Start().ok());

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
    bool called = false;
    service.Submit(c.request, [&](QueryResponse resp) {
      called = true;
      EXPECT_EQ(resp.status, StatusCode::kBadRequest) << c.what;
      EXPECT_FALSE(resp.error.empty()) << c.what;
    });
    // Rejections are synchronous — no dispatcher round trip.
    EXPECT_TRUE(called) << c.what;
  }
  service.Stop();
}

TEST_F(QueryServiceTest, SubmitAfterStopSaysShuttingDown) {
  QueryService service(&engine_, QueryService::Options{});
  ASSERT_TRUE(service.Start().ok());
  service.Stop();
  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 1.0});
  bool called = false;
  service.Submit(request, [&](QueryResponse resp) {
    called = true;
    EXPECT_EQ(resp.status, StatusCode::kShuttingDown);
  });
  EXPECT_TRUE(called);
}

TEST_F(QueryServiceTest, ExpiredDeadlineIsShedNotExecuted) {
  QueryService::Options options;
  // A long admission window guarantees the 1 ms deadline lapses while
  // the query waits for the window to close.
  options.queue.max_batch = 64;
  options.queue.max_delay_us = 50000;  // 50 ms
  QueryService service(&engine_, options);
  ASSERT_TRUE(service.Start().ok());

  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 100.0});
  request.deadline_ms = 1;
  QueryResponse response = SubmitAndWait(&service, request);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  service.Stop();
}

TEST_F(QueryServiceTest, BackpressureRejectsWhenTheQueueIsFull) {
  QueryService::Options options;
  options.queue.capacity = 2;
  options.queue.max_batch = 64;
  options.queue.max_delay_us = 200000;  // hold the window open
  QueryService service(&engine_, options);
  ASSERT_TRUE(service.Start().ok());

  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 0.0, 100.0});
  request.count_only = true;

  std::atomic<int> ok{0}, overloaded{0}, pending{0};
  std::mutex mu;
  std::condition_variable cv;
  constexpr int kFlood = 10;
  pending = kFlood;
  for (int i = 0; i < kFlood; ++i) {
    service.Submit(request, [&](QueryResponse resp) {
      if (resp.status == StatusCode::kOk) ++ok;
      if (resp.status == StatusCode::kOverloaded) ++overloaded;
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return pending == 0; });
  }
  // The first queries fill the capacity-2 queue (possibly with the
  // dispatcher already consuming); the bulk of the flood must shed.
  EXPECT_GE(overloaded.load(), kFlood - 4);
  EXPECT_GE(ok.load(), 2);
  EXPECT_EQ(ok.load() + overloaded.load(), kFlood);
  service.Stop();
}

TEST_F(QueryServiceTest, DuplicateQueriesInABatchAreDedupedByTheEngine) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  QueryService::Options options;
  options.queue.max_batch = 16;
  options.queue.max_delay_us = 50000;  // accumulate the flood in one batch
  QueryService service(&engine_, options);
  ASSERT_TRUE(service.Start().ok());

  uint64_t dedup_before =
      obs::SnapshotStats().counter(obs::Counter::kEngineBatchDedupHits);

  QueryRequest request;
  request.predicates.push_back(engine::ValuePredicate{0, 10.0, 90.0});
  request.count_only = true;

  std::mutex mu;
  std::condition_variable cv;
  int pending = 8;
  uint64_t counts[8] = {0};
  for (int i = 0; i < 8; ++i) {
    QueryRequest r = request;
    r.id = static_cast<uint32_t>(i);
    service.Submit(r, [&, i](QueryResponse resp) {
      EXPECT_EQ(resp.status, StatusCode::kOk);
      counts[i] = resp.count;
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return pending == 0; });
  }
  for (int i = 1; i < 8; ++i) EXPECT_EQ(counts[i], counts[0]);
  uint64_t dedup_after =
      obs::SnapshotStats().counter(obs::Counter::kEngineBatchDedupHits);
  // All eight queries are identical; whatever batches they landed in,
  // at least some duplicates must have been collapsed.
  EXPECT_GT(dedup_after, dedup_before);
  service.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace abitmap
