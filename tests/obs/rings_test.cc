// Tests of the seqlock ring (src/obs/seqlock_ring.h) and the slow-query
// log and time-series rings built on it (src/obs/slowlog.h,
// src/obs/timeseries.h): round-trips, bounded wraparound, JSON schemas,
// threshold plumbing, and the compile-out contract. Like stats_test.cc
// the file compiles in both configurations, branching on
// obs::kStatsEnabled; the concurrency cases double as TSan witnesses for
// the word-ring publish protocol.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "obs/seqlock_ring.h"
#include "obs/slowlog.h"
#include "obs/stats.h"
#include "obs/timeseries.h"

namespace abitmap {
namespace obs {
namespace {

// --- the ring itself -------------------------------------------------------

/// Every word carries the same value, so a torn read (words from two
/// publications) shows up as unequal words.
struct TicketRecord {
  uint64_t words[5];
};

TicketRecord MakeTicketRecord(uint64_t ticket) {
  TicketRecord r;
  for (uint64_t& w : r.words) w = ticket;
  return r;
}

bool Whole(const TicketRecord& r) {
  for (uint64_t w : r.words) {
    if (w != r.words[0]) return false;
  }
  return true;
}

TEST(SeqlockRingTest, NoTornRecordsNewestSurviveWrapClearEmpties) {
  // A small ring, so writers lap each other constantly: a writer still
  // storing its words when the ring wraps back onto its slot is the case
  // that can tear.
  constexpr size_t kCapacity = 8;
  using Ring = SeqlockRing<TicketRecord, kCapacity>;
  Ring& ring = Ring::Instance();
  ring.Clear();

  // 4 writers overwrite the slots many times over while a reader
  // snapshots: every surfaced record must be whole.
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 5000;
  std::atomic<uint64_t> next_ticket{1};
  std::atomic<bool> reading{false};
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    reading.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      for (const TicketRecord& r : ring.Snapshot()) {
        ASSERT_TRUE(Whole(r)) << "torn record surfaced";
      }
    }
  });
  while (!reading.load(std::memory_order_acquire)) std::this_thread::yield();
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&]() {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        ring.Publish(MakeTicketRecord(
            next_ticket.fetch_add(1, std::memory_order_relaxed)));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  for (const TicketRecord& r : ring.Snapshot()) EXPECT_TRUE(Whole(r));

  // Quiescent wraparound: after 3 laps only the newest kCapacity remain,
  // oldest first.
  ring.Clear();
  for (uint64_t t = 0; t < 3 * kCapacity; ++t) {
    ring.Publish(MakeTicketRecord(t));
  }
  std::vector<TicketRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), kCapacity);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(Whole(records[i]));
    EXPECT_EQ(records[i].words[0], 2 * kCapacity + i);
  }

  ring.Clear();
  EXPECT_TRUE(ring.Snapshot().empty());
}

// --- slow-query log -------------------------------------------------------

SlowQueryRecord MakeRecord(uint64_t trace_id) {
  SlowQueryRecord r;
  r.trace_id = trace_id;
  r.request_id = trace_id + 1000;
  r.status = 0;
  r.batch_size = 4;
  r.mono_ns = 123456789;
  r.total_ns = 2000000;
  r.decode_ns = 1000;
  r.queue_ns = 500000;
  r.batch_ns = 1500000;
  r.engine_ns = 1200000;
  r.verify_ns = 300000;
  r.serialize_ns = 2000;
  r.path = "ab";
  r.candidates = 100;
  r.verified_matches = 97;
  r.observed_precision = 0.97;
  return r;
}

TEST(SlowLogTest, ThresholdAccessorsWorkInBothConfigurations) {
  // Threshold is configuration, not telemetry: it must round-trip even in
  // an AB_DISABLE_STATS build so --slow-ms is never silently ignored.
  uint64_t prev = SlowLogThresholdNs();
  SetSlowLogThresholdNs(0);
  EXPECT_EQ(SlowLogThresholdNs(), 0u);
  SetSlowLogThresholdNs(42u * 1000 * 1000);
  EXPECT_EQ(SlowLogThresholdNs(), 42u * 1000 * 1000);
  SetSlowLogThresholdNs(prev);
}

TEST(SlowLogTest, RecordRoundTripsThroughTheRing) {
  ClearSlowLog();
  RecordSlowQuery(MakeRecord(7));
  RecordSlowQuery(MakeRecord(8));
  std::vector<SlowQueryRecord> records = SnapshotSlowLog();
  if (!kStatsEnabled) {
    EXPECT_TRUE(records.empty());
    return;
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 7u);
  EXPECT_EQ(records[1].trace_id, 8u);
  EXPECT_EQ(records[0].request_id, 1007u);
  EXPECT_EQ(records[0].batch_size, 4u);
  EXPECT_EQ(records[0].total_ns, 2000000u);
  EXPECT_EQ(records[0].queue_ns, 500000u);
  EXPECT_EQ(records[0].engine_ns, 1200000u);
  EXPECT_EQ(records[0].verify_ns, 300000u);
  EXPECT_EQ(records[0].serialize_ns, 2000u);
  EXPECT_STREQ(records[0].path, "ab");
  EXPECT_EQ(records[0].candidates, 100u);
  EXPECT_EQ(records[0].verified_matches, 97u);
  EXPECT_DOUBLE_EQ(records[0].observed_precision, 0.97);
}

TEST(SlowLogTest, RingIsBoundedAndKeepsTheNewest) {
  ClearSlowLog();
  for (uint64_t i = 0; i < kSlowLogCapacity + 32; ++i) {
    RecordSlowQuery(MakeRecord(i));
  }
  std::vector<SlowQueryRecord> records = SnapshotSlowLog();
  if (!kStatsEnabled) {
    EXPECT_TRUE(records.empty());
    return;
  }
  EXPECT_LE(records.size(), kSlowLogCapacity);
  // The newest record survived the wrap; the oldest 32 did not.
  bool found_newest = false;
  for (const SlowQueryRecord& r : records) {
    EXPECT_GE(r.trace_id, 32u);
    if (r.trace_id == kSlowLogCapacity + 31) found_newest = true;
  }
  EXPECT_TRUE(found_newest);
}

TEST(SlowLogTest, JsonCarriesTheSchema) {
  ClearSlowLog();
  RecordSlowQuery(MakeRecord(99));
  std::string json = SlowLogToJson();
  EXPECT_NE(json.find("\"enabled\""), std::string::npos);
  EXPECT_NE(json.find("\"threshold_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"records\""), std::string::npos);
  if (kStatsEnabled) {
    EXPECT_NE(json.find("\"trace_id\": 99"), std::string::npos) << json;
    EXPECT_NE(json.find("\"queue_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"engine_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"verify_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"serialize_ns\""), std::string::npos);
  } else {
    EXPECT_NE(json.find("\"enabled\": false"), std::string::npos);
  }
}

TEST(SlowLogTest, ConcurrentWritersAndReadersAreClean) {
  // TSan witness for the seqlock word-ring: concurrent recorders with a
  // racing snapshotter must produce no data races and only whole records
  // (a torn slot is skipped, never surfaced).
  ClearSlowLog();
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 400;
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<SlowQueryRecord> records = SnapshotSlowLog();
      for (const SlowQueryRecord& r : records) {
        // Every surfaced record is internally consistent.
        ASSERT_EQ(r.request_id, r.trace_id + 1000);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w]() {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        RecordSlowQuery(MakeRecord(static_cast<uint64_t>(w) * kPerWriter + i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
}

// --- time series ----------------------------------------------------------

TEST(TimeSeriesTest, SampleFromStatsDistillsCounters) {
  ResetStats();
  AB_STATS_INC(Counter::kServeRequests);
  AB_STATS_INC(Counter::kServeRequests);
  AB_STATS_INC(Counter::kServeBatches);
  AB_STATS_HIST(Histogram::kServeRequestLatencyNs, 1000000);
  TsSample s = TsSampleFromStats(SnapshotStats());
  if (kStatsEnabled) {
    EXPECT_EQ(s.serve_requests, 2u);
    EXPECT_EQ(s.serve_batches, 1u);
    EXPECT_GT(s.request_p99_us, 0.0);
  } else {
    EXPECT_EQ(s.serve_requests, 0u);
    EXPECT_EQ(s.serve_batches, 0u);
  }
  // Gauge block is the sampler's job, untouched here.
  EXPECT_EQ(s.delta_live, 0u);
}

TEST(TimeSeriesTest, SamplesRoundTripInOrder) {
  ClearTimeSeries();
  for (uint64_t i = 0; i < 5; ++i) {
    TsSample s;
    s.mono_ns = 1000 + i;
    s.serve_requests = i * 10;
    s.delta_live = i;
    s.request_p99_us = 0.5 * static_cast<double>(i);
    RecordTimeSeriesSample(s);
  }
  std::vector<TsSample> samples = SnapshotTimeSeries();
  if (!kStatsEnabled) {
    EXPECT_TRUE(samples.empty());
    return;
  }
  ASSERT_EQ(samples.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(samples[i].mono_ns, 1000 + i);
    EXPECT_EQ(samples[i].serve_requests, i * 10);
    EXPECT_EQ(samples[i].delta_live, i);
    EXPECT_DOUBLE_EQ(samples[i].request_p99_us,
                     0.5 * static_cast<double>(i));
  }
}

TEST(TimeSeriesTest, RingIsBounded) {
  ClearTimeSeries();
  for (uint64_t i = 0; i < kTimeSeriesCapacity + 64; ++i) {
    TsSample s;
    s.mono_ns = i;
    RecordTimeSeriesSample(s);
  }
  std::vector<TsSample> samples = SnapshotTimeSeries();
  if (!kStatsEnabled) {
    EXPECT_TRUE(samples.empty());
    return;
  }
  EXPECT_LE(samples.size(), kTimeSeriesCapacity);
  bool found_newest = false;
  for (const TsSample& s : samples) {
    EXPECT_GE(s.mono_ns, 64u);
    if (s.mono_ns == kTimeSeriesCapacity + 63) found_newest = true;
  }
  EXPECT_TRUE(found_newest);
}

TEST(TimeSeriesTest, JsonCarriesTheSchema) {
  ClearTimeSeries();
  TsSample s;
  s.mono_ns = 777;
  s.delta_live = 3;
  RecordTimeSeriesSample(s);
  std::string json = TimeSeriesToJson();
  EXPECT_NE(json.find("\"enabled\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\""), std::string::npos);
  if (kStatsEnabled) {
    EXPECT_NE(json.find("\"mono_ns\": 777"), std::string::npos) << json;
    EXPECT_NE(json.find("\"delta_live\": 3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"request_p99_us\""), std::string::npos);
    EXPECT_NE(json.find("\"engine_ingest_deletes\""), std::string::npos);
  } else {
    EXPECT_NE(json.find("\"enabled\": false"), std::string::npos);
  }
}

TEST(TimeSeriesTest, ConcurrentSamplersAreClean) {
  ClearTimeSeries();
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 600;
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<TsSample> samples = SnapshotTimeSeries();
      for (const TsSample& s : samples) {
        ASSERT_EQ(s.serve_requests, s.mono_ns * 2);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w]() {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        TsSample s;
        s.mono_ns = static_cast<uint64_t>(w) * kPerWriter + i;
        s.serve_requests = s.mono_ns * 2;
        RecordTimeSeriesSample(s);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
}

}  // namespace
}  // namespace obs
}  // namespace abitmap
