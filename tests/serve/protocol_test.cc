#include "serve/protocol.h"

#include <cstring>
#include <random>
#include <string>

#include "gtest/gtest.h"

namespace abitmap {
namespace serve {
namespace {

constexpr size_t kMaxFrame = 1 << 20;

QueryRequest SampleRequest() {
  QueryRequest q;
  q.id = 42;
  q.exact = true;
  q.count_only = true;
  q.deadline_ms = 75;
  q.predicates.push_back(engine::ValuePredicate{0, 12.5, 60.0});
  q.predicates.push_back(engine::ValuePredicate{2, -1.0, 4.5});
  q.rows = {3, 17, 99, 12345};
  return q;
}

TEST(ProtocolTest, QueryFrameRoundTrips) {
  QueryRequest in = SampleRequest();
  std::string frame = EncodeQueryFrame(in);

  QueryRequest out;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeQueryFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                             frame.size(), kMaxFrame, &out, &consumed, &error),
            DecodeStatus::kOk)
      << error;
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.exact, in.exact);
  EXPECT_EQ(out.count_only, in.count_only);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  ASSERT_EQ(out.predicates.size(), in.predicates.size());
  for (size_t i = 0; i < in.predicates.size(); ++i) {
    EXPECT_EQ(out.predicates[i].attr, in.predicates[i].attr);
    EXPECT_EQ(out.predicates[i].lo, in.predicates[i].lo);
    EXPECT_EQ(out.predicates[i].hi, in.predicates[i].hi);
  }
  EXPECT_EQ(out.rows, in.rows);
}

TEST(ProtocolTest, ResponseFrameRoundTrips) {
  QueryResponse in;
  in.id = 7;
  in.status = StatusCode::kOk;
  in.count = 3;
  in.row_ids = {5, 9, 1024};
  std::string frame = EncodeResponseFrame(in);

  QueryResponse out;
  size_t consumed = 0;
  ASSERT_EQ(
      DecodeResponseFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                          frame.size(), kMaxFrame, &out, &consumed),
      DecodeStatus::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.count, in.count);
  EXPECT_EQ(out.row_ids, in.row_ids);
}

TEST(ProtocolTest, ErrorResponseCarriesMessageNotRows) {
  QueryResponse in;
  in.id = 1;
  in.status = StatusCode::kBadRequest;
  in.error = "unknown attribute 9";
  in.row_ids = {1, 2, 3};  // must be suppressed for non-ok
  std::string frame = EncodeResponseFrame(in);

  QueryResponse out;
  size_t consumed = 0;
  ASSERT_EQ(
      DecodeResponseFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                          frame.size(), kMaxFrame, &out, &consumed),
      DecodeStatus::kOk);
  EXPECT_EQ(out.status, StatusCode::kBadRequest);
  EXPECT_EQ(out.error, "unknown attribute 9");
  EXPECT_TRUE(out.row_ids.empty());
}

TEST(ProtocolTest, EveryPrefixOfAValidFrameNeedsMore) {
  std::string frame = EncodeQueryFrame(SampleRequest());
  for (size_t len = 0; len < frame.size(); ++len) {
    QueryRequest out;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(
        DecodeQueryFrame(reinterpret_cast<const uint8_t*>(frame.data()), len,
                         kMaxFrame, &out, &consumed, &error),
        DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(ProtocolTest, BadMagicIsMalformed) {
  std::string frame = EncodeQueryFrame(SampleRequest());
  frame[0] = 'X';
  QueryRequest out;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeQueryFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                             frame.size(), kMaxFrame, &out, &consumed, &error),
            DecodeStatus::kMalformed);
}

TEST(ProtocolTest, HostileLengthPrefixIsRejectedBeforeAllocation) {
  // Header declares a 2 GiB payload; the decoder must refuse based on the
  // limit without waiting for (or allocating) the bytes.
  std::string frame = EncodeQueryFrame(SampleRequest());
  uint32_t huge = 1u << 31;
  std::memcpy(&frame[4], &huge, 4);
  QueryRequest out;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeQueryFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                             frame.size(), kMaxFrame, &out, &consumed, &error),
            DecodeStatus::kMalformed);
  EXPECT_NE(error.find("size limit"), std::string::npos);
}

TEST(ProtocolTest, PayloadElementCountMismatchIsMalformed) {
  // Declare one more row than the payload carries.
  QueryRequest in = SampleRequest();
  std::string frame = EncodeQueryFrame(in);
  uint32_t bad_rows = static_cast<uint32_t>(in.rows.size()) + 1;
  std::memcpy(&frame[kFrameHeaderBytes + 12], &bad_rows, 4);
  QueryRequest out;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeQueryFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                             frame.size(), kMaxFrame, &out, &consumed, &error),
            DecodeStatus::kMalformed);
}

TEST(ProtocolTest, UnknownFlagsAreMalformed) {
  std::string frame = EncodeQueryFrame(SampleRequest());
  frame[kFrameHeaderBytes + 4] = static_cast<char>(0x80);
  QueryRequest out;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeQueryFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                             frame.size(), kMaxFrame, &out, &consumed, &error),
            DecodeStatus::kMalformed);
}

TEST(ProtocolTest, FuzzedGarbageNeverDecodesAsOkAndNeverCrashes) {
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = rng() % 256;
    std::string buf(len, '\0');
    for (char& c : buf) c = static_cast<char>(rng());
    QueryRequest out;
    size_t consumed = 0;
    std::string error;
    DecodeStatus st =
        DecodeQueryFrame(reinterpret_cast<const uint8_t*>(buf.data()),
                         buf.size(), kMaxFrame, &out, &consumed, &error);
    // Random bytes essentially never start with the magic; whatever the
    // verdict, the decoder must not crash or read out of bounds (ASan
    // enforces the latter in the sanitizer config).
    EXPECT_NE(st, DecodeStatus::kOk);
  }
}

TEST(ProtocolTest, FuzzedBitFlipsOnValidFramesNeverCrash) {
  std::string valid = EncodeQueryFrame(SampleRequest());
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string frame = valid;
    int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      frame[rng() % frame.size()] ^= static_cast<char>(1u << (rng() % 8));
    }
    QueryRequest out;
    size_t consumed = 0;
    std::string error;
    DecodeStatus st =
        DecodeQueryFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                         frame.size(), kMaxFrame, &out, &consumed, &error);
    if (st == DecodeStatus::kOk) {
      // A flip that survives validation must still report a fully
      // consumed, internally consistent message.
      EXPECT_EQ(consumed, frame.size());
    }
  }
}

TEST(ProtocolJsonTest, FullObjectParses) {
  QueryRequest out;
  std::string error;
  ASSERT_TRUE(ParseJsonQuery(
      R"({"predicates":[{"attr":1,"lo":2.5,"hi":7.25},{"attr":0,"lo":-3,"hi":3}],)"
      R"("rows":[1,5,900],"exact":false,"count_only":true,)"
      R"("deadline_ms":50,"id":9})",
      &out, &error))
      << error;
  ASSERT_EQ(out.predicates.size(), 2u);
  EXPECT_EQ(out.predicates[0].attr, 1u);
  EXPECT_EQ(out.predicates[0].lo, 2.5);
  EXPECT_EQ(out.predicates[0].hi, 7.25);
  EXPECT_EQ(out.rows, (std::vector<uint64_t>{1, 5, 900}));
  EXPECT_FALSE(out.exact);
  EXPECT_TRUE(out.count_only);
  EXPECT_EQ(out.deadline_ms, 50u);
  EXPECT_EQ(out.id, 9u);
}

TEST(ProtocolJsonTest, DefaultsAndUnknownKeys) {
  QueryRequest out;
  std::string error;
  ASSERT_TRUE(ParseJsonQuery(
      R"({"predicates":[{"attr":0,"lo":1,"hi":2,"comment":"hot"}],)"
      R"("client":{"nested":[1,2,{"deep":true}]}})",
      &out, &error))
      << error;
  EXPECT_TRUE(out.exact);
  EXPECT_FALSE(out.count_only);
  EXPECT_TRUE(out.rows.empty());
  EXPECT_EQ(out.deadline_ms, 0u);
  ASSERT_EQ(out.predicates.size(), 1u);
}

TEST(ProtocolJsonTest, WhitespaceTolerant) {
  QueryRequest out;
  std::string error;
  ASSERT_TRUE(ParseJsonQuery(
      " {\n \"predicates\" : [ { \"attr\" : 0 , \"lo\" : 1 , \"hi\" : 2 } ]"
      " }\n",
      &out, &error))
      << error;
  ASSERT_EQ(out.predicates.size(), 1u);
}

TEST(ProtocolJsonTest, MalformedInputsAreRejected) {
  const char* bad[] = {
      "",
      "null",
      "[]",
      "{",
      "{\"predicates\":}",
      "{\"predicates\":[{]}",
      "{\"predicates\":[{\"attr\":-1,\"lo\":0,\"hi\":1}]}",
      "{\"predicates\":[{\"attr\":1e12,\"lo\":0,\"hi\":1}]}",
      "{\"rows\":[-5]}",
      "{\"rows\":[1.5]}",
      "{\"exact\":\"yes\"}",
      "{\"deadline_ms\":-2}",
      "{} trailing",
      "{\"a\":\"unterminated}",
      "{\"predicates\":[{\"attr\":0,\"lo\":0,\"hi\":1}]}}",
  };
  for (const char* body : bad) {
    QueryRequest out;
    std::string error;
    EXPECT_FALSE(ParseJsonQuery(body, &out, &error)) << body;
    EXPECT_FALSE(error.empty()) << body;
  }
}

TEST(ProtocolJsonTest, FuzzedBodiesNeverCrash) {
  std::mt19937_64 rng(777);
  const char alphabet[] = "{}[]\":,.0123456789eE+-truefalsnx \\\"";
  for (int trial = 0; trial < 3000; ++trial) {
    size_t len = rng() % 120;
    std::string body(len, '\0');
    for (char& c : body) {
      c = alphabet[rng() % (sizeof(alphabet) - 1)];
    }
    QueryRequest out;
    std::string error;
    ParseJsonQuery(body, &out, &error);  // must terminate without crashing
  }
}

TEST(ProtocolJsonTest, ResponseRendering) {
  QueryResponse resp;
  resp.id = 3;
  resp.status = StatusCode::kOk;
  resp.count = 2;
  resp.row_ids = {10, 20};
  resp.path = "exact";
  resp.batch_size = 4;
  resp.latency_us = 123.4;
  std::string json = ResponseToJson(resp);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":[10,20]"), std::string::npos);
  EXPECT_NE(json.find("\"batch_size\":4"), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"exact\""), std::string::npos);
  EXPECT_EQ(json.find("\"backend\""), std::string::npos);

  QueryResponse err;
  err.status = StatusCode::kOverloaded;
  err.error = "queue \"full\"\n";
  std::string ejson = ResponseToJson(err);
  EXPECT_NE(ejson.find("\"status\":\"overloaded\""), std::string::npos);
  EXPECT_NE(ejson.find("queue \\\"full\\\"\\n"), std::string::npos);
  EXPECT_EQ(ejson.find("\"rows\""), std::string::npos);
}

TEST(ProtocolTest, HttpStatusMapping) {
  EXPECT_EQ(HttpStatusFor(StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusFor(StatusCode::kBadRequest), 400);
  EXPECT_EQ(HttpStatusFor(StatusCode::kOverloaded), 503);
  EXPECT_EQ(HttpStatusFor(StatusCode::kDeadlineExceeded), 504);
  EXPECT_EQ(HttpStatusFor(StatusCode::kShuttingDown), 503);
  EXPECT_EQ(HttpStatusFor(StatusCode::kInternal), 500);
}

}  // namespace
}  // namespace serve
}  // namespace abitmap
