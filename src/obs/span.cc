#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <unordered_map>

#include "obs/appendf.h"
#include "obs/seqlock_ring.h"

namespace abitmap {
namespace obs {

using internal::Appendf;

#if !defined(AB_DISABLE_STATS)

namespace internal {

namespace {

using SpanRing = SeqlockRing<SpanEvent, kSpanRingCapacity>;

std::atomic<uint32_t> next_tid{0};
std::atomic<uint64_t> next_span_id{0};

}  // namespace

constinit thread_local uint64_t tls_current_span = 0;

uint32_t SpanTid() {
  thread_local uint32_t tid = 0;
  if (tid == 0) tid = next_tid.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
}

uint64_t NextSpanId() {
  return next_span_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

void PublishSpan(const char* name, uint32_t tid, uint64_t span_id,
                 uint64_t parent_id, uint64_t start_ns, uint64_t dur_ns) {
  SpanRing::Instance().Publish(
      SpanEvent{name, tid, span_id, parent_id, start_ns, dur_ns});
}

}  // namespace internal

std::vector<SpanEvent> SnapshotSpans() {
  return internal::SpanRing::Instance().Snapshot();
}

void ClearSpans() { internal::SpanRing::Instance().Clear(); }

#else  // AB_DISABLE_STATS

std::vector<SpanEvent> SnapshotSpans() { return {}; }
void ClearSpans() {}

#endif  // AB_DISABLE_STATS

std::string SpansToChromeJson() {
  std::vector<SpanEvent> events = SnapshotSpans();
  std::string out = "{\n\"displayTimeUnit\": \"ns\",\n";
  Appendf(&out, "\"otherData\": {\"enabled\": %s, \"capacity\": %zu},\n",
          kStatsEnabled ? "true" : "false", kSpanRingCapacity);
  out += "\"traceEvents\": [";

  // Thread-name metadata so Perfetto labels the rows.
  std::vector<uint64_t> tids;
  for (const SpanEvent& e : events) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  bool first = true;
  for (uint64_t tid : tids) {
    Appendf(&out,
            "%s\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"tid\": %" PRIu64 ", \"args\": {\"name\": \"abitmap-%" PRIu64
            "\"}}",
            first ? "" : ",", tid, tid);
    first = false;
  }

  std::unordered_map<uint64_t, const SpanEvent*> by_id;
  by_id.reserve(events.size());
  for (const SpanEvent& e : events) by_id.emplace(e.span_id, &e);

  for (const SpanEvent& e : events) {
    Appendf(&out,
            "%s\n{\"name\": \"%s\", \"cat\": \"abitmap\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": %" PRIu64 ", \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64 "}}",
            first ? "" : ",", e.name, e.tid,
            static_cast<double>(e.start_ns) / 1000.0,
            static_cast<double>(e.dur_ns) / 1000.0, e.span_id, e.parent_id);
    first = false;
    // Cross-thread parent link (a pool task chunk adopted a coordinating
    // span): bind with a flow arrow. The "s" step must sit inside the
    // parent slice, so the child's start is clamped into it.
    auto parent_it = e.parent_id != 0 ? by_id.find(e.parent_id) : by_id.end();
    if (parent_it != by_id.end() && parent_it->second->tid != e.tid) {
      const SpanEvent& p = *parent_it->second;
      uint64_t s_ns = std::max(p.start_ns,
                               std::min(e.start_ns, p.start_ns + p.dur_ns));
      Appendf(&out,
              ",\n{\"name\": \"%s\", \"cat\": \"abitmap\", \"ph\": \"s\", "
              "\"id\": %" PRIu64 ", \"pid\": 1, \"tid\": %" PRIu64
              ", \"ts\": %.3f}",
              e.name, e.span_id, p.tid,
              static_cast<double>(s_ns) / 1000.0);
      Appendf(&out,
              ",\n{\"name\": \"%s\", \"cat\": \"abitmap\", \"ph\": \"f\", "
              "\"bp\": \"e\", \"id\": %" PRIu64 ", \"pid\": 1, \"tid\": %" PRIu64
              ", "
              "\"ts\": %.3f}",
              e.name, e.span_id, e.tid,
              static_cast<double>(e.start_ns) / 1000.0);
    }
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace obs
}  // namespace abitmap
