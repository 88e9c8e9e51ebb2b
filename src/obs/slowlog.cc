#include "obs/slowlog.h"

#include <atomic>
#include <cinttypes>

#include "obs/appendf.h"
#include "obs/seqlock_ring.h"
#include "obs/span.h"

namespace abitmap {
namespace obs {

using internal::Appendf;

namespace {

std::atomic<uint64_t> g_threshold_ns{100ull * 1000 * 1000};  // 100 ms

}  // namespace

void SetSlowLogThresholdNs(uint64_t ns) {
  g_threshold_ns.store(ns, std::memory_order_relaxed);
}

uint64_t SlowLogThresholdNs() {
  return g_threshold_ns.load(std::memory_order_relaxed);
}

#if !defined(AB_DISABLE_STATS)

namespace {

using SlowLogRing = SeqlockRing<SlowQueryRecord, kSlowLogCapacity>;

/// Mirrors the stage breakdown into the span ring as one
/// serve/slow_request parent with child spans per nonzero stage, so
/// /traces.json renders the subtree of every retained slow request.
void PublishStageSpans(const SlowQueryRecord& rec) {
  uint32_t tid = internal::SpanTid();
  uint64_t parent = internal::NextSpanId();
  uint64_t start = rec.mono_ns - rec.total_ns;
  internal::PublishSpan("serve/slow_request", tid, parent, 0, start,
                        rec.total_ns);
  struct Stage {
    const char* name;
    uint64_t dur;
  };
  const Stage stages[] = {
      {"slow/queue", rec.queue_ns},
      {"slow/batch", rec.batch_ns},
      {"slow/engine", rec.engine_ns},
      {"slow/verify", rec.verify_ns},
  };
  uint64_t cursor = start;
  for (const Stage& s : stages) {
    if (s.dur == 0) continue;
    internal::PublishSpan(s.name, tid, internal::NextSpanId(), parent,
                          cursor, s.dur);
    // queue+batch tile the request window; engine/verify are
    // attributions inside the batch window and just start where the
    // batch does.
    if (s.name[5] == 'q' || s.name[5] == 'b') cursor += s.dur;
  }
}

}  // namespace

void RecordSlowQuery(const SlowQueryRecord& record) {
  SlowLogRing::Instance().Publish(record);
  PublishStageSpans(record);
}

std::vector<SlowQueryRecord> SnapshotSlowLog() {
  std::vector<SlowQueryRecord> records = SlowLogRing::Instance().Snapshot();
  for (SlowQueryRecord& rec : records) {
    if (rec.path == nullptr) rec.path = "";
  }
  return records;
}

void ClearSlowLog() { SlowLogRing::Instance().Clear(); }

#endif  // !AB_DISABLE_STATS

std::string SlowLogToJson() {
  std::string out = "{\n";
  Appendf(&out, "  \"enabled\": %s,\n", kStatsEnabled ? "true" : "false");
  Appendf(&out, "  \"threshold_ns\": %" PRIu64 ",\n", SlowLogThresholdNs());
  Appendf(&out, "  \"capacity\": %zu,\n", kSlowLogCapacity);
  out += "  \"records\": [";
  std::vector<SlowQueryRecord> records = SnapshotSlowLog();
  for (size_t i = 0; i < records.size(); ++i) {
    const SlowQueryRecord& r = records[i];
    Appendf(&out,
            "%s\n    {\"trace_id\": %" PRIu64 ", \"id\": %" PRIu64
            ", \"status\": %u, \"batch_size\": %u, \"mono_ns\": %" PRIu64
            ", \"total_ns\": %" PRIu64 ", \"decode_ns\": %" PRIu64
            ", \"queue_ns\": %" PRIu64 ", \"batch_ns\": %" PRIu64
            ", \"engine_ns\": %" PRIu64 ", \"verify_ns\": %" PRIu64
            ", \"serialize_ns\": %" PRIu64,
            i == 0 ? "" : ",", r.trace_id, r.request_id, r.status,
            r.batch_size, r.mono_ns, r.total_ns, r.decode_ns, r.queue_ns,
            r.batch_ns, r.engine_ns, r.verify_ns, r.serialize_ns);
    Appendf(&out,
            ", \"path\": \"%s\", \"candidates\": %" PRIu64
            ", \"verified_matches\": %" PRIu64
            ", \"observed_precision\": %.6f}",
            r.path, r.candidates, r.verified_matches,
            r.observed_precision);
  }
  out += records.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace obs
}  // namespace abitmap
