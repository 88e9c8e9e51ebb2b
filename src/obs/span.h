#ifndef ABITMAP_OBS_SPAN_H_
#define ABITMAP_OBS_SPAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/stats.h"

/// Phase-level span tracing (the tracing half of the obs layer; stats.h is
/// the counter half). An AB_SPAN("name") scope records one completed span
/// — static name, thread id, span id, parent span id, start, duration —
/// into a bounded global ring, exportable as Chrome Trace Event Format
/// JSON (chrome://tracing, Perfetto) or served live via /traces.json.
///
/// Recording contract:
///  * Opening a span is two thread-local stores plus one clock read;
///    closing is one clock read plus one lock-free ring publish. Spans
///    wrap *phases* (a build, a merge, one evaluation chunk) — never
///    per-probe work; probe-level accounting stays in the stats counters.
///  * The ring holds the most recent kSpanRingCapacity completed spans;
///    it is a SeqlockRing (obs/seqlock_ring.h), whose header states the
///    publish/snapshot protocol.
///  * Parent context propagates through util::ThreadPool: Submit captures
///    the submitting thread's innermost open span, and the worker adopts
///    it for the task's duration, so a parallel BuildParallel /
///    EvaluateParallel renders as one coherent trace — chunk spans on pool
///    threads point back at the coordinating span.
///
/// Compile-out contract: with -DAB_DISABLE_STATS=ON, AB_SPAN() reduces to
/// `((void)0)`, ScopedSpan/ScopedSpanParent to empty structs, and
/// CurrentSpanContext() to a constant 0. SnapshotSpans() /
/// SpansToChromeJson() stay link-compatible and report an empty, disabled
/// trace, so /traces.json serves a clean payload in both configurations.

namespace abitmap {
namespace obs {

/// One completed span, as read back from the ring. `name` points at
/// static storage (span sites pass string literals).
struct SpanEvent {
  const char* name = "";
  /// Stable small per-thread id (1-based). A full word, so the ring's
  /// word copy of an event built from registers needs no 32-bit merge.
  uint64_t tid = 0;
  uint64_t span_id = 0;    ///< process-unique, nonzero
  uint64_t parent_id = 0;  ///< 0 = root span
  uint64_t start_ns = 0;   ///< steady-clock timestamp at open
  uint64_t dur_ns = 0;
};

/// Completed spans retained by the ring. Sized so a parallel
/// build + query workload's phase spans fit comfortably while the ring
/// stays a few hundred KiB of static memory.
inline constexpr size_t kSpanRingCapacity = 4096;

/// The ring's current contents in publish (completion) order, oldest
/// first. Slots being overwritten concurrently are skipped. Empty in an
/// AB_DISABLE_STATS build.
std::vector<SpanEvent> SnapshotSpans();

/// Discards all recorded spans. QUIESCENT CALLERS ONLY: every publishing
/// thread must have finished its spans, and no SnapshotSpans() reader
/// (including an HttpServer serving /traces.json) may be running. A
/// writer that claimed its ring ticket before the reset can republish a
/// stale event into the "cleared" ring afterwards. Intended for test
/// resets between phases, never for a live serving process.
void ClearSpans();

/// Chrome Trace Event Format JSON of SnapshotSpans(): one complete ("X")
/// event per span with microsecond ts/dur, pid 1, the recording thread as
/// tid, and {id, parent} args; plus thread-name metadata and flow ("s"/
/// "f") events binding cross-thread parent links so pool-task chunks draw
/// arrows from their coordinating span. Loadable in chrome://tracing and
/// Perfetto; `{"otherData": {"enabled": false}}` with an empty event list
/// when the layer is compiled out.
std::string SpansToChromeJson();

#if !defined(AB_DISABLE_STATS)

namespace internal {

/// Innermost open span of the calling thread (0 = none). A plain
/// thread_local: only the owning thread reads or writes it. constinit
/// lets other translation units read it directly instead of through a
/// TLS init wrapper.
extern constinit thread_local uint64_t tls_current_span;

uint32_t SpanTid();      ///< stable 1-based id of the calling thread
uint64_t NextSpanId();   ///< process-unique, nonzero
void PublishSpan(const char* name, uint32_t tid, uint64_t span_id,
                 uint64_t parent_id, uint64_t start_ns, uint64_t dur_ns);

}  // namespace internal

/// The calling thread's innermost open span id (0 when none). ThreadPool
/// captures this at Submit to propagate trace context to its workers.
inline uint64_t CurrentSpanContext() { return internal::tls_current_span; }

/// RAII span: opens on construction, publishes the completed event on
/// destruction. `name` must have static storage duration (pass a string
/// literal); the ring stores the pointer, not a copy.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name),
        span_id_(internal::NextSpanId()),
        parent_id_(internal::tls_current_span),
        start_ns_(internal::MonotonicNowNs()) {
    internal::tls_current_span = span_id_;
  }
  ~ScopedSpan() {
    internal::tls_current_span = parent_id_;
    internal::PublishSpan(name_, internal::SpanTid(), span_id_, parent_id_,
                          start_ns_, internal::MonotonicNowNs() - start_ns_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t span_id_;
  uint64_t parent_id_;
  uint64_t start_ns_;
};

/// Adopts a span context captured on another thread (0 adopts "no
/// parent"): spans opened inside the scope report `parent` as their
/// parent. ThreadPool wraps every task in one of these.
class ScopedSpanParent {
 public:
  explicit ScopedSpanParent(uint64_t parent)
      : saved_(internal::tls_current_span) {
    internal::tls_current_span = parent;
  }
  ~ScopedSpanParent() { internal::tls_current_span = saved_; }
  ScopedSpanParent(const ScopedSpanParent&) = delete;
  ScopedSpanParent& operator=(const ScopedSpanParent&) = delete;

 private:
  uint64_t saved_;
};

#define AB_SPAN_CONCAT_INNER(a, b) a##b
#define AB_SPAN_CONCAT(a, b) AB_SPAN_CONCAT_INNER(a, b)
/// Scoped span for the rest of the enclosing block. `name` must be a
/// string literal (or other static-storage string).
#define AB_SPAN(name) \
  ::abitmap::obs::ScopedSpan AB_SPAN_CONCAT(ab_span_, __LINE__)(name)

#else  // AB_DISABLE_STATS

inline uint64_t CurrentSpanContext() { return 0; }

class ScopedSpan {
 public:
  explicit ScopedSpan(const char*) {}
};

class ScopedSpanParent {
 public:
  explicit ScopedSpanParent(uint64_t) {}
};

#define AB_SPAN(name) ((void)0)

#endif  // AB_DISABLE_STATS

}  // namespace obs
}  // namespace abitmap

#endif  // ABITMAP_OBS_SPAN_H_
