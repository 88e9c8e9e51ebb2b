#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

/// The benchmark's own in-memory trace: spans (name, start, end, parent)
/// recorded around the public entry points the benchmark calls, named
/// counts, and named sample series (values the server echoes back, such as
/// its stage timings). Nothing is written while a run measures; the trace
/// is rendered once, after the run, and the per-layer table is derived
/// from it. A disabled tracer records nothing, so the untraced run pays
/// one branch per call site.
///
/// Open/Close bracket a phase: spans added (or merged) while a phase is
/// open become its children. One tracer per thread: client threads each
/// own one and the owner merges them after the threads are joined.

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;
  /// Parent argument meaning "the innermost open phase, if any".
  static constexpr uint32_t kOpenPhase = UINT32_MAX - 1;

  struct Span {
    std::string name;
    uint32_t parent = kNoParent;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (kNoParent when disabled).
  uint32_t Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent = kOpenPhase) {
    if (!enabled_) return kNoParent;
    if (parent == kOpenPhase) parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back(Span{name, parent, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  /// Starts a phase span; later spans nest under it until Close.
  void Open(const std::string& name) {
    if (enabled_) open_.push_back(Add(name, NowNs(), 0));
  }

  /// Ends the innermost open phase.
  void Close() {
    if (!enabled_ || open_.empty()) return;
    spans_[open_.back()].end_ns = NowNs();
    open_.pop_back();
  }

  void Count(const std::string& name, double amount = 1) {
    if (enabled_) counts_[name] += amount;
  }

  void Sample(const std::string& name, double value) {
    if (enabled_) samples_[name].push_back(value);
  }

  /// Durations, in microseconds, of every span with this name.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e3);
    }
    return out;
  }

  double count(const std::string& name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

  const std::vector<double>& samples(const std::string& name) const {
    static const std::vector<double> kEmpty;
    auto it = samples_.find(name);
    return it == samples_.end() ? kEmpty : it->second;
  }

  /// Appends another tracer's records; its span parents are re-based and
  /// its root spans nest under the innermost open phase.
  void Merge(const Tracer& other) {
    if (!enabled_) return;
    uint32_t base = static_cast<uint32_t>(spans_.size());
    uint32_t root = open_.empty() ? kNoParent : open_.back();
    for (Span s : other.spans_) {
      s.parent = s.parent == kNoParent ? root : s.parent + base;
      spans_.push_back(std::move(s));
    }
    for (const auto& [k, v] : other.counts_) counts_[k] += v;
    for (const auto& [k, v] : other.samples_) {
      std::vector<double>& dst = samples_[k];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }

  /// {"spans": [[name, parent, start_ns, end_ns], ...], "counts": {...},
  ///  "samples": {name: [...]}}; start times relative to the first span.
  std::string ToJson() const {
    std::string out = "{\"spans\": [";
    uint64_t t0 = UINT64_MAX;
    for (const Span& s : spans_) t0 = s.start_ns < t0 ? s.start_ns : t0;
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf), "%s[\"%s\", %lld, %llu, %llu]",
                    i == 0 ? "" : ", ", s.name.c_str(),
                    s.parent == kNoParent ? -1LL
                                          : static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.start_ns - t0),
                    static_cast<unsigned long long>(s.end_ns - t0));
      out += buf;
    }
    out += "], \"counts\": {";
    bool first = true;
    for (const auto& [k, v] : counts_) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", first ? "" : ", ",
                    k.c_str(), v);
      out += buf;
      first = false;
    }
    out += "}, \"samples\": {";
    first = true;
    for (const auto& [k, values] : samples_) {
      out += first ? "\"" : ", \"";
      out += k + "\": [";
      for (size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ", ",
                      values[i]);
        out += buf;
      }
      out += "]";
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  ///< ids of the open phases, innermost last
  std::map<std::string, double> counts_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Times one call into `tracer` as a span; no-op when disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), name_(name), start_(tracer->enabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (tracer_->enabled()) tracer_->Add(name_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t start_;
};

/// Keeps a tracer phase open for a scope.
class ScopedPhase {
 public:
  ScopedPhase(Tracer* tracer, const char* name) : tracer_(tracer) {
    tracer_->Open(name);
  }
  ~ScopedPhase() { tracer_->Close(); }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
