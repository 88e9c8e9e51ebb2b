#ifndef ABITMAP_OBS_SEQLOCK_RING_H_
#define ABITMAP_OBS_SEQLOCK_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

/// Bounded lock-free ring of the most recent N published records: the one
/// retention structure behind the span ring (span.h), the slow-query log
/// (slowlog.h) and the time series (timeseries.h).
///
/// Protocol (a per-slot seqlock):
///  * Publish claims a ticket with one relaxed fetch_add on `head` and
///    writes slot ticket % N. It stores the odd seq 2*ticket+1, stores the
///    record's words with release stores, then stores the even seq
///    2*ticket+2 with release. It never allocates; old records are
///    overwritten.
///  * Each slot has one writer at a time: a writer first waits until the
///    slot's seq shows that the previous lap's ticket (ticket - N) has
///    finished. Without that, a writer lapped mid-write (N later publishes
///    while it stores its words) would keep storing words under the next
///    writer's even seq, and a reader could accept the mixture. The wait
///    is one load on the fast path; it spins only for a lapped writer.
///  * Snapshot walks the newest min(head, N) slots and accepts a slot only
///    when it observes the same even, nonzero seq before and after its
///    acquire word loads. A word load that reads some writer's release
///    store synchronizes with it, so the later seq load sees that writer's
///    odd seq or a newer one; a stable even seq therefore proves the words
///    are exactly the ones that seq's writer published. Slots
///    being overwritten are skipped. A slot whose current ticket has not
///    started writing still holds the previous lap's record; it is
///    coherent, so readers accept any stable even seq, not just the one
///    for ticket t.
///  * Every shared field is an atomic and the ordering rests on
///    release/acquire word accesses, not on fences, so ThreadSanitizer
///    models it. On x86 both are plain moves.
///
/// Each use is a leaked singleton (Instance()): records may be published
/// from thread_local destructors after main() returns.
///
/// T must be trivially copyable and a whole number of 64-bit words; the
/// ring stores it as those words.

namespace abitmap {
namespace obs {

template <typename T, size_t N>
class SeqlockRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring slots copy records through word-sized atomic stores");
  static_assert(sizeof(T) % 8 == 0,
                "record must pack into whole 64-bit words");

 public:
  static SeqlockRing& Instance() {
    static SeqlockRing* ring = new SeqlockRing();
    return *ring;
  }

  void Publish(const T& record) {
    uint64_t words[kWords];
    std::memcpy(words, &record, sizeof(T));
    uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket % N];
    const uint64_t previous_lap = ticket < N ? 0 : 2 * (ticket - N) + 2;
    if (s.seq.load(std::memory_order_acquire) != previous_lap) [[unlikely]] {
      WaitForPreviousLap(s, previous_lap, ticket);
    }
    s.seq.store(2 * ticket + 1, std::memory_order_relaxed);
    // Unrolled, the copy of a record built from registers stays in
    // registers: one plain store per word.
#pragma GCC unroll 32
    for (size_t w = 0; w < kWords; ++w) {
      s.words[w].store(words[w], std::memory_order_release);
    }
    s.seq.store(2 * ticket + 2, std::memory_order_release);
  }

  /// Ring contents in publish order, oldest first.
  std::vector<T> Snapshot() const {
    uint64_t head = head_.load(std::memory_order_acquire);
    uint64_t count = std::min<uint64_t>(head, N);
    std::vector<T> out;
    out.reserve(count);
    for (uint64_t t = head - count; t < head; ++t) {
      const Slot& s = slots_[t % N];
      uint64_t seq = s.seq.load(std::memory_order_acquire);
      if (seq == 0 || (seq & 1) != 0) continue;  // never written / mid-write
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = s.words[w].load(std::memory_order_acquire);
      }
      if (s.seq.load(std::memory_order_relaxed) != seq) continue;
      T record;
      std::memcpy(&record, words, sizeof(T));
      out.push_back(record);
    }
    return out;
  }

  /// Discards every record. QUIESCENT CALLERS ONLY: a writer that claimed
  /// its ticket before the reset can republish a stale record into the
  /// cleared ring afterwards. Meant for test resets between phases.
  void Clear() {
    head_.store(0, std::memory_order_relaxed);
    for (Slot& s : slots_) s.seq.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kWords = sizeof(T) / 8;

  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kWords] = {};
  };

  /// Spins until the slot's previous-lap writer has finished, or until
  /// head_ at or below `ticket` shows that Clear() reset the ring.
  [[gnu::noinline, gnu::cold]] void WaitForPreviousLap(const Slot& s,
                                                       uint64_t previous_lap,
                                                       uint64_t ticket) const {
    while (s.seq.load(std::memory_order_acquire) != previous_lap &&
           head_.load(std::memory_order_relaxed) > ticket) {
      std::this_thread::yield();
    }
  }

  std::atomic<uint64_t> head_{0};  ///< total records ever published
  Slot slots_[N];
};

}  // namespace obs
}  // namespace abitmap

#endif  // ABITMAP_OBS_SEQLOCK_RING_H_
