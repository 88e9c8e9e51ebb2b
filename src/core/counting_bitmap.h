#ifndef ABITMAP_CORE_COUNTING_BITMAP_H_
#define ABITMAP_CORE_COUNTING_BITMAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ab_theory.h"
#include "hash/hash_family.h"
#include "util/logging.h"

namespace abitmap {
namespace ab {

/// Counting variant of the Approximate Bitmap: 4-bit saturating counters
/// instead of single bits, supporting deletion.
///
/// The paper assumes read-only scientific data ("since most of the large
/// scientific data sets are read-only, we know the parameter s"); this is
/// the natural extension for updatable relations — deleting a row removes
/// its (row, column) cells from the filter, something the plain AB cannot
/// do without a rebuild. Costs 4x the space of a plain AB with the same
/// number of cells (the classic counting-Bloom trade-off).
///
/// Counters saturate at 15 and, once saturated, are never decremented
/// (standard counting-filter safety rule: decrementing a saturated counter
/// could create false negatives). With the optimal k the probability of a
/// counter ever reaching 16 is ~1e-15 per counter, so saturation is a
/// theoretical corner, not a practical loss.
class CountingApproximateBitmap {
 public:
  /// `params.n_bits` is interpreted as the number of counters, so the
  /// false-positive analysis carries over unchanged; the structure
  /// occupies params.n_bits * 4 bits of memory.
  CountingApproximateBitmap(const AbParams& params,
                            std::shared_ptr<const hash::HashFamily> family);

  CountingApproximateBitmap(CountingApproximateBitmap&&) = default;
  CountingApproximateBitmap& operator=(CountingApproximateBitmap&&) = default;
  CountingApproximateBitmap(const CountingApproximateBitmap&) = delete;
  CountingApproximateBitmap& operator=(const CountingApproximateBitmap&) =
      delete;

  /// Inserts the cell with hash string `key`.
  void Insert(uint64_t key, const hash::CellRef& cell);

  /// Removes a previously inserted cell. Removing a cell that was never
  /// inserted is undefined behaviour for counting filters in general; here
  /// it is detected when a counter would underflow, and aborts.
  void Remove(uint64_t key, const hash::CellRef& cell);

  /// Membership test, same semantics as ApproximateBitmap::Test.
  bool Test(uint64_t key, const hash::CellRef& cell) const;

  /// Concurrent-reader variants for the mutable index (core/mutable_index).
  ///
  /// Contract: there is at most ONE mutating thread at a time (the caller
  /// serializes writers externally); any number of threads may call
  /// TestAtomic/LiveRelaxed concurrently with it. All counter-byte and
  /// live-count accesses go through std::atomic_ref, so the data race is
  /// defined behaviour (and TSan-clean). The writer's counter-byte stores
  /// are release and TestAtomic's loads acquire, so a reader that observes
  /// one store also observes every write made before it — the edge the
  /// caller's seqlock validates against. Live counts are relaxed. The
  /// plain Insert/Remove/Test remain the single-threaded build/replay
  /// path.
  void InsertAtomic(uint64_t key, const hash::CellRef& cell);
  void RemoveAtomic(uint64_t key, const hash::CellRef& cell);
  bool TestAtomic(uint64_t key, const hash::CellRef& cell) const;
  /// live() readable concurrently with a writer.
  uint64_t LiveRelaxed() const;

  /// Expected false positive rate at the current live count, from the
  /// paper's exact model (1 - (1 - 1/s)^(k·n))^k with n = live(). This is
  /// what the mutable index's α-drift budget is checked against.
  double ExpectedFalsePositiveRate() const;

  /// An empty filter with this filter's exact shape (counters, k, shared
  /// hash family) — the worker-private shard of the parallel build.
  CountingApproximateBitmap EmptyClone() const;

  /// Adds `other`'s counters into this filter, saturating at 15. This is
  /// the counting analogue of ORing two bit filters and is *exact* with
  /// respect to serial insertion despite the clamp: for shard counts
  /// a, b the identity min(15, min(15,a) + min(15,b)) == min(15, a+b)
  /// holds (if either side clamps, both sides are 15), so shard-and-merge
  /// produces byte-identical counters to inserting every cell serially.
  /// Both filters must share shape and hash family.
  void MergeSaturating(const CountingApproximateBitmap& other);

  uint64_t num_counters() const { return num_counters_; }
  int k() const { return k_; }
  /// Live insertions (inserts minus removes).
  uint64_t live() const { return live_; }
  /// Memory footprint in bytes (4 bits per counter).
  uint64_t SizeInBytes() const { return num_counters_ / 2; }
  /// Fraction of nonzero counters (drives the false positive rate).
  double FillRatio() const;

  /// Raw packed counter bytes (two 4-bit counters per byte). Exposed so
  /// the parallel-build determinism tests can compare filters exactly.
  const std::vector<uint8_t>& raw_counters() const { return counters_; }

 private:
  uint8_t Counter(uint64_t idx) const {
    uint8_t byte = counters_[idx >> 1];
    return (idx & 1) ? (byte >> 4) : (byte & 0x0F);
  }
  void SetCounter(uint64_t idx, uint8_t value) {
    AB_DCHECK(value <= 15);
    uint8_t& byte = counters_[idx >> 1];
    if (idx & 1) {
      byte = static_cast<uint8_t>((byte & 0x0F) | (value << 4));
    } else {
      byte = static_cast<uint8_t>((byte & 0xF0) | value);
    }
  }

  uint64_t num_counters_;
  int k_;
  std::shared_ptr<const hash::HashFamily> family_;
  std::vector<uint8_t> counters_;
  uint64_t live_ = 0;
};

}  // namespace ab
}  // namespace abitmap

#endif  // ABITMAP_CORE_COUNTING_BITMAP_H_
