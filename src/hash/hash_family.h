#ifndef ABITMAP_HASH_HASH_FAMILY_H_
#define ABITMAP_HASH_HASH_FAMILY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hash/general_hashes.h"

namespace abitmap {
namespace hash {

/// Identifies the bitmap-matrix cell being hashed. Families that operate on
/// the mapped hash string x = F(row, col) ignore it; the paper's Column
/// Group hash (Section 5.2.2) addresses the AB from (row, col) directly.
struct CellRef {
  uint64_t row = 0;
  uint32_t col = 0;
};

/// A family of k hash functions H_1..H_k mapping a cell to k probe
/// positions inside an Approximate Bitmap of n bits.
///
/// The two approaches from Section 3.2.2 are both implemented:
///  * independent hash functions (one algorithm per H_t), and
///  * a single wide hash (SHA-1) whose output is split into k digests.
class HashFamily {
 public:
  virtual ~HashFamily() = default;

  /// Fills out[0..k) with probe positions in [0, n).
  /// `key` is the hash string x = F(row, col); `cell` carries the raw
  /// coordinates for families that need them.
  virtual void Probes(uint64_t key, const CellRef& cell, size_t k, uint64_t n,
                      uint64_t* out) const = 0;

  /// The t-th probe position alone. Must equal Probes(...)[t]. Membership
  /// tests call this lazily and stop at the first zero bit — on a
  /// negative cell that costs ~1/(1-fill_ratio) hash evaluations instead
  /// of k, which is what keeps the AB's per-cell retrieval cheap. The
  /// default recomputes a prefix; families with independent per-index
  /// functions override it with an O(1) computation.
  virtual uint64_t ProbeAt(uint64_t key, const CellRef& cell, size_t t,
                           uint64_t n) const;

  /// Whether per-index probing is cheaper than computing all k probes up
  /// front. False for the single-wide-hash (SHA-1) approach, whose cost is
  /// one digest regardless of k.
  virtual bool PrefersLazyProbes() const { return true; }

  /// How many probe positions one unit of hashing work yields at filter
  /// size n — e.g. the number of m-bit slices a single SHA-1 digest
  /// provides. Eager membership tests (PrefersLazyProbes() == false) pull
  /// probes one chunk at a time so a cell rejected early never pays for
  /// hashing it did not consume. Lazy families return 1 by convention
  /// (they are probed via ProbeAt instead).
  virtual size_t ProbesPerChunk(size_t k, uint64_t n) const {
    (void)n;
    return k;
  }

  /// Fills out[0..(end-begin)) with probe positions begin..end-1 — the
  /// corresponding slice of Probes(key, cell, end, n, ...). The default
  /// recomputes the prefix; families whose probe blocks are independent
  /// (SHA-1's counter-keyed digests) override it to compute only the
  /// blocks covering the slice.
  virtual void ProbesRange(uint64_t key, const CellRef& cell, size_t begin,
                           size_t end, uint64_t n, uint64_t* out) const;

  /// Batch variant of Probes: fills out[i*k + t] with probe t of key i for
  /// all i in [0, count). Semantically identical to count scalar Probes
  /// calls; the point is the cost model — the hot batched query kernel pays
  /// one virtual dispatch per *window* of keys instead of one per probe,
  /// and specialized families amortize per-key setup (decimal rendering,
  /// the two double-hash mixes, one wide digest) across the window. The
  /// default simply loops over Probes.
  virtual void ProbesBatch(const uint64_t* keys, const CellRef* cells,
                           size_t count, size_t k, uint64_t n,
                           uint64_t* out) const;

  /// Batch variant of ProbesRange: fills out[i*(end-begin) + (t-begin)]
  /// with probe t of key i, for t in [begin, end). This is the primitive
  /// behind the round-lazy batched membership test: the kernel pulls only
  /// the next few probe rounds for the cells that are still alive, so a
  /// window full of negatives pays roughly the scalar lazy hashing cost
  /// while keeping the one-dispatch-per-window batching. The default loops
  /// over ProbesRange; families override to hoist per-key setup out of the
  /// probe loop.
  virtual void ProbesBatchRange(const uint64_t* keys, const CellRef* cells,
                                size_t count, size_t begin, size_t end,
                                uint64_t n, uint64_t* out) const;

  /// Short name used in experiment output ("independent", "sha1", ...).
  virtual std::string name() const = 0;
};

/// k independent functions drawn from the General Purpose Hash Function
/// library in a fixed order (RS, JS, PJW, ELF, BKDR, SDBM, DJB, DEK, AP,
/// FNV); beyond ten functions the pool is reused with a per-index salt.
/// This is the configuration behind the paper's headline results
/// ("averages over 100 queries ... using independent hash functions").
std::unique_ptr<HashFamily> MakeIndependentFamily();

/// Like MakeIndependentFamily but restricted to a caller-chosen pool,
/// used by the hash-impact study (Figure 10).
std::unique_ptr<HashFamily> MakeIndependentFamily(std::vector<HashKind> pool);

/// One SHA-1 digest per key, split into k pieces of ceil(log2(n)) bits
/// (Table 1). n must be a power of two. If k pieces do not fit in 160 bits
/// the digest is extended by hashing (key, block-counter) again.
std::unique_ptr<HashFamily> MakeSha1Family();

/// Kirsch–Mitzenmacher double hashing: H_t = h1 + t*h2 mod n with two
/// strong 64-bit mixes. Not in the paper; provided as the "combined with
/// other structures / further improved" extension point (contribution 5) —
/// it reaches the same false-positive rate with two hash evaluations total.
std::unique_ptr<HashFamily> MakeDoubleHashFamily();

/// The paper's Circular Hash: H(x) = x mod n. For t > 0 the t-th variant is
/// H_t(x) = (x * (2t + 1) + t) mod n — the kind of "small variation" the
/// paper applies to reuse a function at several indices. Deliberately weak;
/// used by the Figure 10 hash-impact study.
std::unique_ptr<HashFamily> MakeCircularFamily();

/// The paper's Column Group hash: the AB is split into `num_groups` groups
/// (one per bitmap column covered by the AB); H(i, j) = j*g + (i mod g)
/// where g = n / num_groups. Only meaningful for the per-data-set and
/// per-attribute levels. Variants t > 0 replace (i mod g) with a mixed
/// offset so k > 1 remains usable.
std::unique_ptr<HashFamily> MakeColumnGroupFamily(uint32_t num_groups);

/// A single-function family wrapping one algorithm from the general
/// library (k is capped at 1 by construction of the study that uses it).
std::unique_ptr<HashFamily> MakeSingleKindFamily(HashKind kind);

}  // namespace hash
}  // namespace abitmap

#endif  // ABITMAP_HASH_HASH_FAMILY_H_
