#ifndef ABITMAP_ROARING_ROARING_BITMAP_H_
#define ABITMAP_ROARING_ROARING_BITMAP_H_

#include <cstdint>
#include <vector>

#include "roaring/container.h"
#include "util/bitvector.h"

namespace abitmap {
namespace roaring {

/// A Roaring bitmap over 64-bit row ids that fit in 32 bits of chunk key:
/// the row space is partitioned into 2^16-row chunks, each non-empty chunk
/// keyed by `row >> 16` and stored as a Container in whichever of the
/// array/bitset/run forms is smallest. `keys_` and `containers_` are
/// parallel arrays sorted by key, so binary ops are linear merges over the
/// key lists with container-level kernels doing the per-chunk work.
class RoaringBitmap {
 public:
  /// FindNextSet's "no further bit" sentinel.
  static constexpr uint64_t kNoBit = ~uint64_t{0};

  RoaringBitmap() = default;

  /// Chunks a verbatim bitmap. The result is normalized but not
  /// run-optimized; call Optimize() for the compact form.
  static RoaringBitmap FromBitVector(const util::BitVector& bits);

  /// Appends a row id strictly greater than every id already present (the
  /// ascending column-build path).
  void AddOrdered(uint64_t row);

  /// Appends a pre-built container for `key`, which must exceed every key
  /// already present. Empty containers are skipped.
  void AppendContainer(uint32_t key, Container container);

  /// Run-optimizes every container (see Container::Optimize).
  void Optimize();

  uint64_t Count() const;
  bool Get(uint64_t row) const;

  /// The container of chunk `key` (rows [key << 16, (key + 1) << 16)), or
  /// nullptr when the chunk holds no set row. O(log containers).
  const Container* FindContainer(uint32_t key) const;

  /// Smallest set row >= from, or kNoBit.
  uint64_t FindNextSet(uint64_t from) const;

  /// Expands into a BitVector of `num_bits` bits (all set rows must fit).
  util::BitVector ToBitVector(uint64_t num_bits) const;

  /// ORs all set rows into `out` (which must be large enough).
  void AppendTo(util::BitVector* out) const;

  /// Sorted list of all set rows.
  std::vector<uint64_t> ToRows() const;

  /// Heap bytes of keys + container payloads — the "Roaring size" the
  /// benchmarks report next to WAH/BBC sizes.
  size_t SizeInBytes() const;

  size_t num_containers() const { return containers_.size(); }
  uint32_t key(size_t i) const { return keys_[i]; }
  const Container& container(size_t i) const { return containers_[i]; }

  bool operator==(const RoaringBitmap& other) const;
  bool operator!=(const RoaringBitmap& other) const {
    return !(*this == other);
  }

  /// Binary ops: linear merge over the sorted key lists, container kernels
  /// per matching chunk. Empty result chunks are dropped.
  friend RoaringBitmap And(const RoaringBitmap& a, const RoaringBitmap& b);
  friend RoaringBitmap Or(const RoaringBitmap& a, const RoaringBitmap& b);
  friend RoaringBitmap Xor(const RoaringBitmap& a, const RoaringBitmap& b);
  friend RoaringBitmap AndNot(const RoaringBitmap& a, const RoaringBitmap& b);

  /// Count(a AND b) without materializing the intersection — per-chunk
  /// AndCardinality over the matching keys.
  friend uint64_t AndCount(const RoaringBitmap& a, const RoaringBitmap& b);

  /// K-way union: one pass over all inputs' key lists; chunks present in
  /// several inputs are accumulated through an 8 KiB word buffer (each
  /// container ORed in with Container::OrInto) instead of N-1 pairwise
  /// merges. The range-query primitive (OR of the bins in a range).
  static RoaringBitmap MultiOr(const std::vector<const RoaringBitmap*>& inputs);

 private:
  std::vector<uint32_t> keys_;
  std::vector<Container> containers_;
};

/// Direct-access evaluation of an AND of ORs over a row subset: out[i] is
/// true iff, for every term, rows[i] is set in at least one bitmap of that
/// term (no terms: every row qualifies). Rows may come in any order and
/// repeat; out follows their order. Only the containers of chunks that
/// hold a requested row are read: rows are grouped by chunk key, each
/// bitmap's container for a chunk is located once, and the chunk is
/// answered either from the term's OR over the chunk's [min, max]
/// requested-row window (Container::OrRangeInto into a word buffer,
/// ANDed across terms) or, when the requested rows are sparse in that
/// window, by Container::Get per row. The cost follows the subset, not
/// the relation — the direct access the paper's WAH/BBC premise lacks.
std::vector<bool> EvaluateRows(
    const std::vector<std::vector<const RoaringBitmap*>>& terms,
    const std::vector<uint64_t>& rows);

RoaringBitmap And(const RoaringBitmap& a, const RoaringBitmap& b);
RoaringBitmap Or(const RoaringBitmap& a, const RoaringBitmap& b);
RoaringBitmap Xor(const RoaringBitmap& a, const RoaringBitmap& b);
RoaringBitmap AndNot(const RoaringBitmap& a, const RoaringBitmap& b);
uint64_t AndCount(const RoaringBitmap& a, const RoaringBitmap& b);

}  // namespace roaring
}  // namespace abitmap

#endif  // ABITMAP_ROARING_ROARING_BITMAP_H_
