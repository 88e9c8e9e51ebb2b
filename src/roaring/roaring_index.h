#ifndef ABITMAP_ROARING_ROARING_INDEX_H_
#define ABITMAP_ROARING_ROARING_INDEX_H_

#include <cstdint>
#include <vector>

#include "bitmap/bitmap_table.h"
#include "bitmap/query.h"
#include "roaring/roaring_bitmap.h"
#include "util/thread_pool.h"

namespace abitmap {
namespace roaring {

/// A Roaring-compressed bitmap index: every column of a BitmapTable held
/// as a run-optimized RoaringBitmap. The third exact backend next to
/// WAH/BBC, with the same query surface as WahIndex so HybridEngine can
/// route candidate verification through whichever exact index the
/// per-column selector picked.
class RoaringIndex {
 public:
  /// Compresses every column of the table (chunk + normalize +
  /// run-optimize).
  static RoaringIndex Build(const bitmap::BitmapTable& table);

  /// Parallel build: columns compress independently into pre-allocated
  /// slots across the pool's workers — identical to the serial Build in
  /// every container. A null or single-threaded pool falls back to the
  /// serial loop.
  static RoaringIndex Build(const bitmap::BitmapTable& table,
                            util::ThreadPool* pool);

  uint64_t num_rows() const { return num_rows_; }
  uint32_t num_columns() const {
    return static_cast<uint32_t>(columns_.size());
  }
  const bitmap::ColumnMapping& mapping() const { return mapping_; }

  const RoaringBitmap& column(uint32_t global_col) const {
    AB_DCHECK(global_col < columns_.size());
    return columns_[global_col];
  }
  const RoaringBitmap& column(uint32_t attr, uint32_t bin) const {
    return columns_[mapping_.GlobalColumn(attr, bin)];
  }

  /// Total compressed size in bytes (sum over columns).
  uint64_t SizeInBytes() const;

  /// Container-kind census across all columns (array/bitset/run counts),
  /// indexed by ContainerKind — the /stats.json introspection hook.
  std::vector<uint64_t> ContainerCensus() const;

  /// Bit-wise phase of a bitmap query: MultiOr of the bin bitmaps within
  /// each attribute range, galloping AND across attributes — all on the
  /// container-compressed form.
  RoaringBitmap ExecuteBitwise(const bitmap::BitmapQuery& query) const;

  /// ExecuteBitwise expanded to one bit per row; the engine's candidate
  /// walk iterates the result (or uses RoaringBitmap::FindNextSet on the
  /// compressed form directly).
  util::BitVector ExecuteBitwiseBits(const bitmap::BitmapQuery& query) const;

  /// Full answer for a row-subset query, one bit per requested row in
  /// request order (rows may be unsorted and repeat). A subset is answered
  /// by direct access (EvaluateRows: only the containers of the chunks it
  /// touches); empty rows means all rows, from the bit-wise phase.
  std::vector<bool> Evaluate(const bitmap::BitmapQuery& query) const;

 private:
  RoaringIndex(bitmap::ColumnMapping mapping, uint64_t num_rows)
      : mapping_(std::move(mapping)), num_rows_(num_rows) {}

  bitmap::ColumnMapping mapping_;
  uint64_t num_rows_;
  std::vector<RoaringBitmap> columns_;
};

}  // namespace roaring
}  // namespace abitmap

#endif  // ABITMAP_ROARING_ROARING_INDEX_H_
