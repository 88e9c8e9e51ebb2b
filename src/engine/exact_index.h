#ifndef ABITMAP_ENGINE_EXACT_INDEX_H_
#define ABITMAP_ENGINE_EXACT_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bitmap/bitmap_table.h"
#include "bitmap/query.h"
#include "roaring/roaring_bitmap.h"
#include "util/bitvector.h"
#include "util/thread_pool.h"

namespace abitmap {
namespace engine {

/// The engine's exact arm: every column of a BitmapTable held as a
/// run-optimized Roaring bitmap. Roaring keeps direct access, so a row
/// subset reads only the containers of the chunks it touches, while a
/// whole-relation plan ORs each attribute's bins as words and ANDs the
/// attributes as words.
class ExactIndex {
 public:
  /// Compresses every column (chunk, normalize, run-optimize). With a
  /// pool of more than one thread, columns compress in parallel into
  /// pre-allocated slots, identical to the serial build in every byte.
  /// `backend` exists only for source compatibility: "auto", "" and
  /// "roaring" all name this one index, and any other value fails an
  /// AB_CHECK.
  static ExactIndex Build(const bitmap::BitmapTable& table,
                          util::ThreadPool* pool,
                          const std::string& backend = "auto");

  uint64_t num_rows() const { return num_rows_; }
  uint32_t num_columns() const {
    return static_cast<uint32_t>(columns_.size());
  }
  const bitmap::ColumnMapping& mapping() const { return mapping_; }

  /// Total compressed size in bytes (sum over columns).
  uint64_t SizeInBytes() const;

  /// Bit-wise phase: OR of the bin bitmaps within each attribute range
  /// (containers copied as words), AND of the attributes as words. One
  /// bit per row.
  util::BitVector ExecuteBitwiseBits(const bitmap::BitmapQuery& query) const;

  /// Full answer for a row-subset query: one bit per requested row, in
  /// request order (rows may be unsorted and repeat); empty rows means all
  /// rows. A subset is answered from the containers of the chunks it
  /// touches (roaring::EvaluateRows).
  std::vector<bool> Evaluate(const bitmap::BitmapQuery& query) const;

  /// Expands column j back to its verbatim form (tests, parity checks).
  util::BitVector DecompressColumn(uint32_t global_col) const;

 private:
  ExactIndex(bitmap::ColumnMapping mapping, uint64_t num_rows)
      : mapping_(std::move(mapping)), num_rows_(num_rows) {}

  /// ORs the bins of one attribute range into `out` (num_rows_ bits).
  void OrRangeInto(const bitmap::AttributeRange& range,
                   util::BitVector* out) const;

  bitmap::ColumnMapping mapping_;
  uint64_t num_rows_;
  std::vector<roaring::RoaringBitmap> columns_;
};

}  // namespace engine
}  // namespace abitmap

#endif  // ABITMAP_ENGINE_EXACT_INDEX_H_
