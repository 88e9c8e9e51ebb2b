#ifndef ABITMAP_ENGINE_SLICED_INDEX_H_
#define ABITMAP_ENGINE_SLICED_INDEX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitmap/binning.h"
#include "engine/table.h"
#include "util/bitvector.h"
#include "util/thread_pool.h"

namespace abitmap {
namespace engine {

/// The engine's index: every row's fine code on each attribute,
/// bin * kSubBins + sub-bin under a bitmap::NestedBinner, stored
/// bit-sliced. Slice j of an attribute is a verbatim bit vector holding
/// bit j of every row's code, so an attribute costs
/// ceil(log2(bins * kSubBins)) bits per row: 8 at 16 bins. A value range
/// is a range of codes, compared against the slices most significant bit
/// first (O'Neil and Quass's range comparison over a bit-sliced index).
/// The compare's state just after the bin bits is the bin-level mask,
/// and its final state holds the two end codes, so one pass yields the
/// approximate answer, the narrower fine answer and the edge sub-bins
/// whose rows a raw-value check must still confirm. An end code whose
/// rows all fail is cleared from the fine answer in the same pass.
class SlicedIndex {
 public:
  static constexpr uint32_t kSubBits = bitmap::NestedBinner::kSubBits;
  /// Largest slice count: fine codes fit in 32 bits.
  static constexpr uint32_t kMaxSlices = 32;

  /// Bins and slices each column. With a pool of more than one thread,
  /// attributes build in parallel into pre-allocated slots, identical to
  /// the serial build in every bit.
  static SlicedIndex Build(const Table& table, const BinningSpec& spec,
                           util::ThreadPool* pool);

  uint32_t num_attributes() const {
    return static_cast<uint32_t>(attributes_.size());
  }
  const bitmap::NestedBinner& binner(uint32_t attr) const {
    return attributes_[attr].binner;
  }
  uint32_t num_slices(uint32_t attr) const {
    return static_cast<uint32_t>(attributes_[attr].slices.size());
  }
  /// Bit `bit` of every row's fine code on `attr`; the padding bits of the
  /// last word read as code 0.
  const util::BitVector& slice(uint32_t attr, uint32_t bit) const {
    return attributes_[attr].slices[bit];
  }

  /// Total slice size in bytes.
  uint64_t SizeInBytes() const;

  /// One attribute's code range [lo, hi], prepared for word compares.
  class RangeScan {
   public:
    /// Compares n words, word i being slice word word_id(i), most
    /// significant bit first, a run of kStepWords words at a time so that
    /// the compare state stays in L1. ANDs each word's bin-level mask (the
    /// state after the bin bits) into coarse[i]. With `fine`, also ANDs
    /// the final in-range mask, less the rows of an End::kOut end code,
    /// into fine[i] and, with `edge`, stores the rows of an End::kEdge end
    /// code into edge[i].
    template <typename WordId>
    void Compare(size_t n, const WordId& word_id, uint64_t* coarse,
                 uint64_t* fine, uint64_t* edge) const {
      uint64_t gt[kStepWords], eq_lo[kStepWords], lt[kStepWords],
          eq_hi[kStepWords];
      for (size_t first = 0; first < n; first += kStepWords) {
        const size_t m = n - first < kStepWords ? n - first : kStepWords;
        for (size_t i = 0; i < m; ++i) {
          gt[i] = 0;
          eq_lo[i] = ~uint64_t{0};
          lt[i] = 0;
          eq_hi[i] = ~uint64_t{0};
        }
        auto step = [&](int j) {
          const uint64_t* x = slices_[j];
          const int kind = static_cast<int>((lo_ >> j) & 1u) * 2 +
                           static_cast<int>((hi_ >> j) & 1u);
          // The bounds' bits select the update, so each loop is branch
          // free: a 0 bit in lo makes a 1 in x exceed lo's prefix, a 1
          // bit in hi makes a 0 in x fall below hi's prefix.
          switch (kind) {
            case 0:  // lo 0, hi 0
              for (size_t i = 0; i < m; ++i) {
                const uint64_t v = x[word_id(first + i)];
                gt[i] |= eq_lo[i] & v;
                eq_lo[i] &= ~v;
                eq_hi[i] &= ~v;
              }
              break;
            case 1:  // lo 0, hi 1
              for (size_t i = 0; i < m; ++i) {
                const uint64_t v = x[word_id(first + i)];
                gt[i] |= eq_lo[i] & v;
                eq_lo[i] &= ~v;
                lt[i] |= eq_hi[i] & ~v;
                eq_hi[i] &= v;
              }
              break;
            case 2:  // lo 1, hi 0
              for (size_t i = 0; i < m; ++i) {
                const uint64_t v = x[word_id(first + i)];
                eq_lo[i] &= v;
                eq_hi[i] &= ~v;
              }
              break;
            default:  // lo 1, hi 1
              for (size_t i = 0; i < m; ++i) {
                const uint64_t v = x[word_id(first + i)];
                eq_lo[i] &= v;
                lt[i] |= eq_hi[i] & ~v;
                eq_hi[i] &= v;
              }
              break;
          }
        };
        int j = num_slices_ - 1;
        for (; j >= static_cast<int>(kSubBits); --j) step(j);
        for (size_t i = 0; i < m; ++i) {
          coarse[first + i] &= (gt[i] | eq_lo[i]) & (lt[i] | eq_hi[i]);
        }
        if (fine == nullptr) continue;
        for (; j >= 0; --j) step(j);
        for (size_t i = 0; i < m; ++i) {
          fine[first + i] &= (gt[i] | eq_lo[i]) & (lt[i] | eq_hi[i]) &
                             ~((eq_lo[i] & lo_drop_) | (eq_hi[i] & hi_drop_));
        }
        if (edge == nullptr) continue;
        for (size_t i = 0; i < m; ++i) {
          edge[first + i] = (eq_lo[i] & lo_edge_) | (eq_hi[i] & hi_edge_);
        }
      }
    }

   private:
    friend class SlicedIndex;

    /// Words whose compare state is held at once: 4 x 2 KB.
    static constexpr size_t kStepWords = 256;

    int num_slices_ = 0;
    std::array<const uint64_t*, kMaxSlices> slices_{};
    uint32_t lo_ = 0;
    uint32_t hi_ = 0;
    uint64_t lo_edge_ = 0;
    uint64_t hi_edge_ = 0;
    uint64_t lo_drop_ = 0;
    uint64_t hi_drop_ = 0;
  };

  /// What the fine answer does with the rows of a range's end code.
  enum class End {
    kIn,    ///< keeps them: every one passes
    kOut,   ///< clears them: every one fails
    kEdge,  ///< keeps them and reports them as edges, for a raw-value check
  };

  /// Prepares the compare of `attr`'s codes against [lo, hi], treating
  /// the rows whose code is lo as `lo_end` says and those whose code is hi
  /// as `hi_end` says (lo == hi takes both).
  RangeScan Scan(uint32_t attr, uint32_t lo, uint32_t hi, End lo_end,
                 End hi_end) const;

 private:
  struct Attribute {
    bitmap::NestedBinner binner;
    std::vector<util::BitVector> slices;
  };

  std::vector<Attribute> attributes_;
};

}  // namespace engine
}  // namespace abitmap

#endif  // ABITMAP_ENGINE_SLICED_INDEX_H_
