#include "engine/sliced_index.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/span.h"

namespace abitmap {
namespace engine {

SlicedIndex SlicedIndex::Build(const Table& table, const BinningSpec& spec,
                               util::ThreadPool* pool) {
  AB_SPAN("sliced/build");
  const uint64_t rows = table.num_rows();
  std::vector<std::optional<Attribute>> slots(table.num_columns());
  auto build_one = [&](uint32_t attr) {
    const std::vector<double>& column = table.column(attr);
    bitmap::NestedBinner binner =
        spec.kind == BinningSpec::Kind::kEquiDepth
            ? bitmap::NestedBinner::EquiDepth(column, spec.bins)
            : bitmap::NestedBinner::EquiWidth(column, spec.bins);
    uint32_t num_slices = 0;
    while ((uint64_t{1} << num_slices) < binner.fine_cardinality()) {
      ++num_slices;
    }
    AB_CHECK_LE(num_slices, kMaxSlices);
    std::vector<util::BitVector> slices(num_slices, util::BitVector(rows));
    std::vector<uint64_t*> out(num_slices);
    for (uint32_t j = 0; j < num_slices; ++j) {
      out[j] = slices[j].mutable_words();
    }
    // One word of codes at a time, transposed into the slices.
    uint32_t codes[64];
    for (uint64_t first = 0; first < rows; first += 64) {
      const uint64_t n = std::min<uint64_t>(64, rows - first);
      binner.FineOf(column.data() + first, n, codes);
      for (uint32_t j = 0; j < num_slices; ++j) {
        uint64_t word = 0;
        for (uint64_t i = 0; i < n; ++i) {
          word |= uint64_t{(codes[i] >> j) & 1u} << i;
        }
        out[j][first / 64] = word;
      }
    }
    slots[attr].emplace(Attribute{std::move(binner), std::move(slices)});
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    // Pre-allocated slots, nothing shared between workers: identical to
    // the serial loop in every bit.
    pool->ParallelFor(0, slots.size(),
                      [&build_one](uint64_t begin, uint64_t end,
                                   int /*chunk*/) {
                        AB_SPAN("sliced/attribute");
                        for (uint64_t a = begin; a < end; ++a) {
                          build_one(static_cast<uint32_t>(a));
                        }
                      });
  } else {
    for (uint32_t a = 0; a < slots.size(); ++a) build_one(a);
  }
  SlicedIndex index;
  index.attributes_.reserve(slots.size());
  for (std::optional<Attribute>& slot : slots) {
    index.attributes_.push_back(std::move(*slot));
  }
  return index;
}

uint64_t SlicedIndex::SizeInBytes() const {
  uint64_t total = 0;
  for (const Attribute& a : attributes_) {
    for (const util::BitVector& s : a.slices) total += s.SizeInBytes();
  }
  return total;
}

SlicedIndex::RangeScan SlicedIndex::Scan(uint32_t attr, uint32_t lo,
                                         uint32_t hi, End lo_end,
                                         End hi_end) const {
  AB_CHECK_LT(attr, attributes_.size());
  const Attribute& a = attributes_[attr];
  AB_CHECK_LE(lo, hi);
  AB_CHECK_LT(hi, a.binner.fine_cardinality());
  RangeScan scan;
  scan.num_slices_ = static_cast<int>(a.slices.size());
  for (size_t j = 0; j < a.slices.size(); ++j) {
    scan.slices_[j] = a.slices[j].words().data();
  }
  scan.lo_ = lo;
  scan.hi_ = hi;
  auto mask = [](bool set) { return set ? ~uint64_t{0} : 0; };
  scan.lo_edge_ = mask(lo_end == End::kEdge);
  scan.hi_edge_ = mask(hi_end == End::kEdge);
  scan.lo_drop_ = mask(lo_end == End::kOut);
  scan.hi_drop_ = mask(hi_end == End::kOut);
  return scan;
}

}  // namespace engine
}  // namespace abitmap
