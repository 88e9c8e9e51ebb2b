#include "roaring/roaring_index.h"

#include <algorithm>
#include <utility>

#include "obs/span.h"

namespace abitmap {
namespace roaring {

namespace {

RoaringBitmap CompressColumn(const util::BitVector& bits) {
  RoaringBitmap bitmap = RoaringBitmap::FromBitVector(bits);
  bitmap.Optimize();
  return bitmap;
}

}  // namespace

RoaringIndex RoaringIndex::Build(const bitmap::BitmapTable& table) {
  AB_SPAN("roaring/build");
  RoaringIndex index(table.mapping(), table.num_rows());
  index.columns_.reserve(table.num_columns());
  for (uint32_t j = 0; j < table.num_columns(); ++j) {
    index.columns_.push_back(CompressColumn(table.column(j)));
  }
  return index;
}

RoaringIndex RoaringIndex::Build(const bitmap::BitmapTable& table,
                                 util::ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1) return Build(table);
  AB_SPAN("roaring/build");
  RoaringIndex index(table.mapping(), table.num_rows());
  // Columns compress into pre-allocated slots: workers share nothing, so
  // the result is identical to the serial build.
  index.columns_.resize(table.num_columns());
  pool->ParallelFor(0, table.num_columns(),
                    [&index, &table](uint64_t begin, uint64_t end,
                                     int /*chunk*/) {
                      AB_SPAN("roaring/compress");
                      for (uint64_t j = begin; j < end; ++j) {
                        index.columns_[j] = CompressColumn(
                            table.column(static_cast<uint32_t>(j)));
                      }
                    });
  return index;
}

uint64_t RoaringIndex::SizeInBytes() const {
  uint64_t total = 0;
  for (const RoaringBitmap& c : columns_) total += c.SizeInBytes();
  return total;
}

std::vector<uint64_t> RoaringIndex::ContainerCensus() const {
  std::vector<uint64_t> census(3, 0);
  for (const RoaringBitmap& column : columns_) {
    for (size_t i = 0; i < column.num_containers(); ++i) {
      census[static_cast<size_t>(column.container(i).kind())]++;
    }
  }
  return census;
}

RoaringBitmap RoaringIndex::ExecuteBitwise(
    const bitmap::BitmapQuery& query) const {
  RoaringBitmap result;
  bool first = true;
  for (const bitmap::AttributeRange& range : query.ranges) {
    AB_CHECK_LE(range.lo_bin, range.hi_bin);
    AB_CHECK_LT(range.hi_bin, mapping_.cardinality(range.attr));
    std::vector<const RoaringBitmap*> bins;
    bins.reserve(range.hi_bin - range.lo_bin + 1);
    for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
      bins.push_back(&column(range.attr, b));
    }
    RoaringBitmap attr_result = RoaringBitmap::MultiOr(bins);
    if (first) {
      result = std::move(attr_result);
      first = false;
    } else {
      result = And(result, attr_result);
    }
  }
  if (first) {
    // No predicates: all rows qualify — one full-run container per chunk.
    for (uint64_t base = 0; base < num_rows_; base += Container::kCapacity) {
      uint32_t n = static_cast<uint32_t>(
          std::min<uint64_t>(Container::kCapacity, num_rows_ - base));
      result.AppendContainer(static_cast<uint32_t>(base >> 16),
                             Container::FullRange(n));
    }
  }
  return result;
}

util::BitVector RoaringIndex::ExecuteBitwiseBits(
    const bitmap::BitmapQuery& query) const {
  return ExecuteBitwise(query).ToBitVector(num_rows_);
}

std::vector<bool> RoaringIndex::Evaluate(
    const bitmap::BitmapQuery& query) const {
  if (!query.rows.empty()) {
    std::vector<std::vector<const RoaringBitmap*>> terms;
    for (const bitmap::AttributeRange& range : query.ranges) {
      AB_CHECK_LE(range.lo_bin, range.hi_bin);
      AB_CHECK_LT(range.hi_bin, mapping_.cardinality(range.attr));
      std::vector<const RoaringBitmap*>& bins = terms.emplace_back();
      for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
        bins.push_back(&column(range.attr, b));
      }
    }
    return EvaluateRows(terms, query.rows);
  }
  std::vector<bool> out(num_rows_, false);
  for (uint64_t row : ExecuteBitwise(query).ToRows()) out[row] = true;
  return out;
}

}  // namespace roaring
}  // namespace abitmap
