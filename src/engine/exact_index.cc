#include "engine/exact_index.h"

#include <utility>

#include "obs/span.h"

namespace abitmap {
namespace engine {

ExactIndex ExactIndex::Build(const bitmap::BitmapTable& table,
                             util::ThreadPool* pool,
                             const std::string& backend) {
  AB_CHECK(backend == "auto" || backend.empty() || backend == "roaring");
  AB_SPAN("exact/build");
  ExactIndex index(table.mapping(), table.num_rows());
  index.columns_.resize(table.num_columns());
  auto build_one = [&index, &table](uint32_t j) {
    roaring::RoaringBitmap& column = index.columns_[j];
    column = roaring::RoaringBitmap::FromBitVector(table.column(j));
    column.Optimize();
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    // Pre-allocated slots, nothing shared between workers: identical to
    // the serial loop in every byte.
    pool->ParallelFor(0, table.num_columns(),
                      [&build_one](uint64_t begin, uint64_t end,
                                   int /*chunk*/) {
                        AB_SPAN("exact/compress");
                        for (uint64_t j = begin; j < end; ++j) {
                          build_one(static_cast<uint32_t>(j));
                        }
                      });
  } else {
    for (uint32_t j = 0; j < table.num_columns(); ++j) build_one(j);
  }
  return index;
}

uint64_t ExactIndex::SizeInBytes() const {
  uint64_t total = 0;
  for (const roaring::RoaringBitmap& column : columns_) {
    total += column.SizeInBytes();
  }
  return total;
}

util::BitVector ExactIndex::DecompressColumn(uint32_t global_col) const {
  AB_DCHECK(global_col < columns_.size());
  return columns_[global_col].ToBitVector(num_rows_);
}

void ExactIndex::OrRangeInto(const bitmap::AttributeRange& range,
                             util::BitVector* out) const {
  for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
    columns_[mapping_.GlobalColumn(range.attr, b)].AppendTo(out);
  }
}

util::BitVector ExactIndex::ExecuteBitwiseBits(
    const bitmap::BitmapQuery& query) const {
  util::BitVector bits(num_rows_);
  if (query.ranges.empty()) {
    // No predicates: every row qualifies.
    bits.Flip();
    return bits;
  }
  // The first range ORs straight into the result; each later one into
  // `attr`, which then ANDs in as words.
  util::BitVector attr;
  for (size_t i = 0; i < query.ranges.size(); ++i) {
    const bitmap::AttributeRange& range = query.ranges[i];
    AB_CHECK_LE(range.lo_bin, range.hi_bin);
    AB_CHECK_LT(range.hi_bin, mapping_.cardinality(range.attr));
    util::BitVector* target = &bits;
    if (i > 0) {
      attr = util::BitVector(num_rows_);
      target = &attr;
    }
    OrRangeInto(range, target);
    if (i > 0) bits.AndWith(attr);
  }
  return bits;
}

std::vector<bool> ExactIndex::Evaluate(const bitmap::BitmapQuery& query) const {
  if (!query.rows.empty()) {
    std::vector<std::vector<const roaring::RoaringBitmap*>> terms;
    terms.reserve(query.ranges.size());
    for (const bitmap::AttributeRange& range : query.ranges) {
      AB_CHECK_LE(range.lo_bin, range.hi_bin);
      AB_CHECK_LT(range.hi_bin, mapping_.cardinality(range.attr));
      std::vector<const roaring::RoaringBitmap*>& bins = terms.emplace_back();
      bins.reserve(range.hi_bin - range.lo_bin + 1);
      for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
        bins.push_back(&columns_[mapping_.GlobalColumn(range.attr, b)]);
      }
    }
    return roaring::EvaluateRows(terms, query.rows);
  }
  util::BitVector bits = ExecuteBitwiseBits(query);
  std::vector<bool> out(num_rows_, false);
  for (size_t pos = bits.FindNextSet(0); pos < bits.size();
       pos = bits.FindNextSet(pos + 1)) {
    out[pos] = true;
  }
  return out;
}

}  // namespace engine
}  // namespace abitmap
