#include "engine/exact_index.h"

#include <utility>

#include "obs/span.h"
#include "obs/stats.h"
#include "util/simd.h"

namespace abitmap {
namespace engine {

const char* BackendChoiceName(BackendChoice choice) {
  switch (choice) {
    case BackendChoice::kWah:
      return "wah";
    case BackendChoice::kBbc:
      return "bbc";
    case BackendChoice::kRoaring:
      return "roaring";
    case BackendChoice::kAb:
      return "ab";
  }
  return "?";
}

bool ParseBackendChoice(const std::string& name, BackendChoice* out) {
  for (size_t i = 0; i < kNumBackendChoices; ++i) {
    BackendChoice c = static_cast<BackendChoice>(i);
    if (name == BackendChoiceName(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

ColumnProfile ProfileColumn(const util::BitVector& column) {
  ColumnProfile p;
  p.rows = column.size();
  const std::vector<uint64_t>& words = column.words();
  p.set_bits = util::simd::PopcountWords(words.data(), words.size());
  // A run starts at every set bit whose predecessor is clear:
  // popcount(x & ~(x << 1)) with the carry threaded across words.
  uint64_t carry = 0;
  for (uint64_t x : words) {
    p.runs += util::simd::PopCount64(x & ~((x << 1) | carry));
    carry = x >> 63;
  }
  return p;
}

BackendChoice ChooseBackend(const ColumnProfile& profile) {
  double density = profile.density();
  double run_len = profile.avg_run_length();
  if (density < 0.01) return BackendChoice::kRoaring;
  if (run_len >= 31) return BackendChoice::kWah;
  if (density >= 0.25 && run_len < 8) return BackendChoice::kAb;
  if (density < 0.05 && run_len >= 8) return BackendChoice::kBbc;
  return BackendChoice::kRoaring;
}

ExactIndex ExactIndex::Build(const bitmap::BitmapTable& table,
                             util::ThreadPool* pool,
                             const std::string& backend_override) {
  AB_SPAN("exact/build");
  ExactIndex index(table.mapping(), table.num_rows());
  BackendChoice forced = BackendChoice::kRoaring;
  bool use_selector = backend_override == "auto" || backend_override.empty();
  if (!use_selector) {
    AB_CHECK(ParseBackendChoice(backend_override, &forced));
  }
  index.columns_.resize(table.num_columns());
  auto build_one = [&index, &table, use_selector, forced](uint32_t j) {
    const util::BitVector& bits = table.column(j);
    Column& col = index.columns_[j];
    col.profile = ProfileColumn(bits);
    col.choice = use_selector ? ChooseBackend(col.profile) : forced;
    switch (col.choice) {
      case BackendChoice::kWah:
        col.data = wah::WahVector::Compress(bits);
        break;
      case BackendChoice::kBbc:
        col.data = bbc::BbcVector::Compress(bits);
        break;
      case BackendChoice::kRoaring:
      case BackendChoice::kAb: {
        roaring::RoaringBitmap bitmap = roaring::RoaringBitmap::FromBitVector(bits);
        bitmap.Optimize();
        col.data = std::move(bitmap);
        break;
      }
    }
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
  for (const Column& col : index.columns_) {
    index.choice_counts_[static_cast<size_t>(col.choice)]++;
  }
  AB_STATS_ADD(obs::Counter::kEngineColsWah,
               index.choice_counts_[static_cast<size_t>(BackendChoice::kWah)]);
  AB_STATS_ADD(obs::Counter::kEngineColsBbc,
               index.choice_counts_[static_cast<size_t>(BackendChoice::kBbc)]);
  AB_STATS_ADD(
      obs::Counter::kEngineColsRoaring,
      index.choice_counts_[static_cast<size_t>(BackendChoice::kRoaring)]);
  AB_STATS_ADD(obs::Counter::kEngineColsAbPreferred,
               index.choice_counts_[static_cast<size_t>(BackendChoice::kAb)]);
  return index;
}

std::string ExactIndex::ChoiceSummary() const {
  std::string out;
  for (size_t i = 0; i < kNumBackendChoices; ++i) {
    if (!out.empty()) out += ' ';
    out += BackendChoiceName(static_cast<BackendChoice>(i));
    out += '=';
    out += std::to_string(choice_counts_[i]);
  }
  return out;
}

uint64_t ExactIndex::SizeInBytes() const {
  uint64_t total = 0;
  for (const Column& col : columns_) {
    if (const auto* w = std::get_if<wah::WahVector>(&col.data)) {
      total += w->SizeInBytes();
    } else if (const auto* b = std::get_if<bbc::BbcVector>(&col.data)) {
      total += b->SizeInBytes();
    } else {
      total += std::get<roaring::RoaringBitmap>(col.data).SizeInBytes();
    }
  }
  return total;
}

util::BitVector ExactIndex::DecompressColumn(uint32_t global_col) const {
  AB_DCHECK(global_col < columns_.size());
  const Column& col = columns_[global_col];
  if (const auto* w = std::get_if<wah::WahVector>(&col.data)) {
    return w->Decompress();
  }
  if (const auto* b = std::get_if<bbc::BbcVector>(&col.data)) {
    return b->Decompress();
  }
  return std::get<roaring::RoaringBitmap>(col.data).ToBitVector(num_rows_);
}

void ExactIndex::OrRangeInto(const bitmap::AttributeRange& range,
                             util::BitVector* out) const {
  // Roaring bins land in `out` as words one by one; WAH and BBC bins
  // merge natively among themselves first, then land decompressed.
  std::vector<const wah::WahVector*> wah_bins;
  std::vector<const bbc::BbcVector*> bbc_bins;
  for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
    const Column& col = columns_[mapping_.GlobalColumn(range.attr, b)];
    if (const auto* w = std::get_if<wah::WahVector>(&col.data)) {
      wah_bins.push_back(w);
    } else if (const auto* v = std::get_if<bbc::BbcVector>(&col.data)) {
      bbc_bins.push_back(v);
    } else {
      std::get<roaring::RoaringBitmap>(col.data).AppendTo(out);
    }
  }
  if (!wah_bins.empty()) out->OrWith(wah::MultiOr(wah_bins).Decompress());
  if (!bbc_bins.empty()) {
    bbc::BbcVector merged = *bbc_bins[0];
    for (size_t i = 1; i < bbc_bins.size(); ++i) {
      merged = Or(merged, *bbc_bins[i]);
    }
    out->OrWith(merged.Decompress());
  }
}

bool ExactIndex::PlanHasDirectAccess(const bitmap::BitmapQuery& query) const {
  // Every range is validated, also past the first non-Roaring bin.
  bool direct = true;
  for (const bitmap::AttributeRange& range : query.ranges) {
    AB_CHECK_LE(range.lo_bin, range.hi_bin);
    AB_CHECK_LT(range.hi_bin, mapping_.cardinality(range.attr));
    for (uint32_t b = range.lo_bin; b <= range.hi_bin && direct; ++b) {
      const Column& col = columns_[mapping_.GlobalColumn(range.attr, b)];
      direct = std::holds_alternative<roaring::RoaringBitmap>(col.data);
    }
  }
  return direct;
}

std::vector<std::vector<const roaring::RoaringBitmap*>>
ExactIndex::RoaringTerms(const bitmap::BitmapQuery& query) const {
  std::vector<std::vector<const roaring::RoaringBitmap*>> terms;
  terms.reserve(query.ranges.size());
  for (const bitmap::AttributeRange& range : query.ranges) {
    std::vector<const roaring::RoaringBitmap*>& bins = terms.emplace_back();
    bins.reserve(range.hi_bin - range.lo_bin + 1);
    for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
      bins.push_back(&std::get<roaring::RoaringBitmap>(
          columns_[mapping_.GlobalColumn(range.attr, b)].data));
    }
  }
  return terms;
}

util::BitVector ExactIndex::ExecuteBitwiseBits(
    const bitmap::BitmapQuery& query, const std::vector<EdgeBins>& edges,
    std::vector<util::BitVector>* edge_bits) const {
  util::BitVector bits(num_rows_);
  if (query.ranges.empty()) {
    // No predicates: every row qualifies.
    bits.Flip();
    return bits;
  }
  AB_CHECK(edges.empty() || edges.size() == query.ranges.size());
  if (edge_bits != nullptr) {
    edge_bits->assign(query.ranges.size(), util::BitVector());
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
    EdgeBins edge = edges.empty() ? EdgeBins{} : edges[i];
    bool lo_edge = edge.lo || (edge.hi && range.lo_bin == range.hi_bin);
    bool hi_edge = edge.hi && range.hi_bin > range.lo_bin;
    if (lo_edge) {
      OrRangeInto({range.attr, range.lo_bin, range.lo_bin}, target);
    }
    if (hi_edge) {
      OrRangeInto({range.attr, range.hi_bin, range.hi_bin}, target);
    }
    if (edge_bits != nullptr && (lo_edge || hi_edge)) {
      (*edge_bits)[i] = *target;
    }
    uint32_t first = range.lo_bin + (lo_edge ? 1 : 0);
    uint32_t last = range.hi_bin - (hi_edge ? 1 : 0);
    if (first <= last) OrRangeInto({range.attr, first, last}, target);
    if (i > 0) bits.AndWith(attr);
  }
  return bits;
}

std::vector<bool> ExactIndex::Evaluate(const bitmap::BitmapQuery& query) const {
  if (!query.rows.empty() && PlanHasDirectAccess(query)) {
    return roaring::EvaluateRows(RoaringTerms(query), query.rows);
  }
  util::BitVector bits = ExecuteBitwiseBits(query);
  if (query.rows.empty()) {
    std::vector<bool> out(num_rows_, false);
    for (size_t pos = bits.FindNextSet(0); pos < bits.size();
         pos = bits.FindNextSet(pos + 1)) {
      out[pos] = true;
    }
    return out;
  }
  std::vector<bool> out;
  out.reserve(query.rows.size());
  for (uint64_t row : query.rows) out.push_back(bits.Get(row));
  return out;
}

const char* ExactIndex::PlanBackendLabel(
    const bitmap::BitmapQuery& query) const {
  // BackendChoiceName returns one static string per choice, so pointer
  // identity is name identity.
  const char* label = nullptr;
  for (const bitmap::AttributeRange& range : query.ranges) {
    for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
      const Column& col = columns_[mapping_.GlobalColumn(range.attr, b)];
      const char* name = BackendChoiceName(col.choice);
      if (label == nullptr) {
        label = name;
      } else if (label != name) {
        return "mixed";
      }
    }
  }
  return label == nullptr ? "none" : label;
}

}  // namespace engine
}  // namespace abitmap
