#include "bitmap/binning.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace abitmap {
namespace bitmap {

Binner::Binner(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)) {
  AB_CHECK(std::is_sorted(boundaries_.begin(), boundaries_.end()));
}

Binner Binner::EquiWidth(const std::vector<double>& values, uint32_t bins) {
  AB_CHECK(!values.empty());
  auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  return EquiWidthRange(*min_it, *max_it, bins);
}

Binner Binner::EquiWidthRange(double lo, double hi, uint32_t bins) {
  AB_CHECK_GE(bins, 1u);
  std::vector<double> boundaries;
  boundaries.reserve(bins - 1);
  if (hi > lo) {
    double width = (hi - lo) / bins;
    for (uint32_t b = 1; b < bins; ++b) boundaries.push_back(lo + width * b);
  } else {
    // Degenerate constant column: everything lands in bin 0; still emit
    // distinct boundaries above the value so cardinality is honoured.
    for (uint32_t b = 1; b < bins; ++b) boundaries.push_back(lo + b);
  }
  return Binner(std::move(boundaries));
}

Binner Binner::EquiDepth(const std::vector<double>& values, uint32_t bins) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  return EquiDepthSorted(sorted, bins);
}

Binner Binner::EquiDepthSorted(const std::vector<double>& sorted,
                               uint32_t bins) {
  AB_CHECK_GE(bins, 1u);
  AB_CHECK(!sorted.empty());
  std::vector<double> boundaries;
  boundaries.reserve(bins - 1);
  for (uint32_t b = 1; b < bins; ++b) {
    size_t idx = (static_cast<size_t>(b) * sorted.size()) / bins;
    double boundary = sorted[idx];
    // Boundaries must be strictly increasing; duplicates collapse bins for
    // heavily repeated values, which BinOf tolerates (empty bins).
    if (!boundaries.empty() && boundary <= boundaries.back()) {
      boundary = boundaries.back();
    }
    boundaries.push_back(boundary);
  }
  return Binner(std::move(boundaries));
}

uint32_t Binner::BinOf(double value) const {
  // First boundary strictly greater than value gives the bin index; values
  // equal to a boundary fall in the bin above it (half-open bins).
  auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), value);
  return static_cast<uint32_t>(it - boundaries_.begin());
}

std::vector<uint32_t> Binner::Apply(const std::vector<double>& values) const {
  std::vector<uint32_t> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(BinOf(v));
  return out;
}

NestedBinner NestedBinner::EquiDepth(const std::vector<double>& values,
                                     uint32_t bins) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  Binner coarse = Binner::EquiDepthSorted(sorted, bins);
  return NestedBinner(std::move(coarse), sorted);
}

NestedBinner NestedBinner::EquiWidth(const std::vector<double>& values,
                                     uint32_t bins) {
  AB_CHECK(!values.empty());
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  Binner coarse = Binner::EquiWidthRange(sorted.front(), sorted.back(), bins);
  return NestedBinner(std::move(coarse), sorted);
}

NestedBinner::NestedBinner(Binner coarse, const std::vector<double>& sorted)
    : coarse_(std::move(coarse)) {
  const std::vector<double>& b = coarse_.boundaries();
  const uint32_t bins = coarse_.cardinality();
  AB_CHECK_LE(bins, UINT32_MAX / kSubBins);  // fine codes fit in 32 bits
  fine_.reserve(fine_cardinality() - 1);
  // Bin i holds [b[i-1], b[i]), so its values are sorted[begin, end) with
  // both ends found by lower_bound; a sub-boundary drawn from them lies in
  // [b[i-1], b[i]), which keeps fine_ non-decreasing and every sub-bin
  // inside its bin.
  size_t begin = 0;
  for (uint32_t bin = 0; bin < bins; ++bin) {
    size_t end =
        bin + 1 < bins
            ? static_cast<size_t>(
                  std::lower_bound(sorted.begin(), sorted.end(), b[bin]) -
                  sorted.begin())
            : sorted.size();
    // An empty bin's sub-bins collapse onto its lower boundary; bin 0 has
    // none, so its collapse onto its upper one.
    double floor = bin > 0 ? b[bin - 1] : (b.empty() ? 0.0 : b[0]);
    for (uint32_t s = 1; s < kSubBins; ++s) {
      fine_.push_back(end > begin ? sorted[begin + s * (end - begin) / kSubBins]
                                  : floor);
    }
    if (bin + 1 < bins) fine_.push_back(b[bin]);
    begin = end;
  }
  AB_CHECK(std::is_sorted(fine_.begin(), fine_.end()));
  // Code c holds [fine_[c-1], fine_[c]) (FineOf's upper_bound), which in
  // the sorted column is the run from lower_bound(fine_[c-1]) to
  // lower_bound(fine_[c]); its first and last values are the code's range.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  observed_min_.assign(fine_cardinality(), kInf);
  observed_max_.assign(fine_cardinality(), -kInf);
  auto first = sorted.begin();
  for (uint32_t c = 0; c < fine_cardinality(); ++c) {
    auto last = c < fine_.size()
                    ? std::lower_bound(first, sorted.end(), fine_[c])
                    : sorted.end();
    if (last != first) {
      observed_min_[c] = *first;
      observed_max_[c] = *(last - 1);
    }
    first = last;
  }
}

uint32_t NestedBinner::FineOf(double value) const {
  uint32_t code;
  FineOf(&value, 1, &code);
  return code;
}

void NestedBinner::FineOf(const double* values, size_t n,
                          uint32_t* codes) const {
  // Branch-free upper_bound, run in lockstep over the batch so the
  // searches' dependent loads overlap. codes[i] is the start of value i's
  // window of `len` candidate positions; a window halves by skipping its
  // first half when that half's last boundary is not greater than the
  // value (every boundary is skipped for a NaN, as in Binner::BinOf), so
  // the code nests inside BinOf's bin.
  const double* f = fine_.data();
  for (size_t i = 0; i < n; ++i) codes[i] = 0;
  size_t len = fine_.size();
  for (; len > 1; len -= len / 2) {
    const uint32_t half = static_cast<uint32_t>(len / 2);
    for (size_t i = 0; i < n; ++i) {
      codes[i] += !(values[i] < f[codes[i] + half - 1]) ? half : 0;
    }
  }
  for (size_t i = 0; i < n; ++i) codes[i] += !(values[i] < f[codes[i]]);
}

}  // namespace bitmap
}  // namespace abitmap
