#ifndef ABITMAP_BITMAP_BINNING_H_
#define ABITMAP_BITMAP_BINNING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace abitmap {
namespace bitmap {

/// Discretizes continuous attribute values into bins, the step that precedes
/// bitmap construction. The paper notes that equi-depth bins ("bins with the
/// same number of points") are preferred because they make the resulting
/// bitmaps uniform regardless of the attribute's distribution; equi-width is
/// provided for the skew experiments.
class Binner {
 public:
  /// Equal-interval bins over [min, max] of the data.
  static Binner EquiWidth(const std::vector<double>& values, uint32_t bins);

  /// Quantile bins: each bin receives (approximately) the same number of
  /// points. Bin boundaries fall on value quantiles.
  static Binner EquiDepth(const std::vector<double>& values, uint32_t bins);

  /// Number of bins.
  uint32_t cardinality() const {
    return static_cast<uint32_t>(boundaries_.size()) + 1;
  }

  /// Bin id of a value: number of boundaries strictly below... precisely,
  /// the index i such that boundaries_[i-1] <= v < boundaries_[i], clamped
  /// to [0, cardinality).
  uint32_t BinOf(double value) const;

  /// Applies BinOf to a whole column.
  std::vector<uint32_t> Apply(const std::vector<double>& values) const;

  /// Upper boundaries between bins (cardinality - 1 entries, ascending).
  const std::vector<double>& boundaries() const { return boundaries_; }

 private:
  friend class NestedBinner;

  explicit Binner(std::vector<double> boundaries);

  /// The equi-depth boundaries of an already sorted column.
  static Binner EquiDepthSorted(const std::vector<double>& sorted,
                                uint32_t bins);
  /// The equi-width boundaries over [lo, hi].
  static Binner EquiWidthRange(double lo, double hi, uint32_t bins);

  std::vector<double> boundaries_;
};

/// A Binner whose every bin splits into kSubBins equi-depth sub-bins. A
/// value's fine code is bin * kSubBins + sub-bin, and the codes nest:
/// FineOf(v) / kSubBins == BinOf(v) for every v, NaN included. One sort of
/// the column yields both boundary sets: the coarse boundaries, exactly
/// those Binner::EquiDepth or Binner::EquiWidth computes over the same
/// values, and inside each bin the quantiles of the values it holds. The
/// same sort gives each code's observed value range, which decides most
/// codes at a range's ends without reading a value (see observed_min).
class NestedBinner {
 public:
  /// Sub-bins per bin, and the low bits of a fine code they take.
  static constexpr uint32_t kSubBins = 16;
  static constexpr uint32_t kSubBits = 4;
  static_assert(kSubBins == 1u << kSubBits);

  static NestedBinner EquiDepth(const std::vector<double>& values,
                                uint32_t bins);
  static NestedBinner EquiWidth(const std::vector<double>& values,
                                uint32_t bins);

  /// The served bins.
  const Binner& coarse() const { return coarse_; }
  uint32_t BinOf(double value) const { return coarse_.BinOf(value); }

  /// Fine code of a value: the number of fine boundaries <= value, so code
  /// c holds [fine_boundaries()[c-1], fine_boundaries()[c]).
  uint32_t FineOf(double value) const;
  /// codes[i] = FineOf(values[i]) for i in [0, n), the searches run side
  /// by side.
  void FineOf(const double* values, size_t n, uint32_t* codes) const;

  /// Number of fine codes: cardinality() * kSubBins.
  uint32_t fine_cardinality() const {
    return coarse_.cardinality() * kSubBins;
  }

  /// Upper boundaries between fine codes (fine_cardinality() - 1 entries,
  /// non-decreasing). Entry bin * kSubBins + kSubBins - 1 is coarse
  /// boundary `bin`, verbatim; the entries before it are bin's
  /// sub-boundaries.
  const std::vector<double>& fine_boundaries() const { return fine_; }

  /// The smallest and largest value of the binned column whose code is c:
  /// its observed range. It lies inside [fine_boundaries()[c-1],
  /// fine_boundaries()[c]) and is often much narrower: on a column of few
  /// distinct values a code often holds a single one. An empty code reads
  /// [+inf, -inf], so every range contains it. Defined for columns without
  /// NaN.
  double observed_min(uint32_t code) const { return observed_min_[code]; }
  double observed_max(uint32_t code) const { return observed_max_[code]; }

 private:
  /// Splits each bin of `coarse` over `sorted`, the column's values in
  /// ascending order, and records each code's observed range.
  NestedBinner(Binner coarse, const std::vector<double>& sorted);

  Binner coarse_;
  std::vector<double> fine_;
  std::vector<double> observed_min_;
  std::vector<double> observed_max_;
};

}  // namespace bitmap
}  // namespace abitmap

#endif  // ABITMAP_BITMAP_BINNING_H_
