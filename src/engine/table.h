#ifndef ABITMAP_ENGINE_TABLE_H_
#define ABITMAP_ENGINE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bitmap/binning.h"
#include "bitmap/schema.h"
#include "engine/csv.h"
#include "util/status.h"
#include "util/statusor.h"

namespace abitmap {
namespace engine {

/// Binning policy for one attribute when a raw table is discretized.
struct BinningSpec {
  enum class Kind { kEquiDepth, kEquiWidth };
  Kind kind = Kind::kEquiDepth;  // the paper's recommended default
  uint32_t bins = 16;
};

/// A raw relation of double-valued columns, the layer above the binned
/// world: it owns the original values (needed to prune AB candidates into
/// exact answers), the per-attribute binners, and the mapping into a
/// BinnedDataset that every index in the library consumes.
class Table {
 public:
  /// Builds from named columns of equal length; rejects a NaN value.
  static util::StatusOr<Table> FromColumns(
      std::string name, std::vector<std::string> column_names,
      std::vector<std::vector<double>> columns);

  /// Builds from parsed CSV; every cell must parse as a double.
  static util::StatusOr<Table> FromCsv(std::string name,
                                       const CsvDocument& doc);

  uint64_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  uint32_t num_columns() const {
    return static_cast<uint32_t>(columns_.size());
  }
  const std::string& name() const { return name_; }
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  const std::vector<double>& column(uint32_t i) const {
    AB_DCHECK(i < columns_.size());
    return columns_[i];
  }
  double value(uint64_t row, uint32_t col) const {
    return columns_[col][row];
  }

  /// Index of a column by name, or -1.
  int ColumnIndex(const std::string& name) const;

  /// Discretizes every column with its spec (one spec for all columns, or
  /// one per column) and returns the binned dataset plus the binners used
  /// (aligned with columns).
  struct Discretized {
    bitmap::BinnedDataset dataset;
    std::vector<bitmap::Binner> binners;
  };
  Discretized Discretize(const BinningSpec& spec) const;
  Discretized Discretize(const std::vector<BinningSpec>& specs) const;

 private:
  Table(std::string name, std::vector<std::string> column_names,
        std::vector<std::vector<double>> columns)
      : name_(std::move(name)),
        column_names_(std::move(column_names)),
        columns_(std::move(columns)) {}

  std::string name_;
  std::vector<std::string> column_names_;
  std::vector<std::vector<double>> columns_;
};

}  // namespace engine
}  // namespace abitmap

#endif  // ABITMAP_ENGINE_TABLE_H_
