#include "engine/table.h"

#include <cmath>
#include <cstdlib>
#include <utility>

namespace abitmap {
namespace engine {

util::StatusOr<Table> Table::FromColumns(
    std::string name, std::vector<std::string> column_names,
    std::vector<std::vector<double>> columns) {
  if (column_names.size() != columns.size()) {
    return util::Status::InvalidArgument("column name/data count mismatch");
  }
  if (columns.empty()) {
    return util::Status::InvalidArgument("table needs at least one column");
  }
  size_t rows = columns[0].size();
  if (rows == 0) {
    return util::Status::InvalidArgument("table needs at least one row");
  }
  for (const std::vector<double>& c : columns) {
    if (c.size() != rows) {
      return util::Status::InvalidArgument("ragged columns");
    }
    // A NaN has no place in a bin order (and would break the sort behind
    // equi-depth binning); ingest and the serve layer reject it too.
    for (double v : c) {
      if (std::isnan(v)) return util::Status::InvalidArgument("NaN value");
    }
  }
  return Table(std::move(name), std::move(column_names), std::move(columns));
}

util::StatusOr<Table> Table::FromCsv(std::string name,
                                     const CsvDocument& doc) {
  if (doc.num_columns() == 0 || doc.num_rows() == 0) {
    return util::Status::InvalidArgument("CSV has no data rows");
  }
  std::vector<std::vector<double>> columns(doc.num_columns());
  for (auto& c : columns) c.reserve(doc.num_rows());
  for (size_t r = 0; r < doc.num_rows(); ++r) {
    for (size_t c = 0; c < doc.num_columns(); ++c) {
      const std::string& cell = doc.rows[r][c];
      char* end = nullptr;
      double v = std::strtod(cell.c_str(), &end);
      if (cell.empty() || end != cell.c_str() + cell.size()) {
        return util::Status::InvalidArgument(
            "CSV cell is not numeric: row " + std::to_string(r) + " column '" +
            doc.header[c] + "' value '" + cell + "'");
      }
      columns[c].push_back(v);
    }
  }
  return FromColumns(std::move(name), doc.header, std::move(columns));
}

int Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (column_names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Table::Discretized Table::Discretize(const BinningSpec& spec) const {
  return Discretize(std::vector<BinningSpec>(columns_.size(), spec));
}

Table::Discretized Table::Discretize(
    const std::vector<BinningSpec>& specs) const {
  AB_CHECK_EQ(specs.size(), columns_.size());
  Discretized out;
  out.dataset.name = name_;
  for (uint32_t i = 0; i < columns_.size(); ++i) {
    const BinningSpec& spec = specs[i];
    bitmap::Binner binner =
        spec.kind == BinningSpec::Kind::kEquiDepth
            ? bitmap::Binner::EquiDepth(columns_[i], spec.bins)
            : bitmap::Binner::EquiWidth(columns_[i], spec.bins);
    out.dataset.attributes.push_back(
        bitmap::AttributeInfo{column_names_[i], binner.cardinality()});
    out.dataset.values.push_back(binner.Apply(columns_[i]));
    out.binners.push_back(std::move(binner));
  }
  return out;
}

}  // namespace engine
}  // namespace abitmap
