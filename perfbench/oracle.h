#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/table.h"
#include "serve/protocol.h"

/// The answer oracle: brute force over raw values, independent of every
/// index in the library. Exact answers must equal the truth; approximate
/// answers must contain it (the paper's no-false-negative contract) and
/// stay inside the requested rows, and their precision is what the
/// benchmark reports as answer_precision.

namespace perfbench {

/// Raw values of every committed row: the base table, then the rows the
/// benchmark ingested, in acknowledgement order.
class RawRows {
 public:
  explicit RawRows(const abitmap::engine::Table* base) : base_(base) {}

  void Append(const std::vector<double>& row) { ingested_.push_back(row); }

  uint64_t base_rows() const { return base_->num_rows(); }
  uint64_t num_rows() const { return base_rows() + ingested_.size(); }

  double value(uint64_t row, uint32_t attr) const {
    uint64_t n = base_rows();
    return row < n ? base_->value(row, attr) : ingested_[row - n][attr];
  }

  bool Matches(uint64_t row,
               const std::vector<abitmap::engine::ValuePredicate>& preds) const {
    for (const abitmap::engine::ValuePredicate& p : preds) {
      double v = value(row, p.attr);
      if (v < p.lo || v > p.hi) return false;
    }
    return true;
  }

 private:
  const abitmap::engine::Table* base_;
  std::vector<std::vector<double>> ingested_;
};

/// The true answer of a query: matching row ids (ascending; left empty
/// when the query is count-only) and their count.
struct Truth {
  std::vector<uint64_t> ids;
  uint64_t count = 0;
};

/// Evaluates `request` over the first `num_rows` committed rows (the
/// whole relation when request.rows is empty).
Truth ComputeTruth(const RawRows& raw, const abitmap::serve::QueryRequest& request,
                   uint64_t num_rows);

struct Verdict {
  bool ok = false;
  uint64_t returned = 0;        ///< rows (or count) the server returned
  uint64_t truly_matching = 0;  ///< of those, rows that satisfy the query
  std::string why;              ///< mismatch description when !ok
};

/// Checks one served response against its truth.
Verdict CheckAnswer(const abitmap::serve::QueryRequest& request,
                    const Truth& truth,
                    const abitmap::serve::QueryResponse& response);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
