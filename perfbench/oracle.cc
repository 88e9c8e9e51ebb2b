#include "oracle.h"

#include <algorithm>

namespace perfbench {

namespace serve = abitmap::serve;

Truth ComputeTruth(const RawRows& raw, const serve::QueryRequest& request,
                   uint64_t num_rows) {
  Truth truth;
  auto visit = [&](uint64_t row) {
    if (!raw.Matches(row, request.predicates)) return;
    ++truth.count;
    if (!request.count_only) truth.ids.push_back(row);
  };
  if (request.rows.empty()) {
    for (uint64_t row = 0; row < num_rows; ++row) visit(row);
  } else {
    for (uint64_t row : request.rows) visit(row);
    std::sort(truth.ids.begin(), truth.ids.end());
  }
  return truth;
}

Verdict CheckAnswer(const serve::QueryRequest& request, const Truth& truth,
                    const serve::QueryResponse& response) {
  Verdict v;
  if (response.status != serve::StatusCode::kOk) {
    v.why = std::string("status ") + serve::StatusCodeName(response.status);
    return v;
  }
  if (request.count_only) {
    v.returned = response.count;
    v.truly_matching = truth.count;
    bool ok = request.exact ? response.count == truth.count
                            : response.count >= truth.count;
    if (!ok) {
      v.why = "count " + std::to_string(response.count) + " vs truth " +
              std::to_string(truth.count);
      return v;
    }
    v.ok = true;
    return v;
  }

  std::vector<uint64_t> got = response.row_ids;
  std::sort(got.begin(), got.end());
  v.returned = got.size();
  v.truly_matching = truth.ids.size();
  if (response.count != got.size()) {
    v.why = "count field disagrees with the returned ids";
    return v;
  }
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    v.why = "duplicate row id";
    return v;
  }
  if (request.exact) {
    if (got != truth.ids) {
      v.why = std::to_string(got.size()) + " ids vs " +
              std::to_string(truth.ids.size()) + " true ids";
      return v;
    }
    v.ok = true;
    return v;
  }
  // Approximate: a superset of the truth, inside the requested rows.
  if (!std::includes(got.begin(), got.end(), truth.ids.begin(),
                     truth.ids.end())) {
    v.why = "approximate answer misses a matching row";
    return v;
  }
  if (!request.rows.empty()) {
    std::vector<uint64_t> asked = request.rows;
    std::sort(asked.begin(), asked.end());
    if (!std::includes(asked.begin(), asked.end(), got.begin(), got.end())) {
      v.why = "approximate answer names a row outside the request";
      return v;
    }
  }
  v.ok = true;
  return v;
}

}  // namespace perfbench
