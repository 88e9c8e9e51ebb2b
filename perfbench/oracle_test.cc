// The benchmark's own check of its answer oracle: correct answers pass,
// and a corrupted expected answer (or a wrong served one) is caught, in
// every answer mode the workloads use. Prints one line per case and exits
// non-zero on the first case that does not behave.

#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "serve/workload.h"

namespace perfbench {
namespace {

namespace serve = abitmap::serve;

int failures = 0;

void Expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++failures;
}

serve::QueryResponse Answer(const Truth& truth) {
  serve::QueryResponse r;
  r.status = serve::StatusCode::kOk;
  r.row_ids = truth.ids;
  r.count = truth.count;
  return r;
}

int Main() {
  abitmap::engine::Table table = serve::MakeSeedTable(20000, 3);
  RawRows raw(&table);
  serve::TemplateOptions to;
  to.num_templates = 8;
  to.row_fraction = 0.05;
  to.count_only = false;
  std::vector<serve::QueryRequest> subset =
      serve::MakeQueryTemplates(table.num_rows(), to);
  to.row_fraction = 0;
  to.count_only = true;
  std::vector<serve::QueryRequest> counts =
      serve::MakeQueryTemplates(table.num_rows(), to);

  for (size_t i = 0; i < subset.size(); ++i) {
    serve::QueryRequest q = subset[i];
    Truth truth = ComputeTruth(raw, q, raw.num_rows());
    if (truth.ids.empty()) continue;
    std::string tag = "subset template " + std::to_string(i);

    // Exact mode: equality both ways.
    serve::QueryResponse good = Answer(truth);
    Expect(CheckAnswer(q, truth, good).ok, tag + ": exact answer accepted");
    Truth corrupt = truth;
    corrupt.ids.pop_back();
    --corrupt.count;
    Expect(!CheckAnswer(q, corrupt, good).ok,
           tag + ": corrupted expected answer (one id dropped) caught");
    serve::QueryResponse missing = good;
    missing.row_ids.erase(missing.row_ids.begin());
    --missing.count;
    Expect(!CheckAnswer(q, truth, missing).ok,
           tag + ": exact answer missing a row caught");

    // Approximate mode: a superset inside the requested rows, with a
    // precision below 1.
    q.exact = false;
    serve::QueryResponse superset = good;
    for (uint64_t row : q.rows) {
      if (!raw.Matches(row, q.predicates)) {
        superset.row_ids.push_back(row);
        ++superset.count;
        break;
      }
    }
    Verdict v = CheckAnswer(q, truth, superset);
    Expect(v.ok && v.truly_matching < v.returned,
           tag + ": approximate superset accepted with precision < 1");
    Truth extra = truth;
    extra.ids.push_back(q.rows.back() + 1);
    ++extra.count;
    Expect(!CheckAnswer(q, extra, superset).ok,
           tag + ": corrupted expected answer (extra id) caught");
    Expect(!CheckAnswer(q, truth, missing).ok,
           tag + ": approximate false negative caught");
    serve::QueryResponse outside = superset;
    outside.row_ids.push_back(q.rows.back() + 1);
    ++outside.count;
    Expect(!CheckAnswer(q, truth, outside).ok,
           tag + ": approximate row outside the request caught");
  }

  for (size_t i = 0; i < counts.size(); ++i) {
    const serve::QueryRequest& q = counts[i];
    Truth truth = ComputeTruth(raw, q, raw.num_rows());
    std::string tag = "count template " + std::to_string(i);
    serve::QueryResponse good = Answer(truth);
    Expect(CheckAnswer(q, truth, good).ok, tag + ": exact count accepted");
    Truth corrupt = truth;
    ++corrupt.count;
    Expect(!CheckAnswer(q, corrupt, good).ok,
           tag + ": corrupted expected count caught");
  }

  // Ingested rows join the truth for whole-relation queries.
  raw.Append({50.0, 10.0, 3.0});
  serve::QueryRequest all;
  all.count_only = true;
  all.predicates.push_back({0, 49.5, 50.5});
  Truth before = ComputeTruth(raw, all, table.num_rows());
  Truth after = ComputeTruth(raw, all, raw.num_rows());
  Expect(after.count == before.count + 1,
         "acknowledged insert counted by the oracle");

  serve::QueryResponse rejected;
  rejected.status = serve::StatusCode::kOverloaded;
  Expect(!CheckAnswer(all, after, rejected).ok, "rejection is a failure");

  std::printf("%s\n", failures == 0 ? "oracle_test: all cases passed"
                                    : "oracle_test: FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Main(); }
