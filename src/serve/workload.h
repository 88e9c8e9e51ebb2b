#ifndef ABITMAP_SERVE_WORKLOAD_H_
#define ABITMAP_SERVE_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "engine/hybrid_engine.h"
#include "serve/protocol.h"

/// Seed workload for the serving harness: a deterministic random table
/// (the serving analogue of the engine tests' orders table, sized for
/// benchmarks) and a pool of query templates that a zipf-skewed request
/// stream picks from. Skew is the realistic regime for a query service —
/// a handful of hot dashboard/report queries dominate.

namespace abitmap {
namespace serve {

/// Columns: price U(0,100), quantity in {0..49}, rating N(3,1).
/// Deterministic in (num_rows, seed).
engine::Table MakeSeedTable(uint64_t num_rows, uint64_t seed);

struct TemplateOptions {
  size_t num_templates = 64;
  /// Fraction of rows each template's row subset covers; 0 disables row
  /// subsets (whole-relation queries). Small fractions (~1%) are the
  /// paper's direct-access regime.
  double row_fraction = 0.01;
  bool count_only = true;
  uint64_t seed = 7;
};

/// Query templates over MakeSeedTable's schema: 1-2 range predicates on
/// random attributes plus an optional contiguous row subset at a random
/// offset. Deterministic in the options.
std::vector<QueryRequest> MakeQueryTemplates(uint64_t num_rows,
                                             const TemplateOptions& options);

/// Zipf(theta) sampler over {0..n-1} by inverse-CDF binary search over
/// the precomputed cumulative weights (exact, no rejection loop).
/// theta=0 is uniform; theta around 1 is the classic web/OLTP skew.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta, uint64_t seed);
  size_t Next();

 private:
  std::vector<double> cdf_;
  uint64_t state_;
};

}  // namespace serve
}  // namespace abitmap

#endif  // ABITMAP_SERVE_WORKLOAD_H_
