// abitmap_cli — command-line front end for the library.
//
//   abitmap_cli gen <rows> <attrs> <out.csv>         synthesize numeric CSV
//   abitmap_cli build <in.csv> <out.abit> [--bins N] [--alpha A]
//               [--level dataset|attribute|column] [--k K]
//   abitmap_cli inspect <index.abit>
//   abitmap_cli query <index.abit> --attr A:lo:hi [--attr ...]
//               [--rows lo:hi]                        bin-space query
//   abitmap_cli demo                                  hybrid-engine tour
//
// `build` persists only the Approximate Bitmap index (that is the point of
// the structure: it answers queries without the data); `query` therefore
// takes bin ids. The `demo` subcommand shows the full value-space path
// through HybridEngine, including AB/WAH routing.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/ab_index.h"
#include "engine/hybrid_engine.h"
#include "engine/table.h"
#include "util/file_io.h"
#include "util/math.h"

using namespace abitmap;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  abitmap_cli gen <rows> <attrs> <out.csv>\n"
               "  abitmap_cli build <in.csv> <out.abit> [--bins N] "
               "[--alpha A] [--level dataset|attribute|column] [--k K]\n"
               "  abitmap_cli inspect <index.abit>\n"
               "  abitmap_cli query <index.abit> --attr A:lo:hi ... "
               "[--rows lo:hi]\n"
               "  abitmap_cli demo\n");
  return 2;
}

int CmdGen(int argc, char** argv) {
  if (argc != 3) return Usage();
  uint64_t rows = std::strtoull(argv[0], nullptr, 10);
  uint32_t attrs = static_cast<uint32_t>(std::strtoul(argv[1], nullptr, 10));
  if (rows == 0 || attrs == 0) return Usage();
  std::string out = "attr0";
  for (uint32_t a = 1; a < attrs; ++a) out += ",attr" + std::to_string(a);
  out += "\n";
  std::mt19937_64 rng(12345);
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint32_t a = 0; a < attrs; ++a) {
      if (a) out += ",";
      out += std::to_string(std::uniform_real_distribution<double>(0, 1000)(rng));
    }
    out += "\n";
  }
  util::Status s = util::WriteFileAtomic(
      argv[2], std::vector<uint8_t>(out.begin(), out.end()));
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %llu rows x %u attrs to %s\n",
              static_cast<unsigned long long>(rows), attrs, argv[2]);
  return 0;
}

int CmdBuild(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string csv_path = argv[0];
  std::string index_path = argv[1];
  uint32_t bins = 16;
  ab::AbConfig config;
  config.level = ab::Level::kPerAttribute;
  config.alpha = 16;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--bins") {
      const char* v = next();
      if (!v) return Usage();
      bins = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--alpha") {
      const char* v = next();
      if (!v) return Usage();
      config.alpha = std::strtod(v, nullptr);
    } else if (arg == "--k") {
      const char* v = next();
      if (!v) return Usage();
      config.k = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--level") {
      const char* v = next();
      if (!v) return Usage();
      if (std::strcmp(v, "dataset") == 0) {
        config.level = ab::Level::kPerDataset;
      } else if (std::strcmp(v, "attribute") == 0) {
        config.level = ab::Level::kPerAttribute;
      } else if (std::strcmp(v, "column") == 0) {
        config.level = ab::Level::kPerColumn;
      } else {
        return Usage();
      }
    } else {
      return Usage();
    }
  }

  engine::CsvDocument doc;
  util::Status s = engine::ReadCsvFile(csv_path, &doc);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  util::StatusOr<engine::Table> table = engine::Table::FromCsv("cli", doc);
  if (!table.ok()) {
    std::fprintf(stderr, "error: %s\n", table.status().ToString().c_str());
    return 1;
  }
  engine::BinningSpec spec;
  spec.bins = bins;
  engine::Table::Discretized d = table.value().Discretize(spec);
  ab::AbIndex index = ab::AbIndex::Build(d.dataset, config);
  s = index.SaveToFile(index_path);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("built %s index: %llu rows, %u attrs x %u bins, %zu filters, "
              "%llu bytes -> %s\n",
              ab::LevelName(config.level),
              static_cast<unsigned long long>(d.dataset.num_rows()),
              d.dataset.num_attributes(), bins, index.num_filters(),
              static_cast<unsigned long long>(index.SizeInBytes()),
              index_path.c_str());
  return 0;
}

int CmdInspect(int argc, char** argv) {
  if (argc != 1) return Usage();
  util::StatusOr<ab::AbIndex> index = ab::AbIndex::LoadFromFile(argv[0]);
  if (!index.ok()) {
    std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
    return 1;
  }
  const ab::AbIndex& idx = index.value();
  std::printf("level:        %s\n", ab::LevelName(idx.level()));
  std::printf("hash scheme:  %s\n", ab::HashSchemeName(idx.config().scheme));
  std::printf("rows:         %llu\n",
              static_cast<unsigned long long>(idx.num_rows()));
  std::printf("attributes:   %u\n", idx.mapping().num_attributes());
  std::printf("bitmap cols:  %u\n", idx.mapping().num_columns());
  std::printf("filters:      %zu\n", idx.num_filters());
  std::printf("total size:   %llu bytes\n",
              static_cast<unsigned long long>(idx.SizeInBytes()));
  for (size_t f = 0; f < std::min<size_t>(idx.num_filters(), 8); ++f) {
    const ab::ApproximateBitmap& filter = idx.filter(f);
    std::printf("  filter %zu: 2^%d bits, k=%d, %llu insertions, fill %.3f, "
                "expected FP %.5f\n",
                f, util::Log2Floor(filter.size_bits()), filter.k(),
                static_cast<unsigned long long>(filter.insertions()),
                filter.FillRatio(), filter.ExpectedFalsePositiveRate());
  }
  if (idx.num_filters() > 8) std::printf("  ... and %zu more\n",
                                         idx.num_filters() - 8);
  return 0;
}

bool ParseTriple(const char* s, uint32_t* a, uint32_t* lo, uint32_t* hi) {
  unsigned av, lov, hiv;
  if (std::sscanf(s, "%u:%u:%u", &av, &lov, &hiv) != 3) return false;
  *a = av;
  *lo = lov;
  *hi = hiv;
  return true;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 1) return Usage();
  util::StatusOr<ab::AbIndex> index = ab::AbIndex::LoadFromFile(argv[0]);
  if (!index.ok()) {
    std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
    return 1;
  }
  bitmap::BitmapQuery query;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--attr" && i + 1 < argc) {
      uint32_t a, lo, hi;
      if (!ParseTriple(argv[++i], &a, &lo, &hi)) return Usage();
      query.ranges.push_back(bitmap::AttributeRange{a, lo, hi});
    } else if (arg == "--rows" && i + 1 < argc) {
      unsigned long long lo, hi;
      if (std::sscanf(argv[++i], "%llu:%llu", &lo, &hi) != 2) return Usage();
      query.rows = bitmap::RowRange(lo, hi);
    } else {
      return Usage();
    }
  }
  std::vector<bool> result = index.value().Evaluate(query);
  uint64_t matches = 0;
  for (bool b : result) matches += b;
  std::printf("candidates: %llu of %zu rows probed (no false negatives; "
              "prune against base data for exact answers)\n",
              static_cast<unsigned long long>(matches), result.size());
  // Print the first few matching row ids.
  uint64_t printed = 0;
  for (size_t i = 0; i < result.size() && printed < 20; ++i) {
    if (result[i]) {
      uint64_t row = query.rows.empty() ? i : query.rows[i];
      std::printf("  row %llu\n", static_cast<unsigned long long>(row));
      ++printed;
    }
  }
  if (matches > printed) {
    std::printf("  ... and %llu more\n",
                static_cast<unsigned long long>(matches - printed));
  }
  return 0;
}

int CmdDemo() {
  std::printf("Building a 200,000-row, 3-attribute table...\n");
  std::mt19937_64 rng(9);
  std::vector<double> price, quantity, rating;
  for (int i = 0; i < 200000; ++i) {
    price.push_back(std::uniform_real_distribution<double>(0, 100)(rng));
    quantity.push_back(static_cast<double>(rng() % 50));
    rating.push_back(std::normal_distribution<double>(3.0, 1.0)(rng));
  }
  util::StatusOr<engine::Table> table = engine::Table::FromColumns(
      "orders", {"price", "quantity", "rating"}, {price, quantity, rating});
  AB_CHECK(table.ok());

  engine::HybridEngine::Options options;
  options.binning.bins = 20;
  options.ab.alpha = 16;
  engine::HybridEngine engine =
      engine::HybridEngine::Build(std::move(table).value(), options);
  std::printf("index sizes: exact %llu bytes, AB %llu bytes\n",
              static_cast<unsigned long long>(engine.ExactSizeBytes()),
              static_cast<unsigned long long>(engine.AbSizeBytes()));
  std::printf("exact backends: %s\n",
              engine.exact_index().ChoiceSummary().c_str());
  std::printf(
      "AB crossover for plans touching WAH/BBC columns: %.1f%% of rows "
      "(all-Roaring plans use direct access at any subset size)\n",
      engine.MeasureCrossover() * 100);

  engine::EngineQuery q;
  q.predicates.push_back(engine::ValuePredicate{0, 25.0, 50.0});
  q.predicates.push_back(engine::ValuePredicate{2, 3.5, 5.0});

  engine::EngineResult whole = engine.Execute(q);
  std::printf("whole relation: %zu matches via %s\n", whole.row_ids.size(),
              whole.path.c_str());

  q.rows = bitmap::RowRange(150000, 150999);
  engine::EngineResult subset = engine.Execute(q);
  std::printf("1,000-row subset: %zu matches via %s\n",
              subset.row_ids.size(), subset.path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc - 2, argv + 2);
  if (cmd == "build") return CmdBuild(argc - 2, argv + 2);
  if (cmd == "inspect") return CmdInspect(argc - 2, argv + 2);
  if (cmd == "query") return CmdQuery(argc - 2, argv + 2);
  if (cmd == "demo") return CmdDemo();
  return Usage();
}
