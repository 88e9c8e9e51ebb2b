#ifndef ABITMAP_ENGINE_EXACT_INDEX_H_
#define ABITMAP_ENGINE_EXACT_INDEX_H_

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "bbc/bbc_vector.h"
#include "bitmap/bitmap_table.h"
#include "bitmap/query.h"
#include "roaring/roaring_bitmap.h"
#include "util/bitvector.h"
#include "util/thread_pool.h"
#include "wah/wah_query.h"

namespace abitmap {
namespace engine {

/// Per-column backend decision of the density-adaptive selector. kWah,
/// kBbc, and kRoaring are physical encodings; kAb marks a column as
/// "dense and incompressible" — the paper's AB-preferred regime — and is
/// physically stored as Roaring (whose bitset containers are the verbatim
/// form such columns collapse to anyway), so its row subsets get
/// Roaring's direct access like any other Roaring column.
enum class BackendChoice : uint8_t {
  kWah = 0,
  kBbc = 1,
  kRoaring = 2,
  kAb = 3,
};

inline constexpr size_t kNumBackendChoices = 4;

/// "wah" / "bbc" / "roaring" / "ab".
const char* BackendChoiceName(BackendChoice choice);

/// Parses a BackendChoiceName (as accepted in AB_BACKEND). Returns false
/// on unknown input; "auto" is not a choice and parses false.
bool ParseBackendChoice(const std::string& name, BackendChoice* out);

/// Build-time observables of one bitmap column — everything the selector
/// looks at.
struct ColumnProfile {
  uint64_t rows = 0;
  uint64_t set_bits = 0;
  /// Runs of consecutive set bits (the quantity RLE encodings store).
  uint64_t runs = 0;

  double density() const {
    return rows == 0 ? 0.0
                     : static_cast<double>(set_bits) /
                           static_cast<double>(rows);
  }
  double avg_run_length() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(set_bits) /
                           static_cast<double>(runs);
  }
};

ColumnProfile ProfileColumn(const util::BitVector& column);

/// The density-adaptive selector heuristic (thresholds documented in
/// DESIGN.md):
///  * density < 1%                          -> kRoaring (array containers,
///    galloping intersections)
///  * avg run >= 31 set bits                -> kWah (a 31-bit literal's
///    worth per fill word: word-aligned RLE is at its best)
///  * density >= 25% and avg run < 8        -> kAb (incompressible-dense;
///    stored Roaring)
///  * density < 5% and avg run >= 8         -> kBbc (byte-aligned fills
///    win below WAH's word granularity)
///  * otherwise                             -> kRoaring (mid-density,
///    fragmented: bitset containers + word kernels)
BackendChoice ChooseBackend(const ColumnProfile& profile);

/// The engine's exact arm: every column of a BitmapTable compressed with
/// the backend the selector (or an override) picked for it, behind one
/// query surface. Columns of different backends compose in a query plan:
/// each attribute's bin-OR runs natively per backend, attribute partials
/// combine as verbatim words, and an all-Roaring plan stays in container
/// form end to end (galloping ANDs included).
class ExactIndex {
 public:
  /// `backend_override` is "auto" (per-column selector) or a forced
  /// BackendChoiceName applied to every column.
  static ExactIndex Build(const bitmap::BitmapTable& table,
                          util::ThreadPool* pool,
                          const std::string& backend_override = "auto");

  uint64_t num_rows() const { return num_rows_; }
  uint32_t num_columns() const {
    return static_cast<uint32_t>(columns_.size());
  }
  const bitmap::ColumnMapping& mapping() const { return mapping_; }

  BackendChoice column_choice(uint32_t global_col) const {
    AB_DCHECK(global_col < columns_.size());
    return columns_[global_col].choice;
  }
  const ColumnProfile& column_profile(uint32_t global_col) const {
    AB_DCHECK(global_col < columns_.size());
    return columns_[global_col].profile;
  }

  /// How many columns landed on each choice, indexed by BackendChoice.
  const std::array<uint64_t, kNumBackendChoices>& choice_counts() const {
    return choice_counts_;
  }
  /// "wah=3 bbc=0 roaring=22 ab=0" — the /stats.json and banner form.
  std::string ChoiceSummary() const;

  /// Total compressed size in bytes (sum over columns, whatever their
  /// backend).
  uint64_t SizeInBytes() const;

  /// Bit-wise phase: OR of the bin bitmaps within each attribute range
  /// (native per backend), AND across attributes. One bit per row.
  util::BitVector ExecuteBitwiseBits(const bitmap::BitmapQuery& query) const;

  /// Full answer for a row-subset query: one bit per requested row, in
  /// request order (rows may be unsorted and repeat); empty rows means all
  /// rows. A subset of a plan with direct access is answered from the
  /// containers of the chunks it touches (roaring::EvaluateRows); any
  /// other plan evaluates the whole relation, then picks the rows.
  std::vector<bool> Evaluate(const bitmap::BitmapQuery& query) const;

  /// Expands column j back to its verbatim form (tests, parity checks).
  util::BitVector DecompressColumn(uint32_t global_col) const;

  /// Label for traces: the single backend every plan column shares, or
  /// "mixed". Returns "none" for an empty plan.
  const char* PlanBackendLabel(const bitmap::BitmapQuery& query) const;

  /// True when every column the plan touches is stored as Roaring (kRoaring
  /// or kAb), so a row subset costs what the subset touches. False when a
  /// WAH or BBC column must be decompressed over the whole relation — the
  /// plans HybridEngine still routes to the AB below its crossover.
  bool PlanHasDirectAccess(const bitmap::BitmapQuery& query) const;

 private:
  struct Column {
    BackendChoice choice = BackendChoice::kRoaring;
    ColumnProfile profile;
    std::variant<wah::WahVector, bbc::BbcVector, roaring::RoaringBitmap> data;
  };

  ExactIndex(bitmap::ColumnMapping mapping, uint64_t num_rows)
      : mapping_(std::move(mapping)), num_rows_(num_rows) {}

  /// OR of one attribute range's bins as verbatim bits (mixed-backend
  /// path).
  util::BitVector AttributeOrBits(const bitmap::AttributeRange& range) const;

  /// Each range's bin bitmaps, for a plan with direct access.
  std::vector<std::vector<const roaring::RoaringBitmap*>> RoaringTerms(
      const bitmap::BitmapQuery& query) const;

  bitmap::ColumnMapping mapping_;
  uint64_t num_rows_;
  std::vector<Column> columns_;
  std::array<uint64_t, kNumBackendChoices> choice_counts_ = {};
};

}  // namespace engine
}  // namespace abitmap

#endif  // ABITMAP_ENGINE_EXACT_INDEX_H_
