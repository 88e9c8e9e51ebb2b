#ifndef ABITMAP_ROARING_CONTAINER_H_
#define ABITMAP_ROARING_CONTAINER_H_

#include <cstdint>
#include <vector>

#include "util/bitvector.h"
#include "util/logging.h"

namespace abitmap {
namespace roaring {

/// One 2^16-value chunk of a Roaring bitmap ("Better bitmap performance
/// with Roaring bitmaps", Chambi et al.; run containers from "Consistently
/// faster and smaller compressed bitmaps with Roaring", Lemire et al.).
///
/// A container holds a set of 16-bit values in whichever of three
/// representations is smallest for its cardinality and run structure:
///  * array  — sorted uint16_t values; at most kArrayMax (4096) entries,
///    2 bytes per value. Intersections between arrays of very different
///    sizes gallop (exponential search) through the larger one.
///  * bitset — 1024 x uint64_t (8 KiB) with a cached cardinality; the
///    bulk AND/OR/XOR/ANDNOT and popcount ride util::simd's word kernels.
///  * run    — sorted (start, length-1) pairs, 4 bytes per run; the
///    encoding of choice for long fills, with native run-vs-run and
///    run-vs-array merges.
///
/// Promotion/demotion follows the papers' thresholds: an array past 4096
/// values becomes a bitset; a bitset at or under 4096 becomes an array (so
/// array and bitset forms never both beat the other's size); Optimize()
/// additionally converts to a run container exactly when the run encoding
/// is strictly smaller than the array/bitset alternative. Binary
/// operations always return a normalized array-or-bitset container —
/// callers re-run Optimize() if they want runs back (mirrors CRoaring's
/// runOptimize contract).
enum class ContainerKind : uint8_t {
  kArray = 0,
  kBitset = 1,
  kRun = 2,
};

const char* ContainerKindName(ContainerKind kind);

class Container {
 public:
  /// Values per container (the chunk width).
  static constexpr uint32_t kCapacity = 1 << 16;
  /// Cardinality above which an array converts to a bitset (and at or
  /// below which a bitset demotes back): 4096 values x 2 bytes = 8 KiB,
  /// the bitset's fixed size.
  static constexpr uint32_t kArrayMax = 4096;
  /// Words in a bitset container.
  static constexpr uint32_t kBitsetWords = kCapacity / 64;
  /// Size ratio beyond which the array-array intersection gallops through
  /// the larger operand instead of stepping both linearly.
  static constexpr uint32_t kGallopRatio = 16;
  /// Returned by NextSet when no set value remains.
  static constexpr uint32_t kNoValue = kCapacity;

  /// Empty array container.
  Container() = default;

  /// Builds from a 2^16-bit slice of a verbatim bitmap: `words` points at
  /// `num_words` (<= 1024) uint64_t covering values [0, num_words*64).
  /// The result is normalized (array or bitset by cardinality) but not
  /// run-optimized; call Optimize() for that.
  static Container FromWords(const uint64_t* words, size_t num_words);

  /// Builds from sorted, unique values.
  static Container FromSortedValues(const uint16_t* values, size_t count);

  /// A run container holding [0, n) for 1 <= n <= kCapacity — the
  /// no-predicate "all rows" chunk.
  static Container FullRange(uint32_t n);

  /// Appends a value strictly greater than every value already present
  /// (the column-build path: row ids arrive ascending). Promotes to a
  /// bitset at the 4096 boundary.
  void AppendOrdered(uint16_t value);

  ContainerKind kind() const { return kind_; }
  uint32_t cardinality() const { return cardinality_; }
  bool empty() const { return cardinality_ == 0; }

  /// Membership test. O(log cardinality) for arrays, O(1) for bitsets,
  /// O(log runs) for run containers.
  bool Get(uint16_t value) const;

  /// Smallest set value >= from, or kNoValue.
  uint32_t NextSet(uint32_t from) const;

  /// Heap bytes of the active representation (what SizeInBytes sums).
  size_t SizeInBytes() const;

  /// Number of runs of consecutive values (what the run encoding would
  /// store). O(cardinality) for arrays, O(words) for bitsets.
  uint32_t CountRuns() const;

  /// Converts to the smallest of the three representations: run when
  /// 4 * runs < min(2 * cardinality, 8192) bytes, else array/bitset by the
  /// 4096 threshold. Idempotent; never changes the represented set.
  void Optimize();

  /// ORs the container's values, offset by `base`, into `out` (which must
  /// cover [base, base + 2^16)). The decompression primitive.
  void AppendTo(util::BitVector* out, uint64_t base) const;

  /// ORs the container's values into `words` (kBitsetWords long) — the
  /// accumulation primitive of multi-way unions.
  void OrInto(uint64_t* words) const;

  /// OrInto restricted to one window of the chunk: ORs the values in
  /// [64 * first_word, 64 * (first_word + num_words)) into `words`
  /// (num_words long), value v landing at bit v - 64 * first_word. The
  /// read primitive of row-subset evaluation; the window must lie inside
  /// the chunk.
  void OrRangeInto(uint64_t* words, uint32_t first_word,
                   uint32_t num_words) const;

  /// Materializes the sorted value list (tests / conversions).
  std::vector<uint16_t> ToArray() const;

  bool operator==(const Container& other) const;
  bool operator!=(const Container& other) const { return !(*this == other); }

  /// Binary operations. Results are normalized to array/bitset form.
  friend Container And(const Container& a, const Container& b);
  friend Container Or(const Container& a, const Container& b);
  friend Container Xor(const Container& a, const Container& b);
  friend Container AndNot(const Container& a, const Container& b);

  /// popcount(a AND b) without materializing the result.
  friend uint32_t AndCardinality(const Container& a, const Container& b);

  /// Test hook for the galloping threshold: 1 forces galloping for every
  /// array-array intersection, 0 forces the linear merge, -1 restores the
  /// kGallopRatio heuristic. The two paths are bit-identical by contract
  /// (asserted in tests/roaring/roaring_container_test.cc).
  static void SetGallopForTesting(int force);

 private:
  /// Re-checks the array/bitset threshold after an operation.
  void Normalize();
  void ConvertToBitset();
  void ConvertToArray();
  void ConvertToRuns(uint32_t num_runs);
  /// Expands a run container to array (cardinality <= kArrayMax) or
  /// bitset form.
  void ExpandRuns();

  /// Adopts `words` (must be kBitsetWords long) as a bitset, computes the
  /// cardinality, and normalizes. Shared result path of the binary ops.
  static Container FromBitsetVector(std::vector<uint64_t> words);
  /// Expands a flattened (start, length-1) run list with the given total
  /// cardinality into normalized array/bitset form.
  static Container FromRunList(const std::vector<uint16_t>& runs,
                               uint32_t cardinality);
  /// The container's values as a full kBitsetWords bitset (copying for
  /// bitsets, scattering for arrays/runs) — the mixed-kind Xor/AndNot
  /// materialization step.
  static std::vector<uint64_t> MaterializedWords(const Container& c);

  const uint64_t* bitset_words() const { return words_.data(); }

  ContainerKind kind_ = ContainerKind::kArray;
  uint32_t cardinality_ = 0;
  /// kArray: sorted values. kRun: (start, length-1) pairs flattened as
  /// [s0, l0, s1, l1, ...], runs sorted and non-adjacent.
  std::vector<uint16_t> array_;
  /// kBitset: exactly kBitsetWords words.
  std::vector<uint64_t> words_;
};

Container And(const Container& a, const Container& b);
Container Or(const Container& a, const Container& b);
Container Xor(const Container& a, const Container& b);
Container AndNot(const Container& a, const Container& b);
uint32_t AndCardinality(const Container& a, const Container& b);

}  // namespace roaring
}  // namespace abitmap

#endif  // ABITMAP_ROARING_CONTAINER_H_
