#ifndef ABITMAP_UTIL_BITVECTOR_H_
#define ABITMAP_UTIL_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/byte_io.h"
#include "util/logging.h"
#include "util/status.h"

namespace abitmap {
namespace util {

/// Densely packed bit vector backed by 64-bit words.
///
/// This is the uncompressed ("verbatim") bitmap representation used as the
/// ground truth throughout the library: WAH and BBC compress it, the
/// Approximate Bitmap hashes its set bits, and tests compare every other
/// structure against it. Bit positions are zero-based.
class BitVector {
 public:
  /// Creates an empty vector of `num_bits` zero bits.
  explicit BitVector(size_t num_bits = 0)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  /// Builds from a bool sequence (test convenience).
  static BitVector FromBools(const std::vector<bool>& bits);

  /// Parses a string of '0'/'1' characters, most-significant first in the
  /// usual left-to-right reading order ("0100" sets bit 1). Other characters
  /// are rejected with AB_CHECK.
  static BitVector FromString(const std::string& bits);

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  /// Returns bit `pos`. Bounds-checked in debug builds only.
  bool Get(size_t pos) const {
    AB_DCHECK(pos < num_bits_);
    return (words_[pos >> 6] >> (pos & 63)) & 1u;
  }

  /// Sets bit `pos` to `value`.
  void Set(size_t pos, bool value = true) {
    AB_DCHECK(pos < num_bits_);
    uint64_t mask = uint64_t{1} << (pos & 63);
    if (value) {
      words_[pos >> 6] |= mask;
    } else {
      words_[pos >> 6] &= ~mask;
    }
  }

  /// Returns `n` bits (1 <= n <= 64) starting at `pos`, with bit `pos` in
  /// the least significant position. Bits past size() read as zero.
  uint64_t GetBits(size_t pos, int n) const;

  /// The 64-bit word containing bit `pos` (bit `pos & 63` within it).
  /// Batched probe kernels read the word once and mask locally.
  uint64_t GetWord(size_t pos) const {
    AB_DCHECK(pos < num_bits_);
    return words_[pos >> 6];
  }

  /// Issues a read prefetch for the cache line holding bit `pos`. The
  /// batched membership kernel prefetches a whole window of probe targets
  /// before testing any of them, overlapping the DRAM misses that dominate
  /// scattered probes into a multi-megabyte filter.
  void PrefetchBit(size_t pos) const {
    AB_DCHECK(pos < num_bits_);
    __builtin_prefetch(&words_[pos >> 6], /*rw=*/0, /*locality=*/0);
  }

  /// Write-intent prefetch for the cache line holding bit `pos`. The
  /// batched insert kernel issues these for a whole window of probe
  /// targets before committing any store, so the read-for-ownership
  /// misses of a DRAM-resident filter overlap instead of serializing.
  void PrefetchBitWrite(size_t pos) {
    AB_DCHECK(pos < num_bits_);
    __builtin_prefetch(&words_[pos >> 6], /*rw=*/1, /*locality=*/0);
  }

  /// Appends one bit, growing the vector.
  void PushBack(bool value);

  /// Appends `count` copies of `value`.
  void Append(bool value, size_t count);

  /// Appends the low `n` bits of `bits` (1 <= n <= 64), LSB first.
  void AppendBits(uint64_t bits, int n);

  /// Resizes to `num_bits`; new bits are zero.
  void Resize(size_t num_bits);

  /// Number of set bits.
  size_t Count() const;

  /// Number of set bits in [begin, end).
  size_t CountRange(size_t begin, size_t end) const;

  /// Positions of all set bits, ascending.
  std::vector<size_t> SetPositions() const;

  /// Index of the first set bit at or after `pos`, or size() if none.
  size_t FindNextSet(size_t pos) const;

  /// In-place logical operations. Sizes must match.
  void AndWith(const BitVector& other);
  void OrWith(const BitVector& other);
  /// ORs `other`'s words [word_begin, word_end) into the same word range of
  /// this vector. This is the ranged-merge primitive of the partitioned
  /// parallel build: disjoint word ranges of one destination can be merged
  /// from different threads with plain stores because no two ranges share a
  /// word. Sizes must match and word_end must not exceed words().size().
  void OrRangeWith(const BitVector& other, size_t word_begin, size_t word_end);
  /// ORs `count` words from `src` into this vector's words from word
  /// `first_word` on, clamped to the last word; bits past size() stay zero.
  /// The word-copy primitive of Roaring decompression: a bitset container
  /// lands as its 1,024 words at its chunk's offset.
  void OrWords(size_t first_word, const uint64_t* src, size_t count);
  void XorWith(const BitVector& other);
  void AndNotWith(const BitVector& other);
  /// Flips every bit.
  void Flip();

  bool operator==(const BitVector& other) const;
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  /// Renders as a '0'/'1' string (small vectors / debugging).
  std::string ToString() const;

  /// Underlying words; the bits beyond size() in the last word are zero.
  const std::vector<uint64_t>& words() const { return words_; }
  /// Writable words, for in-place word kernels that only clear bits (so
  /// the bits beyond size() stay zero).
  uint64_t* mutable_words() { return words_.data(); }

  /// Size of the raw packed representation in bytes (excluding the object
  /// header), i.e. what an uncompressed on-disk bitmap would occupy.
  size_t SizeInBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Appends the vector to `out`: varint bit count followed by the packed
  /// words, little-endian.
  void Serialize(ByteWriter* out) const;

  /// Reads a vector previously written by Serialize. Returns Corruption on
  /// truncated or inconsistent input.
  static Status Deserialize(ByteReader* in, BitVector* out);

 private:
  /// Zeroes the unused high bits of the final word so word-wise operations
  /// (Count, ==) stay exact after Flip/Resize.
  void ClearPadding();

  size_t num_bits_;
  std::vector<uint64_t> words_;
};

/// Out-of-place logical operations on equal-length vectors.
BitVector And(const BitVector& a, const BitVector& b);
BitVector Or(const BitVector& a, const BitVector& b);
BitVector Xor(const BitVector& a, const BitVector& b);
BitVector AndNot(const BitVector& a, const BitVector& b);
BitVector Not(const BitVector& a);

}  // namespace util
}  // namespace abitmap

#endif  // ABITMAP_UTIL_BITVECTOR_H_
