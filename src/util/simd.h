#ifndef ABITMAP_UTIL_SIMD_H_
#define ABITMAP_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace abitmap {
namespace util {
namespace simd {

/// The vectorized kernel layer under the batched probe/build/query APIs.
///
/// Every kernel here has a portable scalar implementation plus, where it
/// pays, SSE2/AVX2 (x86) and NEON (aarch64) variants. Selection happens
/// through one dispatch point — ActiveSimdLevel() — resolved once per
/// process from CPU detection, overridable via the AB_SIMD_LEVEL
/// environment variable ("scalar", "sse2", "avx2", "neon", "auto") or
/// SetSimdLevelForTesting(). The kernel contract is *bit identity*: for
/// any input, every dispatch level returns exactly the bytes the scalar
/// path returns (asserted across hash schemes, k, and filter sizes in
/// tests/util/simd_test.cc and tests/core/simd_parity_test.cc). Levels
/// may differ in execution shape (e.g. the AVX2 membership kernel gathers
/// a whole probe round where the scalar kernel early-exits lane by lane)
/// but never in results.
///
/// Building with -DAB_DISABLE_SIMD=ON (or on an ISA without kernels)
/// compiles the scalar fallback only; DetectedSimdLevel() then reports
/// kScalar and every kernel runs the portable loop.

/// Instruction-set tiers a kernel can be dispatched to. kSse2/kAvx2 are
/// x86 tiers (SSE2 is baseline on x86-64); kNeon is the aarch64 tier.
/// The numeric order is not a capability order across architectures —
/// dispatch switches on the exact level.
enum class SimdLevel {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Best level this binary supports on this CPU (compile-time kernel
/// availability intersected with runtime CPU feature detection).
SimdLevel DetectedSimdLevel();

/// The level kernels actually dispatch to: DetectedSimdLevel() unless
/// lowered by the AB_SIMD_LEVEL environment variable (read once, at first
/// call) or by SetSimdLevelForTesting(). Never exceeds the detected
/// level.
SimdLevel ActiveSimdLevel();

/// Forces the active level (clamped to DetectedSimdLevel()). Parity
/// tests sweep this to assert SIMD == scalar; restore the previous value
/// when done. Not thread-safe against concurrent kernel calls — call it
/// from single-threaded test setup only.
void SetSimdLevelForTesting(SimdLevel level);

/// Printable name ("scalar", "sse2", "avx2", "neon").
const char* SimdLevelName(SimdLevel level);

/// Parses a level name (as accepted in AB_SIMD_LEVEL). Returns false on
/// unknown input. "auto" parses to DetectedSimdLevel().
bool ParseSimdLevel(const char* name, SimdLevel* out);

/// --- Single-word helpers -------------------------------------------------
/// The one popcount / bit-scan implementation the rest of the library
/// uses (util::PopCount, BitVector, WAH/BBC decoders all forward here).

/// Builtins rather than <bit> so this header has no C++20 dependency of
/// its own. CountTrailingZeros64 keeps std::countr_zero's x == 0 result.
/// Without a hardware popcount in the target (x86 built without -mpopcnt)
/// the builtin is an out-of-line libgcc call per word, so PopCount64 is
/// the branch-free SWAR count there (Hacker's Delight, fig. 5-2).
inline int PopCount64(uint64_t x) {
#if defined(__POPCNT__) || defined(__aarch64__)
  return __builtin_popcountll(x);
#else
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
#endif
}
inline int CountTrailingZeros64(uint64_t x) {
  return x == 0 ? 64 : __builtin_ctzll(x);
}

/// Strong 64-bit mixer (splitmix64 finalizer, public domain, Sebastiano
/// Vigna). hash::Mix64 forwards here so the scalar and vectorized
/// (Mix64Batch) mixes share one constant set.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// --- Word-span kernels ---------------------------------------------------
/// Bulk operations over uint64_t spans: the verification path of the
/// WAH/BBC baselines (BitVector AND/OR/ANDNOT, popcounts) and the AB's
/// fill-ratio accounting.

/// Total set bits in words[0..count).
size_t PopcountWords(const uint64_t* words, size_t count);

/// dst[i] op= src[i] for i in [0, count).
void AndWords(uint64_t* dst, const uint64_t* src, size_t count);
void OrWords(uint64_t* dst, const uint64_t* src, size_t count);
void XorWords(uint64_t* dst, const uint64_t* src, size_t count);
void AndNotWords(uint64_t* dst, const uint64_t* src, size_t count);
/// dst[i] = ~dst[i].
void NotWords(uint64_t* dst, size_t count);

/// --- Probe-resolution kernels --------------------------------------------

/// out[i] = bit `positions[i]` of the packed bit array `words` (1 set,
/// 0 clear). The AVX2 variant resolves four scattered probes per gather;
/// this is the still-alive mask update of the batched membership test.
/// Positions must be in range (callers derive them mod the filter size).
void GatherBits(const uint64_t* words, const uint64_t* positions,
                size_t count, uint8_t* out);

/// --- Hash kernels --------------------------------------------------------

/// out[i] = Mix64(keys[i] ^ xor_salt) | or_mask. The two double-hash
/// mixes of a probe window run through this (or_mask = 1 forces the
/// stride odd, exactly as the scalar SecondHash does).
void Mix64Batch(const uint64_t* keys, size_t count, uint64_t xor_salt,
                uint64_t or_mask, uint64_t* out);

/// out[i * (end - begin) + (t - begin)] = (h1[i] + t * h2[i]) & pos_mask
/// for t in [begin, end). pos_mask must be n - 1 for a power-of-two n;
/// (h1 + t*h2) mod 2^64 masked this way is bit-identical to the scalar
/// `% n` the double-hash family computes.
void DoubleHashRounds(const uint64_t* h1, const uint64_t* h2, size_t count,
                      size_t begin, size_t end, uint64_t pos_mask,
                      uint64_t* out);

}  // namespace simd
}  // namespace util
}  // namespace abitmap

#endif  // ABITMAP_UTIL_SIMD_H_
