#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if !defined(AB_DISABLE_SIMD) && defined(__x86_64__)
#define AB_SIMD_X86 1
#include <immintrin.h>
#define AB_TARGET_AVX2 __attribute__((target("avx2")))
#endif

#if !defined(AB_DISABLE_SIMD) && defined(__ARM_NEON) && defined(__aarch64__)
#define AB_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace abitmap {
namespace util {
namespace simd {

namespace {

/// -1 until the first ActiveSimdLevel() call resolves detection + the
/// AB_SIMD_LEVEL override. A benign race: concurrent first calls compute
/// the same value.
std::atomic<int> g_active_level{-1};

SimdLevel ComputeDetectedLevel() {
#if defined(AB_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kSse2;  // baseline on x86-64
#elif defined(AB_SIMD_NEON)
  return SimdLevel::kNeon;
#else
  return SimdLevel::kScalar;
#endif
}

/// Lowers a requested level to one this binary/CPU can actually run;
/// cross-architecture requests (e.g. AB_SIMD_LEVEL=neon on x86) fall all
/// the way back to scalar.
SimdLevel ClampLevel(SimdLevel requested) {
  SimdLevel detected = ComputeDetectedLevel();
  switch (requested) {
    case SimdLevel::kScalar:
      return SimdLevel::kScalar;
    case SimdLevel::kSse2:
      return (detected == SimdLevel::kSse2 || detected == SimdLevel::kAvx2)
                 ? SimdLevel::kSse2
                 : SimdLevel::kScalar;
    case SimdLevel::kAvx2:
      if (detected == SimdLevel::kAvx2) return SimdLevel::kAvx2;
      return detected == SimdLevel::kSse2 ? SimdLevel::kSse2
                                          : SimdLevel::kScalar;
    case SimdLevel::kNeon:
      return detected == SimdLevel::kNeon ? SimdLevel::kNeon
                                          : SimdLevel::kScalar;
  }
  return SimdLevel::kScalar;
}

/// --- Scalar kernels (the reference semantics of every level) -------------

size_t PopcountWordsScalar(const uint64_t* words, size_t count) {
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) total += PopCount64(words[i]);
  return total;
}

void GatherBitsScalar(const uint64_t* words, const uint64_t* positions,
                      size_t count, uint8_t* out) {
  for (size_t i = 0; i < count; ++i) {
    uint64_t pos = positions[i];
    out[i] = static_cast<uint8_t>((words[pos >> 6] >> (pos & 63)) & 1u);
  }
}

void DoubleHashRoundsScalar(const uint64_t* h1, const uint64_t* h2,
                            size_t count, size_t begin, size_t end,
                            uint64_t pos_mask, uint64_t* out) {
  size_t width = end - begin;
  for (size_t i = 0; i < count; ++i) {
    uint64_t* row = out + i * width;
    for (size_t t = begin; t < end; ++t) {
      row[t - begin] = (h1[i] + t * h2[i]) & pos_mask;
    }
  }
}

}  // namespace

/// --- x86 kernels ---------------------------------------------------------

#if defined(AB_SIMD_X86)
namespace {

/// 64x64 -> low 64 multiply per lane from SSE2/AVX2 32-bit multiplies:
/// a*b mod 2^64 = al*bl + ((al*bh + ah*bl) << 32). Wrapping adds are
/// exact because every discarded carry lands at bit 64 or above.
inline __m128i Mul64Sse2(__m128i a, __m128i b) {
  __m128i ah = _mm_srli_epi64(a, 32);
  __m128i bh = _mm_srli_epi64(b, 32);
  __m128i ll = _mm_mul_epu32(a, b);
  __m128i lh = _mm_mul_epu32(a, bh);
  __m128i hl = _mm_mul_epu32(ah, b);
  __m128i cross = _mm_add_epi64(lh, hl);
  return _mm_add_epi64(ll, _mm_slli_epi64(cross, 32));
}

AB_TARGET_AVX2 inline __m256i Mul64Avx2(__m256i a, __m256i b) {
  __m256i ah = _mm256_srli_epi64(a, 32);
  __m256i bh = _mm256_srli_epi64(b, 32);
  __m256i ll = _mm256_mul_epu32(a, b);
  __m256i lh = _mm256_mul_epu32(a, bh);
  __m256i hl = _mm256_mul_epu32(ah, b);
  __m256i cross = _mm256_add_epi64(lh, hl);
  return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

inline __m128i Set1U64Sse2(uint64_t v) {
  return _mm_set1_epi64x(static_cast<long long>(v));
}

AB_TARGET_AVX2 inline __m256i Set1U64Avx2(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// splitmix64 finalizer, lanewise; constants shared with simd::Mix64.
inline __m128i Mix64Sse2(__m128i x) {
  x = _mm_add_epi64(x, Set1U64Sse2(0x9E3779B97F4A7C15ull));
  x = Mul64Sse2(_mm_xor_si128(x, _mm_srli_epi64(x, 30)),
                Set1U64Sse2(0xBF58476D1CE4E5B9ull));
  x = Mul64Sse2(_mm_xor_si128(x, _mm_srli_epi64(x, 27)),
                Set1U64Sse2(0x94D049BB133111EBull));
  return _mm_xor_si128(x, _mm_srli_epi64(x, 31));
}

AB_TARGET_AVX2 inline __m256i Mix64Avx2(__m256i x) {
  x = _mm256_add_epi64(x, Set1U64Avx2(0x9E3779B97F4A7C15ull));
  x = Mul64Avx2(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
                Set1U64Avx2(0xBF58476D1CE4E5B9ull));
  x = Mul64Avx2(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
                Set1U64Avx2(0x94D049BB133111EBull));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// Nibble-LUT + SAD popcount (Mula): exact count, 32 bytes per step.
AB_TARGET_AVX2 size_t PopcountWordsAvx2(const uint64_t* words, size_t count) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    __m256i lo = _mm256_and_si256(v, low_mask);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                  _mm256_shuffle_epi8(lookup, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  size_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < count; ++i) total += PopCount64(words[i]);
  return total;
}

enum class WordOp { kAnd, kOr, kXor, kAndNot, kNot };

template <WordOp Op>
AB_TARGET_AVX2 void WordOpAvx2(uint64_t* dst, const uint64_t* src,
                               size_t count) {
  size_t i = 0;
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (; i + 4 <= count; i += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i s = Op == WordOp::kNot
                    ? ones
                    : _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(src + i));
    __m256i r;
    switch (Op) {
      case WordOp::kAnd:
        r = _mm256_and_si256(d, s);
        break;
      case WordOp::kOr:
        r = _mm256_or_si256(d, s);
        break;
      case WordOp::kXor:
      case WordOp::kNot:
        r = _mm256_xor_si256(d, s);
        break;
      case WordOp::kAndNot:
        r = _mm256_andnot_si256(s, d);  // d & ~s
        break;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
  }
  for (; i < count; ++i) {
    switch (Op) {
      case WordOp::kAnd:
        dst[i] &= src[i];
        break;
      case WordOp::kOr:
        dst[i] |= src[i];
        break;
      case WordOp::kXor:
        dst[i] ^= src[i];
        break;
      case WordOp::kAndNot:
        dst[i] &= ~src[i];
        break;
      case WordOp::kNot:
        dst[i] = ~dst[i];
        break;
    }
  }
}

AB_TARGET_AVX2 void GatherBitsAvx2(const uint64_t* words,
                                   const uint64_t* positions, size_t count,
                                   uint8_t* out) {
  const __m256i sixty_three = _mm256_set1_epi64x(63);
  const __m256i one = _mm256_set1_epi64x(1);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256i pos =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(positions + i));
    __m256i word_idx = _mm256_srli_epi64(pos, 6);
    __m256i shift = _mm256_and_si256(pos, sixty_three);
    __m256i w = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(words), word_idx, 8);
    __m256i bit = _mm256_and_si256(_mm256_srlv_epi64(w, shift), one);
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), bit);
    out[i + 0] = static_cast<uint8_t>(lanes[0]);
    out[i + 1] = static_cast<uint8_t>(lanes[1]);
    out[i + 2] = static_cast<uint8_t>(lanes[2]);
    out[i + 3] = static_cast<uint8_t>(lanes[3]);
  }
  GatherBitsScalar(words, positions + i, count - i, out + i);
}

void Mix64BatchSse2(const uint64_t* keys, size_t count, uint64_t xor_salt,
                    uint64_t or_mask, uint64_t* out) {
  const __m128i salt = Set1U64Sse2(xor_salt);
  const __m128i orv = Set1U64Sse2(or_mask);
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i));
    __m128i m = _mm_or_si128(Mix64Sse2(_mm_xor_si128(x, salt)), orv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), m);
  }
  for (; i < count; ++i) out[i] = Mix64(keys[i] ^ xor_salt) | or_mask;
}

AB_TARGET_AVX2 void Mix64BatchAvx2(const uint64_t* keys, size_t count,
                                   uint64_t xor_salt, uint64_t or_mask,
                                   uint64_t* out) {
  const __m256i salt = Set1U64Avx2(xor_salt);
  const __m256i orv = Set1U64Avx2(or_mask);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    __m256i m = _mm256_or_si256(Mix64Avx2(_mm256_xor_si256(x, salt)), orv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), m);
  }
  for (; i < count; ++i) out[i] = Mix64(keys[i] ^ xor_salt) | or_mask;
}

void DoubleHashRoundsSse2(const uint64_t* h1, const uint64_t* h2,
                          size_t count, size_t begin, size_t end,
                          uint64_t pos_mask, uint64_t* out) {
  size_t width = end - begin;
  const __m128i vmask = Set1U64Sse2(pos_mask);
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h1 + i));
    __m128i v2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h2 + i));
    // Running sum h1 + t*h2 (mod 2^64): one add per round replaces the
    // scalar per-round multiply, with an identical wrapped value.
    __m128i cur = _mm_add_epi64(
        v1, Mul64Sse2(v2, Set1U64Sse2(static_cast<uint64_t>(begin))));
    alignas(16) uint64_t lanes[2];
    for (size_t t = begin; t < end; ++t) {
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                      _mm_and_si128(cur, vmask));
      out[(i + 0) * width + (t - begin)] = lanes[0];
      out[(i + 1) * width + (t - begin)] = lanes[1];
      cur = _mm_add_epi64(cur, v2);
    }
  }
  DoubleHashRoundsScalar(h1 + i, h2 + i, count - i, begin, end, pos_mask,
                         out + i * width);
}

AB_TARGET_AVX2 void DoubleHashRoundsAvx2(const uint64_t* h1,
                                         const uint64_t* h2, size_t count,
                                         size_t begin, size_t end,
                                         uint64_t pos_mask, uint64_t* out) {
  size_t width = end - begin;
  const __m256i vmask = Set1U64Avx2(pos_mask);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h1 + i));
    __m256i v2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h2 + i));
    __m256i cur = _mm256_add_epi64(
        v1, Mul64Avx2(v2, Set1U64Avx2(static_cast<uint64_t>(begin))));
    alignas(32) uint64_t lanes[4];
    for (size_t t = begin; t < end; ++t) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                         _mm256_and_si256(cur, vmask));
      out[(i + 0) * width + (t - begin)] = lanes[0];
      out[(i + 1) * width + (t - begin)] = lanes[1];
      out[(i + 2) * width + (t - begin)] = lanes[2];
      out[(i + 3) * width + (t - begin)] = lanes[3];
      cur = _mm256_add_epi64(cur, v2);
    }
  }
  DoubleHashRoundsScalar(h1 + i, h2 + i, count - i, begin, end, pos_mask,
                         out + i * width);
}

}  // namespace
#endif  // AB_SIMD_X86

/// --- NEON kernels --------------------------------------------------------

#if defined(AB_SIMD_NEON)
namespace {

size_t PopcountWordsNeon(const uint64_t* words, size_t count) {
  size_t total = 0;
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const uint8_t*>(words + i));
    // 16 byte-counts, each <= 8, so the horizontal u8 sum (<= 128) fits.
    total += vaddvq_u8(vcntq_u8(v));
  }
  for (; i < count; ++i) total += PopCount64(words[i]);
  return total;
}

enum class NeonOp { kAnd, kOr, kXor, kAndNot, kNot };

template <NeonOp Op>
void WordOpNeon(uint64_t* dst, const uint64_t* src, size_t count) {
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    uint64x2_t d = vld1q_u64(dst + i);
    uint64x2_t s = Op == NeonOp::kNot ? d : vld1q_u64(src + i);
    uint64x2_t r;
    switch (Op) {
      case NeonOp::kAnd:
        r = vandq_u64(d, s);
        break;
      case NeonOp::kOr:
        r = vorrq_u64(d, s);
        break;
      case NeonOp::kXor:
        r = veorq_u64(d, s);
        break;
      case NeonOp::kAndNot:
        r = vbicq_u64(d, s);  // d & ~s
        break;
      case NeonOp::kNot:
        r = veorq_u64(d, vdupq_n_u64(~uint64_t{0}));
        break;
    }
    vst1q_u64(dst + i, r);
  }
  for (; i < count; ++i) {
    switch (Op) {
      case NeonOp::kAnd:
        dst[i] &= src[i];
        break;
      case NeonOp::kOr:
        dst[i] |= src[i];
        break;
      case NeonOp::kXor:
        dst[i] ^= src[i];
        break;
      case NeonOp::kAndNot:
        dst[i] &= ~src[i];
        break;
      case NeonOp::kNot:
        dst[i] = ~dst[i];
        break;
    }
  }
}

}  // namespace
#endif  // AB_SIMD_NEON

/// --- Dispatch ------------------------------------------------------------

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = ComputeDetectedLevel();
  return level;
}

SimdLevel ActiveSimdLevel() {
  int v = g_active_level.load(std::memory_order_acquire);
  if (v >= 0) return static_cast<SimdLevel>(v);
  SimdLevel level = DetectedSimdLevel();
  if (const char* env = std::getenv("AB_SIMD_LEVEL")) {
    SimdLevel parsed;
    if (ParseSimdLevel(env, &parsed)) level = ClampLevel(parsed);
  }
  g_active_level.store(static_cast<int>(level), std::memory_order_release);
  return level;
}

void SetSimdLevelForTesting(SimdLevel level) {
  g_active_level.store(static_cast<int>(ClampLevel(level)),
                       std::memory_order_release);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "?";
}

bool ParseSimdLevel(const char* name, SimdLevel* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    *out = SimdLevel::kScalar;
  } else if (std::strcmp(name, "sse2") == 0) {
    *out = SimdLevel::kSse2;
  } else if (std::strcmp(name, "avx2") == 0) {
    *out = SimdLevel::kAvx2;
  } else if (std::strcmp(name, "neon") == 0) {
    *out = SimdLevel::kNeon;
  } else if (std::strcmp(name, "auto") == 0) {
    *out = DetectedSimdLevel();
  } else {
    return false;
  }
  return true;
}

/// --- Kernel entry points -------------------------------------------------

size_t PopcountWords(const uint64_t* words, size_t count) {
  switch (ActiveSimdLevel()) {
#if defined(AB_SIMD_X86)
    case SimdLevel::kAvx2:
      return PopcountWordsAvx2(words, count);
#endif
#if defined(AB_SIMD_NEON)
    case SimdLevel::kNeon:
      return PopcountWordsNeon(words, count);
#endif
    default:
      return PopcountWordsScalar(words, count);
  }
}

void AndWords(uint64_t* dst, const uint64_t* src, size_t count) {
  switch (ActiveSimdLevel()) {
#if defined(AB_SIMD_X86)
    case SimdLevel::kAvx2:
      WordOpAvx2<WordOp::kAnd>(dst, src, count);
      return;
#endif
#if defined(AB_SIMD_NEON)
    case SimdLevel::kNeon:
      WordOpNeon<NeonOp::kAnd>(dst, src, count);
      return;
#endif
    default:
      for (size_t i = 0; i < count; ++i) dst[i] &= src[i];
      return;
  }
}

void OrWords(uint64_t* dst, const uint64_t* src, size_t count) {
  switch (ActiveSimdLevel()) {
#if defined(AB_SIMD_X86)
    case SimdLevel::kAvx2:
      WordOpAvx2<WordOp::kOr>(dst, src, count);
      return;
#endif
#if defined(AB_SIMD_NEON)
    case SimdLevel::kNeon:
      WordOpNeon<NeonOp::kOr>(dst, src, count);
      return;
#endif
    default:
      for (size_t i = 0; i < count; ++i) dst[i] |= src[i];
      return;
  }
}

void XorWords(uint64_t* dst, const uint64_t* src, size_t count) {
  switch (ActiveSimdLevel()) {
#if defined(AB_SIMD_X86)
    case SimdLevel::kAvx2:
      WordOpAvx2<WordOp::kXor>(dst, src, count);
      return;
#endif
#if defined(AB_SIMD_NEON)
    case SimdLevel::kNeon:
      WordOpNeon<NeonOp::kXor>(dst, src, count);
      return;
#endif
    default:
      for (size_t i = 0; i < count; ++i) dst[i] ^= src[i];
      return;
  }
}

void AndNotWords(uint64_t* dst, const uint64_t* src, size_t count) {
  switch (ActiveSimdLevel()) {
#if defined(AB_SIMD_X86)
    case SimdLevel::kAvx2:
      WordOpAvx2<WordOp::kAndNot>(dst, src, count);
      return;
#endif
#if defined(AB_SIMD_NEON)
    case SimdLevel::kNeon:
      WordOpNeon<NeonOp::kAndNot>(dst, src, count);
      return;
#endif
    default:
      for (size_t i = 0; i < count; ++i) dst[i] &= ~src[i];
      return;
  }
}

void NotWords(uint64_t* dst, size_t count) {
  switch (ActiveSimdLevel()) {
#if defined(AB_SIMD_X86)
    case SimdLevel::kAvx2:
      WordOpAvx2<WordOp::kNot>(dst, nullptr, count);
      return;
#endif
#if defined(AB_SIMD_NEON)
    case SimdLevel::kNeon:
      WordOpNeon<NeonOp::kNot>(dst, nullptr, count);
      return;
#endif
    default:
      for (size_t i = 0; i < count; ++i) dst[i] = ~dst[i];
      return;
  }
}

void GatherBits(const uint64_t* words, const uint64_t* positions,
                size_t count, uint8_t* out) {
  switch (ActiveSimdLevel()) {
#if defined(AB_SIMD_X86)
    case SimdLevel::kAvx2:
      GatherBitsAvx2(words, positions, count, out);
      return;
#endif
    default:
      GatherBitsScalar(words, positions, count, out);
      return;
  }
}

void Mix64Batch(const uint64_t* keys, size_t count, uint64_t xor_salt,
                uint64_t or_mask, uint64_t* out) {
  switch (ActiveSimdLevel()) {
#if defined(AB_SIMD_X86)
    case SimdLevel::kAvx2:
      Mix64BatchAvx2(keys, count, xor_salt, or_mask, out);
      return;
    case SimdLevel::kSse2:
      Mix64BatchSse2(keys, count, xor_salt, or_mask, out);
      return;
#endif
    default:
      for (size_t i = 0; i < count; ++i) {
        out[i] = Mix64(keys[i] ^ xor_salt) | or_mask;
      }
      return;
  }
}

void DoubleHashRounds(const uint64_t* h1, const uint64_t* h2, size_t count,
                      size_t begin, size_t end, uint64_t pos_mask,
                      uint64_t* out) {
  if (begin >= end) return;
  switch (ActiveSimdLevel()) {
#if defined(AB_SIMD_X86)
    case SimdLevel::kAvx2:
      DoubleHashRoundsAvx2(h1, h2, count, begin, end, pos_mask, out);
      return;
    case SimdLevel::kSse2:
      DoubleHashRoundsSse2(h1, h2, count, begin, end, pos_mask, out);
      return;
#endif
    default:
      DoubleHashRoundsScalar(h1, h2, count, begin, end, pos_mask, out);
      return;
  }
}

}  // namespace simd
}  // namespace util
}  // namespace abitmap
