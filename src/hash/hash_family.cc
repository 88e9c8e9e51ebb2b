#include "hash/hash_family.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "hash/sha1.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/simd.h"

namespace abitmap {
namespace hash {

uint64_t HashFamily::ProbeAt(uint64_t key, const CellRef& cell, size_t t,
                             uint64_t n) const {
  // Conservative default: recompute the prefix up to t. Families whose
  // functions are independent per index override this with O(1) work.
  uint64_t buffer[64];
  AB_CHECK_LT(t, 64u);
  Probes(key, cell, t + 1, n, buffer);
  return buffer[t];
}

void HashFamily::ProbesRange(uint64_t key, const CellRef& cell, size_t begin,
                             size_t end, uint64_t n, uint64_t* out) const {
  AB_CHECK_LE(begin, end);
  AB_CHECK_LE(end, 64u);
  if (begin == end) return;
  uint64_t buffer[64];
  Probes(key, cell, end, n, buffer);
  for (size_t t = begin; t < end; ++t) out[t - begin] = buffer[t];
}

void HashFamily::ProbesBatch(const uint64_t* keys, const CellRef* cells,
                             size_t count, size_t k, uint64_t n,
                             uint64_t* out) const {
  for (size_t i = 0; i < count; ++i) {
    Probes(keys[i], cells[i], k, n, out + i * k);
  }
}

void HashFamily::ProbesBatchRange(const uint64_t* keys, const CellRef* cells,
                                  size_t count, size_t begin, size_t end,
                                  uint64_t n, uint64_t* out) const {
  size_t width = end - begin;
  for (size_t i = 0; i < count; ++i) {
    ProbesRange(keys[i], cells[i], begin, end, n, out + i * width);
  }
}

namespace {

class IndependentFamily : public HashFamily {
 public:
  explicit IndependentFamily(std::vector<HashKind> pool)
      : pool_(std::move(pool)) {
    AB_CHECK(!pool_.empty());
  }

  void Probes(uint64_t key, const CellRef& cell, size_t k, uint64_t n,
              uint64_t* out) const override {
    AB_CHECK_GE(n, 1u);
    for (size_t t = 0; t < k; ++t) {
      out[t] = ProbeAt(key, cell, t, n);
    }
  }

  uint64_t ProbeAt(uint64_t key, const CellRef& /*cell*/, size_t t,
                   uint64_t n) const override {
    HashKind kind = pool_[t % pool_.size()];
    uint64_t h =
        (t < pool_.size()) ? HashKey(kind, key) : HashKeySalted(kind, key, t);
    // AB sizes are rounded to powers of two, so the reduction is almost
    // always a mask; h & (n-1) == h % n exactly when n is a power of two.
    return util::IsPowerOfTwo(n) ? (h & (n - 1)) : h % n;
  }

  void ProbesBatch(const uint64_t* keys, const CellRef* cells, size_t count,
                   size_t k, uint64_t n, uint64_t* out) const override {
    IndependentFamily::ProbesBatchRange(keys, cells, count, 0, k, n, out);
  }

  void ProbesBatchRange(const uint64_t* keys, const CellRef* /*cells*/,
                        size_t count, size_t begin, size_t end, uint64_t n,
                        uint64_t* out) const override {
    AB_CHECK_GE(n, 1u);
    size_t width = end - begin;
    const bool pow2 = util::IsPowerOfTwo(n);
    const uint64_t mask = n - 1;
    // Render each key's decimal hash string once and feed it to every pool
    // member directly — no per-probe virtual dispatch, no memo lookups.
    char buf[20];
    for (size_t i = 0; i < count; ++i) {
      size_t len = RenderKeyDecimal(keys[i], buf);
      uint64_t* row = out + i * width;
      for (size_t t = begin; t < end; ++t) {
        HashKind kind = pool_[t % pool_.size()];
        uint64_t h = (t < pool_.size())
                         ? HashBytes(kind, buf, len)
                         : HashRenderedSalted(kind, buf, len, t);
        row[t - begin] = pow2 ? (h & mask) : h % n;
      }
    }
  }

  std::string name() const override { return "independent"; }

 private:
  std::vector<HashKind> pool_;
};

class Sha1Family : public HashFamily {
 public:
  void Probes(uint64_t key, const CellRef& cell, size_t k, uint64_t n,
              uint64_t* out) const override {
    Sha1Family::ProbesRange(key, cell, 0, k, n, out);
  }

  // One digest covers a whole run of probe indices; computing per-index
  // would redo the digest each time.
  bool PrefersLazyProbes() const override { return false; }

  size_t ProbesPerChunk(size_t k, uint64_t n) const override {
    size_t m = static_cast<size_t>(util::Log2Floor(n));
    if (m == 0) return k;
    // floor(160/m) partial values per digest (Table 1 uses k=10, m=16:
    // one digest).
    return std::max<size_t>(Sha1::kDigestBytes * 8 / m, 1);
  }

  /// Digest blocks are keyed by (key, block-counter), not chained, so a
  /// slice of the probe sequence needs only the blocks it overlaps — the
  /// early-exit membership loop fetches one digest's worth of probes at a
  /// time and never computes a block it does not consume.
  void ProbesRange(uint64_t key, const CellRef& /*cell*/, size_t begin,
                   size_t end, uint64_t n, uint64_t* out) const override {
    AB_CHECK(util::IsPowerOfTwo(n));
    AB_CHECK_LE(begin, end);
    size_t m = static_cast<size_t>(util::Log2Floor(n));
    if (m == 0) {
      for (size_t t = begin; t < end; ++t) out[t - begin] = 0;
      return;
    }
    size_t per_digest = Sha1::kDigestBytes * 8 / m;
    AB_CHECK_GE(per_digest, 1u);
    Sha1::Digest digest;
    uint64_t loaded_block = ~uint64_t{0};
    for (size_t t = begin; t < end; ++t) {
      uint64_t block = t / per_digest;
      if (block != loaded_block) {
        if (block == 0) {
          digest = Sha1::Hash(&key, sizeof(key));
        } else {
          uint8_t buf[16];
          std::memcpy(buf, &key, 8);
          std::memcpy(buf + 8, &block, 8);
          digest = Sha1::Hash(buf, sizeof(buf));
        }
        loaded_block = block;
      }
      out[t - begin] = DigestBits(digest, (t % per_digest) * m, m);
    }
  }

  void ProbesBatch(const uint64_t* keys, const CellRef* cells, size_t count,
                   size_t k, uint64_t n, uint64_t* out) const override {
    // One digest per key is already the scalar cost; the override just
    // keeps the inner calls non-virtual.
    for (size_t i = 0; i < count; ++i) {
      Sha1Family::ProbesRange(keys[i], cells[i], 0, k, n, out + i * k);
    }
  }

  void ProbesBatchRange(const uint64_t* keys, const CellRef* cells,
                        size_t count, size_t begin, size_t end, uint64_t n,
                        uint64_t* out) const override {
    size_t width = end - begin;
    for (size_t i = 0; i < count; ++i) {
      Sha1Family::ProbesRange(keys[i], cells[i], begin, end, n,
                              out + i * width);
    }
  }

  std::string name() const override { return "sha1"; }
};

class DoubleHashFamily : public HashFamily {
 public:
  void Probes(uint64_t key, const CellRef& /*cell*/, size_t k, uint64_t n,
              uint64_t* out) const override {
    AB_CHECK_GE(n, 1u);
    uint64_t h1 = Mix64(key);
    uint64_t h2 = SecondHash(key);
    for (size_t t = 0; t < k; ++t) {
      out[t] = (h1 + t * h2) % n;
    }
  }

  uint64_t ProbeAt(uint64_t key, const CellRef& /*cell*/, size_t t,
                   uint64_t n) const override {
    return (Mix64(key) + t * SecondHash(key)) % n;
  }

  void ProbesBatch(const uint64_t* keys, const CellRef* cells, size_t count,
                   size_t k, uint64_t n, uint64_t* out) const override {
    DoubleHashFamily::ProbesBatchRange(keys, cells, count, 0, k, n, out);
  }

  void ProbesBatchRange(const uint64_t* keys, const CellRef* /*cells*/,
                        size_t count, size_t begin, size_t end, uint64_t n,
                        uint64_t* out) const override {
    AB_CHECK_GE(n, 1u);
    size_t width = end - begin;
    if (width == 0) return;
    // Vector path: both mixes lane-parallel, then the probe windows as a
    // running (h1 + t*h2) & (n-1). Exact for power-of-two n because the
    // wrapped 64-bit sum masked by n-1 equals the scalar `% n`.
    if (util::IsPowerOfTwo(n) && util::simd::ActiveSimdLevel() !=
                                     util::simd::SimdLevel::kScalar) {
      constexpr size_t kChunk = 64;
      uint64_t h1[kChunk];
      uint64_t h2[kChunk];
      for (size_t i = 0; i < count; i += kChunk) {
        size_t c = std::min(kChunk, count - i);
        util::simd::Mix64Batch(keys + i, c, 0, 0, h1);
        util::simd::Mix64Batch(keys + i, c, kSecondSalt, 1, h2);
        util::simd::DoubleHashRounds(h1, h2, c, begin, end, n - 1,
                                     out + i * width);
      }
      return;
    }
    // Two mixes per key, amortized over the requested rounds.
    for (size_t i = 0; i < count; ++i) {
      uint64_t h1 = Mix64(keys[i]);
      uint64_t h2 = SecondHash(keys[i]);
      uint64_t* row = out + i * width;
      for (size_t t = begin; t < end; ++t) {
        row[t - begin] = (h1 + t * h2) % n;
      }
    }
  }

  std::string name() const override { return "double"; }

 private:
  static constexpr uint64_t kSecondSalt = 0x6A09E667F3BCC909ull;

  // Forced odd so probes cycle through all residues when n is a power of
  // two.
  static uint64_t SecondHash(uint64_t key) {
    return Mix64(key ^ kSecondSalt) | 1u;
  }
};

class CircularFamily : public HashFamily {
 public:
  void Probes(uint64_t key, const CellRef& cell, size_t k, uint64_t n,
              uint64_t* out) const override {
    AB_CHECK_GE(n, 1u);
    for (size_t t = 0; t < k; ++t) {
      out[t] = ProbeAt(key, cell, t, n);
    }
  }

  uint64_t ProbeAt(uint64_t key, const CellRef& /*cell*/, size_t t,
                   uint64_t n) const override {
    return (key * (2 * t + 1) + t) % n;
  }

  void ProbesBatch(const uint64_t* keys, const CellRef* cells, size_t count,
                   size_t k, uint64_t n, uint64_t* out) const override {
    CircularFamily::ProbesBatchRange(keys, cells, count, 0, k, n, out);
  }

  void ProbesBatchRange(const uint64_t* keys, const CellRef* /*cells*/,
                        size_t count, size_t begin, size_t end, uint64_t n,
                        uint64_t* out) const override {
    AB_CHECK_GE(n, 1u);
    size_t width = end - begin;
    for (size_t i = 0; i < count; ++i) {
      for (size_t t = begin; t < end; ++t) {
        out[i * width + (t - begin)] = (keys[i] * (2 * t + 1) + t) % n;
      }
    }
  }

  std::string name() const override { return "circular"; }
};

class ColumnGroupFamily : public HashFamily {
 public:
  explicit ColumnGroupFamily(uint32_t num_groups) : num_groups_(num_groups) {
    AB_CHECK_GE(num_groups_, 1u);
  }

  void Probes(uint64_t key, const CellRef& cell, size_t k, uint64_t n,
              uint64_t* out) const override {
    for (size_t t = 0; t < k; ++t) {
      out[t] = ProbeAt(key, cell, t, n);
    }
  }

  uint64_t ProbeAt(uint64_t /*key*/, const CellRef& cell, size_t t,
                   uint64_t n) const override {
    AB_CHECK_GE(n, num_groups_);
    uint64_t group_size = n / num_groups_;
    uint64_t base = (cell.col % num_groups_) * group_size;
    uint64_t offset =
        (t == 0) ? cell.row % group_size : Mix64(cell.row + t) % group_size;
    return base + offset;
  }

  void ProbesBatch(const uint64_t* keys, const CellRef* cells, size_t count,
                   size_t k, uint64_t n, uint64_t* out) const override {
    ColumnGroupFamily::ProbesBatchRange(keys, cells, count, 0, k, n, out);
  }

  void ProbesBatchRange(const uint64_t* keys, const CellRef* cells,
                        size_t count, size_t begin, size_t end, uint64_t n,
                        uint64_t* out) const override {
    size_t width = end - begin;
    for (size_t i = 0; i < count; ++i) {
      for (size_t t = begin; t < end; ++t) {
        out[i * width + (t - begin)] =
            ColumnGroupFamily::ProbeAt(keys[i], cells[i], t, n);
      }
    }
  }

  std::string name() const override { return "column_group"; }

 private:
  uint32_t num_groups_;
};

class SingleKindFamily : public HashFamily {
 public:
  explicit SingleKindFamily(HashKind kind) : kind_(kind) {}

  void Probes(uint64_t key, const CellRef& cell, size_t k, uint64_t n,
              uint64_t* out) const override {
    AB_CHECK_GE(n, 1u);
    for (size_t t = 0; t < k; ++t) {
      out[t] = ProbeAt(key, cell, t, n);
    }
  }

  uint64_t ProbeAt(uint64_t key, const CellRef& /*cell*/, size_t t,
                   uint64_t n) const override {
    uint64_t h = (t == 0) ? HashKey(kind_, key) : HashKeySalted(kind_, key, t);
    return h % n;
  }

  void ProbesBatch(const uint64_t* keys, const CellRef* cells, size_t count,
                   size_t k, uint64_t n, uint64_t* out) const override {
    SingleKindFamily::ProbesBatchRange(keys, cells, count, 0, k, n, out);
  }

  void ProbesBatchRange(const uint64_t* keys, const CellRef* /*cells*/,
                        size_t count, size_t begin, size_t end, uint64_t n,
                        uint64_t* out) const override {
    AB_CHECK_GE(n, 1u);
    char buf[20];
    size_t width = end - begin;
    for (size_t i = 0; i < count; ++i) {
      size_t len = RenderKeyDecimal(keys[i], buf);
      for (size_t t = begin; t < end; ++t) {
        uint64_t h = (t == 0) ? HashBytes(kind_, buf, len)
                              : HashRenderedSalted(kind_, buf, len, t);
        out[i * width + (t - begin)] = h % n;
      }
    }
  }

  std::string name() const override {
    return std::string("single_") + HashKindName(kind_);
  }

 private:
  HashKind kind_;
};

}  // namespace

std::unique_ptr<HashFamily> MakeIndependentFamily() {
  // The default pool is the subset of the general-purpose library whose
  // output is near-Poisson under a power-of-two modulo on the AB's
  // decimal-string keys (measured in tests/hash/general_hashes_test.cc).
  // PJW/ELF pack entropy into high bits, DEK's rotate-xor and SDBM's
  // small effective multiplier leave heavy structure on digit strings;
  // all four remain available via MakeSingleKindFamily for the Figure 10
  // hash-impact study.
  return std::make_unique<IndependentFamily>(std::vector<HashKind>{
      HashKind::kRS, HashKind::kJS, HashKind::kBKDR, HashKind::kDJB,
      HashKind::kFNV, HashKind::kAP});
}

std::unique_ptr<HashFamily> MakeIndependentFamily(std::vector<HashKind> pool) {
  return std::make_unique<IndependentFamily>(std::move(pool));
}

std::unique_ptr<HashFamily> MakeSha1Family() {
  return std::make_unique<Sha1Family>();
}

std::unique_ptr<HashFamily> MakeDoubleHashFamily() {
  return std::make_unique<DoubleHashFamily>();
}

std::unique_ptr<HashFamily> MakeCircularFamily() {
  return std::make_unique<CircularFamily>();
}

std::unique_ptr<HashFamily> MakeColumnGroupFamily(uint32_t num_groups) {
  return std::make_unique<ColumnGroupFamily>(num_groups);
}

std::unique_ptr<HashFamily> MakeSingleKindFamily(HashKind kind) {
  return std::make_unique<SingleKindFamily>(kind);
}

}  // namespace hash
}  // namespace abitmap
