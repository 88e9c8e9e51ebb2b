#include "core/counting_bitmap.h"

#include <atomic>
#include <utility>

namespace abitmap {
namespace ab {

namespace {
constexpr int kMaxHashFunctions = 64;
constexpr uint8_t kSaturated = 15;
}  // namespace

CountingApproximateBitmap::CountingApproximateBitmap(
    const AbParams& params, std::shared_ptr<const hash::HashFamily> family)
    : num_counters_(params.n_bits),
      k_(params.k),
      family_(std::move(family)),
      counters_((params.n_bits + 1) / 2, 0) {
  AB_CHECK_GE(num_counters_, 8u);
  AB_CHECK_GE(k_, 1);
  AB_CHECK_LE(k_, kMaxHashFunctions);
  AB_CHECK(family_ != nullptr);
}

void CountingApproximateBitmap::Insert(uint64_t key,
                                       const hash::CellRef& cell) {
  uint64_t probes[kMaxHashFunctions];
  family_->Probes(key, cell, k_, num_counters_, probes);
  for (int t = 0; t < k_; ++t) {
    uint8_t c = Counter(probes[t]);
    if (c < kSaturated) SetCounter(probes[t], c + 1);
  }
  ++live_;
}

void CountingApproximateBitmap::Remove(uint64_t key,
                                       const hash::CellRef& cell) {
  uint64_t probes[kMaxHashFunctions];
  family_->Probes(key, cell, k_, num_counters_, probes);
  for (int t = 0; t < k_; ++t) {
    uint8_t c = Counter(probes[t]);
    // Underflow means the caller removed something never inserted; that
    // would silently poison the filter with false negatives, so abort.
    AB_CHECK_GE(c, 1);
    // Saturated counters are sticky: the true count may exceed 15.
    if (c < kSaturated) SetCounter(probes[t], c - 1);
  }
  AB_CHECK_GE(live_, 1u);
  --live_;
}

bool CountingApproximateBitmap::Test(uint64_t key,
                                     const hash::CellRef& cell) const {
  if (family_->PrefersLazyProbes()) {
    for (int t = 0; t < k_; ++t) {
      if (Counter(family_->ProbeAt(key, cell, t, num_counters_)) == 0) {
        return false;
      }
    }
    return true;
  }
  uint64_t probes[kMaxHashFunctions];
  family_->Probes(key, cell, k_, num_counters_, probes);
  for (int t = 0; t < k_; ++t) {
    if (Counter(probes[t]) == 0) return false;
  }
  return true;
}

namespace {

// Atomic nibble accessors over the packed counter bytes. The
// single-writer contract (see header) means read-modify-write does not
// need an atomic RMW instruction — a load + store of the byte is
// race-free against the other writer-side nibble because there is no
// other writer, and race-defined against concurrent readers. The writer
// stores with release and TestAtomic loads with acquire: the ordering the
// caller's seqlock rests on.
inline uint8_t LoadCounter(const std::vector<uint8_t>& bytes, uint64_t idx,
                           std::memory_order order) {
  // atomic_ref<const T> only lands in C++26; the const_cast is sound
  // because the referenced byte is never actually written through here.
  uint8_t byte = std::atomic_ref<uint8_t>(
                     const_cast<uint8_t&>(bytes[idx >> 1]))
                     .load(order);
  return (idx & 1) ? (byte >> 4) : (byte & 0x0F);
}

inline void StoreCounterRelease(std::vector<uint8_t>& bytes, uint64_t idx,
                                uint8_t value) {
  AB_DCHECK(value <= 15);
  std::atomic_ref<uint8_t> ref(bytes[idx >> 1]);
  uint8_t byte = ref.load(std::memory_order_relaxed);
  if (idx & 1) {
    byte = static_cast<uint8_t>((byte & 0x0F) | (value << 4));
  } else {
    byte = static_cast<uint8_t>((byte & 0xF0) | value);
  }
  ref.store(byte, std::memory_order_release);
}

}  // namespace

void CountingApproximateBitmap::InsertAtomic(uint64_t key,
                                             const hash::CellRef& cell) {
  uint64_t probes[kMaxHashFunctions];
  family_->Probes(key, cell, k_, num_counters_, probes);
  for (int t = 0; t < k_; ++t) {
    uint8_t c = LoadCounter(counters_, probes[t], std::memory_order_relaxed);
    if (c < kSaturated) StoreCounterRelease(counters_, probes[t], c + 1);
  }
  std::atomic_ref<uint64_t> live(live_);
  live.store(live.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
}

void CountingApproximateBitmap::RemoveAtomic(uint64_t key,
                                             const hash::CellRef& cell) {
  uint64_t probes[kMaxHashFunctions];
  family_->Probes(key, cell, k_, num_counters_, probes);
  for (int t = 0; t < k_; ++t) {
    uint8_t c = LoadCounter(counters_, probes[t], std::memory_order_relaxed);
    AB_CHECK_GE(c, 1);
    // Saturated counters are sticky, same rule as Remove.
    if (c < kSaturated) StoreCounterRelease(counters_, probes[t], c - 1);
  }
  std::atomic_ref<uint64_t> live(live_);
  uint64_t n = live.load(std::memory_order_relaxed);
  AB_CHECK_GE(n, 1u);
  live.store(n - 1, std::memory_order_relaxed);
}

bool CountingApproximateBitmap::TestAtomic(uint64_t key,
                                           const hash::CellRef& cell) const {
  if (family_->PrefersLazyProbes()) {
    for (int t = 0; t < k_; ++t) {
      if (LoadCounter(counters_, family_->ProbeAt(key, cell, t, num_counters_),
                      std::memory_order_acquire) == 0) {
        return false;
      }
    }
    return true;
  }
  uint64_t probes[kMaxHashFunctions];
  family_->Probes(key, cell, k_, num_counters_, probes);
  for (int t = 0; t < k_; ++t) {
    if (LoadCounter(counters_, probes[t], std::memory_order_acquire) == 0) {
      return false;
    }
  }
  return true;
}

uint64_t CountingApproximateBitmap::LiveRelaxed() const {
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(live_))
      .load(std::memory_order_relaxed);
}

double CountingApproximateBitmap::ExpectedFalsePositiveRate() const {
  return FalsePositiveRateExact(num_counters_, LiveRelaxed(), k_);
}

CountingApproximateBitmap CountingApproximateBitmap::EmptyClone() const {
  AbParams params;
  params.n_bits = num_counters_;
  params.k = k_;
  return CountingApproximateBitmap(params, family_);
}

void CountingApproximateBitmap::MergeSaturating(
    const CountingApproximateBitmap& other) {
  AB_CHECK_EQ(num_counters_, other.num_counters_);
  AB_CHECK_EQ(k_, other.k_);
  AB_CHECK(family_->name() == other.family_->name());
  // Byte-wise: each byte packs two independent 4-bit counters, and the
  // nibble sums (max 15 + 15 = 30) cannot carry across the nibble
  // boundary of the widened arithmetic below.
  for (size_t i = 0; i < counters_.size(); ++i) {
    uint8_t a = counters_[i];
    uint8_t b = other.counters_[i];
    uint8_t lo = static_cast<uint8_t>((a & 0x0F) + (b & 0x0F));
    if (lo > kSaturated) lo = kSaturated;
    uint8_t hi = static_cast<uint8_t>((a >> 4) + (b >> 4));
    if (hi > kSaturated) hi = kSaturated;
    counters_[i] = static_cast<uint8_t>(lo | (hi << 4));
  }
  live_ += other.live_;
}

double CountingApproximateBitmap::FillRatio() const {
  uint64_t nonzero = 0;
  for (uint64_t i = 0; i < num_counters_; ++i) {
    if (Counter(i) != 0) ++nonzero;
  }
  return static_cast<double>(nonzero) / static_cast<double>(num_counters_);
}

}  // namespace ab
}  // namespace abitmap
