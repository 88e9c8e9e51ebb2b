#include "roaring/container.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "util/simd.h"

namespace abitmap {
namespace roaring {

namespace {

/// Galloping override (see SetGallopForTesting): -1 heuristic, 0 linear,
/// 1 always gallop. Relaxed atomics: tests set it from single-threaded
/// setup, queries only read it.
std::atomic<int> g_gallop_force{-1};

bool UseGallop(size_t small, size_t large) {
  int force = g_gallop_force.load(std::memory_order_relaxed);
  if (force == 0) return false;
  if (force == 1) return true;
  return large / Container::kGallopRatio > small;
}

/// First index in values[lo..count) with values[idx] >= target, found by
/// exponential search from lo: doubling probes until the value is
/// bracketed, then binary search inside the bracket. O(log distance) —
/// the "galloping" step that makes skewed intersections cheap.
size_t GallopLowerBound(const uint16_t* values, size_t count, size_t lo,
                        uint16_t target) {
  if (lo >= count || values[lo] >= target) return lo;
  size_t step = 1;
  size_t prev = lo;
  size_t probe = lo + 1;
  while (probe < count && values[probe] < target) {
    prev = probe;
    step <<= 1;
    probe = lo + step;
  }
  size_t hi = probe < count ? probe : count;
  // values[prev] < target <= values[hi] (if hi < count).
  return static_cast<size_t>(
      std::lower_bound(values + prev + 1, values + hi, target) - values);
}

/// Linear merge intersection of two sorted arrays.
size_t IntersectLinear(const uint16_t* a, size_t na, const uint16_t* b,
                       size_t nb, uint16_t* out) {
  size_t i = 0, j = 0, n = 0;
  while (i < na && j < nb) {
    uint16_t va = a[i], vb = b[j];
    if (va == vb) {
      out[n++] = va;
      ++i;
      ++j;
    } else if (va < vb) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

/// Galloping intersection: steps through the smaller array, exponential-
/// searching each value's position in the larger one. `a` must be the
/// smaller array.
size_t IntersectGallop(const uint16_t* a, size_t na, const uint16_t* b,
                       size_t nb, uint16_t* out) {
  size_t j = 0, n = 0;
  for (size_t i = 0; i < na; ++i) {
    j = GallopLowerBound(b, nb, j, a[i]);
    if (j == nb) break;
    if (b[j] == a[i]) {
      out[n++] = a[i];
      ++j;
    }
  }
  return n;
}

size_t IntersectArrays(const uint16_t* a, size_t na, const uint16_t* b,
                       size_t nb, uint16_t* out) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (UseGallop(na, nb)) return IntersectGallop(a, na, b, nb, out);
  return IntersectLinear(a, na, b, nb, out);
}

}  // namespace

const char* ContainerKindName(ContainerKind kind) {
  switch (kind) {
    case ContainerKind::kArray:
      return "array";
    case ContainerKind::kBitset:
      return "bitset";
    case ContainerKind::kRun:
      return "run";
  }
  return "?";
}

void Container::SetGallopForTesting(int force) {
  g_gallop_force.store(force, std::memory_order_relaxed);
}

Container Container::FromWords(const uint64_t* words, size_t num_words) {
  AB_CHECK_LE(num_words, static_cast<size_t>(kBitsetWords));
  Container c;
  size_t card = util::simd::PopcountWords(words, num_words);
  c.cardinality_ = static_cast<uint32_t>(card);
  if (card > kArrayMax) {
    c.kind_ = ContainerKind::kBitset;
    c.words_.assign(kBitsetWords, 0);
    std::memcpy(c.words_.data(), words, num_words * sizeof(uint64_t));
  } else {
    c.kind_ = ContainerKind::kArray;
    c.array_.reserve(card);
    for (size_t w = 0; w < num_words; ++w) {
      uint64_t word = words[w];
      while (word != 0) {
        int bit = util::simd::CountTrailingZeros64(word);
        c.array_.push_back(static_cast<uint16_t>(w * 64 + bit));
        word &= word - 1;
      }
    }
  }
  return c;
}

Container Container::FromSortedValues(const uint16_t* values, size_t count) {
  Container c;
  if (count > kArrayMax) {
    c.kind_ = ContainerKind::kBitset;
    c.words_.assign(kBitsetWords, 0);
    for (size_t i = 0; i < count; ++i) {
      c.words_[values[i] >> 6] |= uint64_t{1} << (values[i] & 63);
    }
  } else {
    c.array_.assign(values, values + count);
  }
  c.cardinality_ = static_cast<uint32_t>(count);
  return c;
}

Container Container::FullRange(uint32_t n) {
  AB_CHECK_GE(n, 1u);
  AB_CHECK_LE(n, kCapacity);
  Container c;
  c.kind_ = ContainerKind::kRun;
  c.cardinality_ = n;
  c.array_ = {0, static_cast<uint16_t>(n - 1)};
  return c;
}

void Container::AppendOrdered(uint16_t value) {
  AB_DCHECK(kind_ != ContainerKind::kRun);
  AB_DCHECK(cardinality_ == 0 || kind_ == ContainerKind::kBitset ||
            array_.back() < value);
  if (kind_ == ContainerKind::kArray) {
    if (cardinality_ < kArrayMax) {
      array_.push_back(value);
      ++cardinality_;
      return;
    }
    ConvertToBitset();
  }
  words_[value >> 6] |= uint64_t{1} << (value & 63);
  ++cardinality_;
}

bool Container::Get(uint16_t value) const {
  switch (kind_) {
    case ContainerKind::kArray:
      return std::binary_search(array_.begin(), array_.end(), value);
    case ContainerKind::kBitset:
      return (words_[value >> 6] >> (value & 63)) & 1u;
    case ContainerKind::kRun: {
      // Last run starting at or before `value`.
      size_t lo = 0, hi = array_.size() / 2;
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (array_[mid * 2] <= value) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == 0) return false;
      uint32_t start = array_[(lo - 1) * 2];
      uint32_t len = array_[(lo - 1) * 2 + 1];
      return value <= start + len;
    }
  }
  return false;
}

uint32_t Container::NextSet(uint32_t from) const {
  if (from >= kCapacity) return kNoValue;
  switch (kind_) {
    case ContainerKind::kArray: {
      auto it = std::lower_bound(array_.begin(), array_.end(),
                                 static_cast<uint16_t>(from));
      return it == array_.end() ? kNoValue : *it;
    }
    case ContainerKind::kBitset: {
      size_t w = from >> 6;
      uint64_t word = words_[w] & (~uint64_t{0} << (from & 63));
      while (true) {
        if (word != 0) {
          return static_cast<uint32_t>(
              w * 64 + util::simd::CountTrailingZeros64(word));
        }
        if (++w == kBitsetWords) return kNoValue;
        word = words_[w];
      }
    }
    case ContainerKind::kRun: {
      for (size_t r = 0; r < array_.size(); r += 2) {
        uint32_t start = array_[r];
        uint32_t end = start + array_[r + 1];
        if (from <= end) return std::max(from, start);
      }
      return kNoValue;
    }
  }
  return kNoValue;
}

size_t Container::SizeInBytes() const {
  switch (kind_) {
    case ContainerKind::kArray:
    case ContainerKind::kRun:
      return array_.size() * sizeof(uint16_t);
    case ContainerKind::kBitset:
      return words_.size() * sizeof(uint64_t);
  }
  return 0;
}

uint32_t Container::CountRuns() const {
  switch (kind_) {
    case ContainerKind::kRun:
      return static_cast<uint32_t>(array_.size() / 2);
    case ContainerKind::kArray: {
      uint32_t runs = 0;
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i == 0 || array_[i] != array_[i - 1] + 1) ++runs;
      }
      return runs;
    }
    case ContainerKind::kBitset: {
      // A run starts at every set bit whose predecessor is clear:
      // popcount(x & ~(x << 1)), with the carry bit threaded across words.
      uint32_t runs = 0;
      uint64_t carry = 0;  // bit 63 of the previous word
      for (size_t w = 0; w < kBitsetWords; ++w) {
        uint64_t x = words_[w];
        runs += static_cast<uint32_t>(
            util::simd::PopCount64(x & ~((x << 1) | carry)));
        carry = x >> 63;
      }
      return runs;
    }
  }
  return 0;
}

void Container::Optimize() {
  if (kind_ == ContainerKind::kRun) return;  // already chosen as smallest
  uint32_t runs = CountRuns();
  size_t run_bytes = size_t{runs} * 4;
  size_t flat_bytes = cardinality_ > kArrayMax
                          ? size_t{kBitsetWords} * 8
                          : size_t{cardinality_} * 2;
  if (run_bytes < flat_bytes) {
    ConvertToRuns(runs);
  }
}

void Container::ConvertToRuns(uint32_t num_runs) {
  std::vector<uint16_t> runs;
  runs.reserve(size_t{num_runs} * 2);
  if (kind_ == ContainerKind::kArray) {
    for (size_t i = 0; i < array_.size();) {
      size_t j = i + 1;
      while (j < array_.size() && array_[j] == array_[j - 1] + 1) ++j;
      runs.push_back(array_[i]);
      runs.push_back(static_cast<uint16_t>(array_[j - 1] - array_[i]));
      i = j;
    }
  } else {
    uint32_t pos = NextSet(0);
    while (pos != kNoValue) {
      uint32_t end = pos;
      while (end + 1 < kCapacity && Get(static_cast<uint16_t>(end + 1))) ++end;
      runs.push_back(static_cast<uint16_t>(pos));
      runs.push_back(static_cast<uint16_t>(end - pos));
      pos = end + 1 >= kCapacity ? kNoValue : NextSet(end + 1);
    }
  }
  array_ = std::move(runs);
  words_.clear();
  words_.shrink_to_fit();
  kind_ = ContainerKind::kRun;
}

void Container::ExpandRuns() {
  AB_DCHECK(kind_ == ContainerKind::kRun);
  std::vector<uint16_t> runs = std::move(array_);
  array_.clear();
  if (cardinality_ > kArrayMax) {
    kind_ = ContainerKind::kBitset;
    words_.assign(kBitsetWords, 0);
    for (size_t r = 0; r < runs.size(); r += 2) {
      uint32_t start = runs[r];
      uint32_t end = start + runs[r + 1];
      for (uint32_t v = start; v <= end; ++v) {
        words_[v >> 6] |= uint64_t{1} << (v & 63);
      }
    }
  } else {
    kind_ = ContainerKind::kArray;
    array_.reserve(cardinality_);
    for (size_t r = 0; r < runs.size(); r += 2) {
      uint32_t start = runs[r];
      uint32_t end = start + runs[r + 1];
      for (uint32_t v = start; v <= end; ++v) {
        array_.push_back(static_cast<uint16_t>(v));
      }
    }
  }
}

void Container::ConvertToBitset() {
  AB_DCHECK(kind_ == ContainerKind::kArray);
  words_.assign(kBitsetWords, 0);
  for (uint16_t v : array_) {
    words_[v >> 6] |= uint64_t{1} << (v & 63);
  }
  array_.clear();
  array_.shrink_to_fit();
  kind_ = ContainerKind::kBitset;
}

void Container::ConvertToArray() {
  AB_DCHECK(kind_ == ContainerKind::kBitset);
  std::vector<uint16_t> values;
  values.reserve(cardinality_);
  for (size_t w = 0; w < kBitsetWords; ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      int bit = util::simd::CountTrailingZeros64(word);
      values.push_back(static_cast<uint16_t>(w * 64 + bit));
      word &= word - 1;
    }
  }
  array_ = std::move(values);
  words_.clear();
  words_.shrink_to_fit();
  kind_ = ContainerKind::kArray;
}

void Container::Normalize() {
  if (kind_ == ContainerKind::kBitset && cardinality_ <= kArrayMax) {
    ConvertToArray();
  } else if (kind_ == ContainerKind::kArray && cardinality_ > kArrayMax) {
    ConvertToBitset();
  }
}

void Container::AppendTo(util::BitVector* out, uint64_t base) const {
  switch (kind_) {
    case ContainerKind::kArray:
      for (uint16_t v : array_) out->Set(base + v);
      break;
    case ContainerKind::kBitset: {
      for (size_t w = 0; w < kBitsetWords; ++w) {
        uint64_t word = words_[w];
        while (word != 0) {
          int bit = util::simd::CountTrailingZeros64(word);
          out->Set(base + w * 64 + bit);
          word &= word - 1;
        }
      }
      break;
    }
    case ContainerKind::kRun:
      for (size_t r = 0; r < array_.size(); r += 2) {
        uint32_t start = array_[r];
        uint32_t end = start + array_[r + 1];
        for (uint32_t v = start; v <= end; ++v) out->Set(base + v);
      }
      break;
  }
}

std::vector<uint16_t> Container::ToArray() const {
  switch (kind_) {
    case ContainerKind::kArray:
      return array_;
    case ContainerKind::kBitset: {
      Container copy = *this;
      copy.ConvertToArray();
      return copy.array_;
    }
    case ContainerKind::kRun: {
      std::vector<uint16_t> values;
      values.reserve(cardinality_);
      for (size_t r = 0; r < array_.size(); r += 2) {
        uint32_t start = array_[r];
        uint32_t end = start + array_[r + 1];
        for (uint32_t v = start; v <= end; ++v) {
          values.push_back(static_cast<uint16_t>(v));
        }
      }
      return values;
    }
  }
  return {};
}

bool Container::operator==(const Container& other) const {
  if (cardinality_ != other.cardinality_) return false;
  if (kind_ == other.kind_) {
    return kind_ == ContainerKind::kBitset ? words_ == other.words_
                                           : array_ == other.array_;
  }
  return ToArray() == other.ToArray();
}

namespace {

/// ORs the values of a flattened (start, length-1) run list that fall in
/// words [first_word, first_word + num_words) into `words`, indexed from
/// first_word, setting whole words for the interior of long runs.
void RunsToWords(const std::vector<uint16_t>& runs, uint64_t* words,
                 uint32_t first_word = 0,
                 uint32_t num_words = Container::kBitsetWords) {
  uint32_t lo = first_word * 64;
  uint32_t hi = (first_word + num_words) * 64 - 1;  // inclusive
  // First run whose last value reaches the window.
  size_t lo_run = 0, hi_run = runs.size() / 2;
  while (lo_run < hi_run) {
    size_t mid = (lo_run + hi_run) / 2;
    if (uint32_t{runs[mid * 2]} + runs[mid * 2 + 1] < lo) {
      lo_run = mid + 1;
    } else {
      hi_run = mid;
    }
  }
  for (size_t r = lo_run * 2; r < runs.size() && runs[r] <= hi; r += 2) {
    uint32_t start = std::max<uint32_t>(runs[r], lo) - lo;
    uint32_t last = std::min<uint32_t>(runs[r] + runs[r + 1], hi) - lo;
    size_t w0 = start >> 6, w1 = last >> 6;
    uint64_t first_mask = ~uint64_t{0} << (start & 63);
    uint64_t last_mask = ~uint64_t{0} >> (63 - (last & 63));
    if (w0 == w1) {
      words[w0] |= first_mask & last_mask;
    } else {
      words[w0] |= first_mask;
      for (size_t w = w0 + 1; w < w1; ++w) words[w] = ~uint64_t{0};
      words[w1] |= last_mask;
    }
  }
}

/// Appends run [start, last] to a flattened run list, coalescing with the
/// previous run when adjacent or overlapping. Returns added cardinality.
uint32_t AppendRun(std::vector<uint16_t>* runs, uint32_t start,
                   uint32_t last) {
  if (!runs->empty()) {
    uint32_t prev_start = (*runs)[runs->size() - 2];
    uint32_t prev_last = prev_start + runs->back();
    if (start <= prev_last + 1) {  // merge
      if (last <= prev_last) return 0;
      runs->back() = static_cast<uint16_t>(last - prev_start);
      return last - prev_last;
    }
  }
  runs->push_back(static_cast<uint16_t>(start));
  runs->push_back(static_cast<uint16_t>(last - start));
  return last - start + 1;
}

/// Native run-vs-run intersection: walks both sorted run lists, emitting
/// the overlap of each crossing pair. O(runs_a + runs_b).
std::vector<uint16_t> IntersectRunLists(const std::vector<uint16_t>& a,
                                        const std::vector<uint16_t>& b,
                                        uint32_t* cardinality) {
  std::vector<uint16_t> out;
  *cardinality = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    uint32_t sa = a[i], la = sa + a[i + 1];
    uint32_t sb = b[j], lb = sb + b[j + 1];
    uint32_t s = std::max(sa, sb);
    uint32_t l = std::min(la, lb);
    if (s <= l) *cardinality += AppendRun(&out, s, l);
    // Advance whichever run ends first.
    if (la <= lb) {
      i += 2;
    } else {
      j += 2;
    }
  }
  return out;
}

/// Native run-vs-run union. O(runs_a + runs_b).
std::vector<uint16_t> UnionRunLists(const std::vector<uint16_t>& a,
                                    const std::vector<uint16_t>& b,
                                    uint32_t* cardinality) {
  std::vector<uint16_t> out;
  *cardinality = 0;
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    bool take_a = j >= b.size() || (i < a.size() && a[i] <= b[j]);
    if (take_a) {
      *cardinality += AppendRun(&out, a[i], uint32_t{a[i]} + a[i + 1]);
      i += 2;
    } else {
      *cardinality += AppendRun(&out, b[j], uint32_t{b[j]} + b[j + 1]);
      j += 2;
    }
  }
  return out;
}

/// Native run-vs-array intersection: one pass over the array, advancing
/// the run cursor monotonically. O(card + runs).
std::vector<uint16_t> IntersectRunArray(const std::vector<uint16_t>& runs,
                                        const std::vector<uint16_t>& values) {
  std::vector<uint16_t> out;
  size_t r = 0;
  for (uint16_t v : values) {
    while (r < runs.size() && uint32_t{runs[r]} + runs[r + 1] < v) r += 2;
    if (r == runs.size()) break;
    if (runs[r] <= v) out.push_back(v);
  }
  return out;
}

/// The array of a sorted value list re-expressed as a flattened run list
/// (for the native run-vs-array union path).
std::vector<uint16_t> ArrayToRunList(const std::vector<uint16_t>& values) {
  std::vector<uint16_t> runs;
  for (size_t i = 0; i < values.size();) {
    size_t j = i + 1;
    while (j < values.size() && values[j] == values[j - 1] + 1) ++j;
    runs.push_back(values[i]);
    runs.push_back(static_cast<uint16_t>(values[j - 1] - values[i]));
    i = j;
  }
  return runs;
}

}  // namespace

Container Container::FromBitsetVector(std::vector<uint64_t> words) {
  AB_DCHECK(words.size() == kBitsetWords);
  Container c;
  c.kind_ = ContainerKind::kBitset;
  c.cardinality_ = static_cast<uint32_t>(
      util::simd::PopcountWords(words.data(), words.size()));
  c.words_ = std::move(words);
  c.Normalize();
  return c;
}

Container Container::FromRunList(const std::vector<uint16_t>& runs,
                                 uint32_t cardinality) {
  Container c;
  c.cardinality_ = cardinality;
  if (cardinality > kArrayMax) {
    c.kind_ = ContainerKind::kBitset;
    c.words_.assign(kBitsetWords, 0);
    RunsToWords(runs, c.words_.data());
  } else {
    c.array_.reserve(cardinality);
    for (size_t r = 0; r < runs.size(); r += 2) {
      uint32_t start = runs[r];
      uint32_t last = start + runs[r + 1];
      for (uint32_t v = start; v <= last; ++v) {
        c.array_.push_back(static_cast<uint16_t>(v));
      }
    }
  }
  return c;
}

Container And(const Container& a, const Container& b) {
  if (a.empty() || b.empty()) return Container();
  ContainerKind ka = a.kind_, kb = b.kind_;
  // Order-insensitive dispatch: normalize so ka <= kb in enum order
  // (array < bitset < run).
  const Container* pa = &a;
  const Container* pb = &b;
  if (static_cast<int>(ka) > static_cast<int>(kb)) {
    std::swap(pa, pb);
    std::swap(ka, kb);
  }
  if (ka == ContainerKind::kArray && kb == ContainerKind::kArray) {
    std::vector<uint16_t> out(std::min(pa->array_.size(), pb->array_.size()));
    size_t n = IntersectArrays(pa->array_.data(), pa->array_.size(),
                               pb->array_.data(), pb->array_.size(),
                               out.data());
    return Container::FromSortedValues(out.data(), n);
  }
  if (ka == ContainerKind::kArray && kb == ContainerKind::kBitset) {
    std::vector<uint16_t> out;
    out.reserve(pa->array_.size());
    for (uint16_t v : pa->array_) {
      if ((pb->words_[v >> 6] >> (v & 63)) & 1u) out.push_back(v);
    }
    return Container::FromSortedValues(out.data(), out.size());
  }
  if (ka == ContainerKind::kArray && kb == ContainerKind::kRun) {
    std::vector<uint16_t> out = IntersectRunArray(pb->array_, pa->array_);
    return Container::FromSortedValues(out.data(), out.size());
  }
  if (ka == ContainerKind::kBitset && kb == ContainerKind::kBitset) {
    std::vector<uint64_t> words = pa->words_;
    util::simd::AndWords(words.data(), pb->words_.data(), words.size());
    return Container::FromBitsetVector(std::move(words));
  }
  if (ka == ContainerKind::kBitset && kb == ContainerKind::kRun) {
    std::vector<uint64_t> mask(Container::kBitsetWords, 0);
    RunsToWords(pb->array_, mask.data());
    util::simd::AndWords(mask.data(), pa->words_.data(), mask.size());
    return Container::FromBitsetVector(std::move(mask));
  }
  // run x run
  uint32_t card = 0;
  std::vector<uint16_t> runs = IntersectRunLists(pa->array_, pb->array_, &card);
  return Container::FromRunList(runs, card);
}

Container Or(const Container& a, const Container& b) {
  if (a.empty() || b.empty()) {
    Container copy = a.empty() ? b : a;
    if (copy.kind_ == ContainerKind::kRun) copy.ExpandRuns();
    return copy;
  }
  ContainerKind ka = a.kind_, kb = b.kind_;
  const Container* pa = &a;
  const Container* pb = &b;
  if (static_cast<int>(ka) > static_cast<int>(kb)) {
    std::swap(pa, pb);
    std::swap(ka, kb);
  }
  if (ka == ContainerKind::kArray && kb == ContainerKind::kArray) {
    std::vector<uint16_t> out;
    out.reserve(pa->array_.size() + pb->array_.size());
    std::set_union(pa->array_.begin(), pa->array_.end(), pb->array_.begin(),
                   pb->array_.end(), std::back_inserter(out));
    return Container::FromSortedValues(out.data(), out.size());
  }
  if (kb == ContainerKind::kBitset) {  // bitset x array|bitset
    std::vector<uint64_t> words = pb->words_;
    if (ka == ContainerKind::kBitset) {
      util::simd::OrWords(words.data(), pa->words_.data(), words.size());
    } else {
      for (uint16_t v : pa->array_) {
        words[v >> 6] |= uint64_t{1} << (v & 63);
      }
    }
    return Container::FromBitsetVector(std::move(words));
  }
  if (ka == ContainerKind::kBitset) {  // bitset x run
    std::vector<uint64_t> words = pa->words_;
    RunsToWords(pb->array_, words.data());
    return Container::FromBitsetVector(std::move(words));
  }
  // run x run, or array x run via the array's run-list view.
  uint32_t card = 0;
  std::vector<uint16_t> runs =
      ka == ContainerKind::kRun
          ? UnionRunLists(pa->array_, pb->array_, &card)
          : UnionRunLists(ArrayToRunList(pa->array_), pb->array_, &card);
  return Container::FromRunList(runs, card);
}

void Container::OrInto(uint64_t* words) const {
  switch (kind_) {
    case ContainerKind::kArray:
      for (uint16_t v : array_) words[v >> 6] |= uint64_t{1} << (v & 63);
      break;
    case ContainerKind::kBitset:
      util::simd::OrWords(words, words_.data(), kBitsetWords);
      break;
    case ContainerKind::kRun:
      RunsToWords(array_, words);
      break;
  }
}

void Container::OrRangeInto(uint64_t* words, uint32_t first_word,
                            uint32_t num_words) const {
  AB_DCHECK(first_word + num_words <= kBitsetWords);
  switch (kind_) {
    case ContainerKind::kArray: {
      uint32_t lo = first_word * 64;
      uint32_t end = lo + num_words * 64;
      auto it = std::lower_bound(array_.begin(), array_.end(),
                                 static_cast<uint16_t>(lo));
      for (; it != array_.end() && *it < end; ++it) {
        uint32_t v = *it - lo;
        words[v >> 6] |= uint64_t{1} << (v & 63);
      }
      break;
    }
    case ContainerKind::kBitset:
      util::simd::OrWords(words, words_.data() + first_word, num_words);
      break;
    case ContainerKind::kRun:
      RunsToWords(array_, words, first_word, num_words);
      break;
  }
}

std::vector<uint64_t> Container::MaterializedWords(const Container& c) {
  if (c.kind_ == ContainerKind::kBitset) return c.words_;
  std::vector<uint64_t> words(kBitsetWords, 0);
  if (c.kind_ == ContainerKind::kRun) {
    RunsToWords(c.array_, words.data());
  } else {
    for (uint16_t v : c.array_) {
      words[v >> 6] |= uint64_t{1} << (v & 63);
    }
  }
  return words;
}

Container Xor(const Container& a, const Container& b) {
  if (a.kind_ != ContainerKind::kBitset &&
      b.kind_ != ContainerKind::kBitset) {
    std::vector<uint16_t> va = a.ToArray();
    std::vector<uint16_t> vb = b.ToArray();
    std::vector<uint16_t> out;
    out.reserve(va.size() + vb.size());
    std::set_symmetric_difference(va.begin(), va.end(), vb.begin(), vb.end(),
                                  std::back_inserter(out));
    return Container::FromSortedValues(out.data(), out.size());
  }
  std::vector<uint64_t> wa = Container::MaterializedWords(a);
  std::vector<uint64_t> wb = Container::MaterializedWords(b);
  util::simd::XorWords(wa.data(), wb.data(), wa.size());
  return Container::FromBitsetVector(std::move(wa));
}

Container AndNot(const Container& a, const Container& b) {
  if (a.kind_ != ContainerKind::kBitset &&
      b.kind_ != ContainerKind::kBitset) {
    std::vector<uint16_t> va = a.ToArray();
    std::vector<uint16_t> vb = b.ToArray();
    std::vector<uint16_t> out;
    out.reserve(va.size());
    std::set_difference(va.begin(), va.end(), vb.begin(), vb.end(),
                        std::back_inserter(out));
    return Container::FromSortedValues(out.data(), out.size());
  }
  std::vector<uint64_t> wa = Container::MaterializedWords(a);
  std::vector<uint64_t> wb = Container::MaterializedWords(b);
  util::simd::AndNotWords(wa.data(), wb.data(), wa.size());
  return Container::FromBitsetVector(std::move(wa));
}

uint32_t AndCardinality(const Container& a, const Container& b) {
  if (a.empty() || b.empty()) return 0;
  if (a.kind_ == ContainerKind::kArray && b.kind_ == ContainerKind::kArray) {
    // Counting variant of the intersection: same gallop/linear selection,
    // no output scatter.
    const uint16_t* sa = a.array_.data();
    size_t na = a.array_.size();
    const uint16_t* sb = b.array_.data();
    size_t nb = b.array_.size();
    if (na > nb) {
      std::swap(sa, sb);
      std::swap(na, nb);
    }
    uint32_t count = 0;
    if (UseGallop(na, nb)) {
      size_t j = 0;
      for (size_t i = 0; i < na; ++i) {
        j = GallopLowerBound(sb, nb, j, sa[i]);
        if (j == nb) break;
        if (sb[j] == sa[i]) {
          ++count;
          ++j;
        }
      }
    } else {
      size_t i = 0, j = 0;
      while (i < na && j < nb) {
        if (sa[i] == sb[j]) {
          ++count;
          ++i;
          ++j;
        } else if (sa[i] < sb[j]) {
          ++i;
        } else {
          ++j;
        }
      }
    }
    return count;
  }
  if (a.kind_ == ContainerKind::kBitset && b.kind_ == ContainerKind::kBitset) {
    uint32_t count = 0;
    for (size_t w = 0; w < Container::kBitsetWords; ++w) {
      count += static_cast<uint32_t>(
          util::simd::PopCount64(a.words_[w] & b.words_[w]));
    }
    return count;
  }
  if (a.kind_ == ContainerKind::kArray && b.kind_ == ContainerKind::kBitset) {
    uint32_t count = 0;
    for (uint16_t v : a.array_) {
      count += (b.words_[v >> 6] >> (v & 63)) & 1u;
    }
    return count;
  }
  if (a.kind_ == ContainerKind::kBitset && b.kind_ == ContainerKind::kArray) {
    return AndCardinality(b, a);
  }
  return And(a, b).cardinality();
}

}  // namespace roaring
}  // namespace abitmap
