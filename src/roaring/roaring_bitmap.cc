#include "roaring/roaring_bitmap.h"

#include <algorithm>

#include "util/logging.h"
#include "util/simd.h"

namespace abitmap {
namespace roaring {

namespace {

constexpr uint32_t kChunkBits = 16;
constexpr uint64_t kChunkMask = (uint64_t{1} << kChunkBits) - 1;

/// EvaluateRows answers a chunk from word windows while the window spans
/// at most this many words per requested row, and by per-row
/// Container::Get beyond that.
constexpr size_t kWindowWordsPerRow = 16;

}  // namespace

RoaringBitmap RoaringBitmap::FromBitVector(const util::BitVector& bits) {
  RoaringBitmap out;
  const uint64_t* words = bits.words().data();
  size_t total_words = bits.words().size();
  size_t words_per_chunk = Container::kCapacity / 64;
  for (size_t w0 = 0; w0 < total_words; w0 += words_per_chunk) {
    size_t n = std::min(words_per_chunk, total_words - w0);
    Container c = Container::FromWords(words + w0, n);
    if (!c.empty()) {
      out.keys_.push_back(static_cast<uint32_t>(w0 / words_per_chunk));
      out.containers_.push_back(std::move(c));
    }
  }
  return out;
}

void RoaringBitmap::AppendContainer(uint32_t key, Container container) {
  if (container.empty()) return;
  AB_DCHECK(keys_.empty() || keys_.back() < key);
  keys_.push_back(key);
  containers_.push_back(std::move(container));
}

void RoaringBitmap::Optimize() {
  for (Container& c : containers_) c.Optimize();
}

uint64_t RoaringBitmap::Count() const {
  uint64_t total = 0;
  for (const Container& c : containers_) total += c.cardinality();
  return total;
}

bool RoaringBitmap::Get(uint64_t row) const {
  const Container* c = FindContainer(static_cast<uint32_t>(row >> kChunkBits));
  return c != nullptr && c->Get(static_cast<uint16_t>(row & kChunkMask));
}

const Container* RoaringBitmap::FindContainer(uint32_t key) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return &containers_[it - keys_.begin()];
}

uint64_t RoaringBitmap::FindNextSet(uint64_t from) const {
  uint32_t key = static_cast<uint32_t>(from >> kChunkBits);
  size_t i = std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin();
  uint32_t within = static_cast<uint32_t>(from & kChunkMask);
  for (; i < keys_.size(); ++i) {
    uint32_t start = keys_[i] == key ? within : 0;
    uint32_t pos = containers_[i].NextSet(start);
    if (pos != Container::kNoValue) {
      return (uint64_t{keys_[i]} << kChunkBits) | pos;
    }
  }
  return kNoBit;
}

util::BitVector RoaringBitmap::ToBitVector(uint64_t num_bits) const {
  util::BitVector out(num_bits);
  AppendTo(&out);
  return out;
}

void RoaringBitmap::AppendTo(util::BitVector* out) const {
  for (size_t i = 0; i < keys_.size(); ++i) {
    containers_[i].AppendTo(out, uint64_t{keys_[i]} << kChunkBits);
  }
}

size_t RoaringBitmap::SizeInBytes() const {
  size_t total = keys_.size() * (sizeof(uint32_t) + sizeof(Container));
  for (const Container& c : containers_) total += c.SizeInBytes();
  return total;
}

bool RoaringBitmap::operator==(const RoaringBitmap& other) const {
  return keys_ == other.keys_ && containers_ == other.containers_;
}

RoaringBitmap And(const RoaringBitmap& a, const RoaringBitmap& b) {
  RoaringBitmap out;
  size_t i = 0, j = 0;
  while (i < a.keys_.size() && j < b.keys_.size()) {
    uint32_t ka = a.keys_[i], kb = b.keys_[j];
    if (ka == kb) {
      out.AppendContainer(ka, And(a.containers_[i], b.containers_[j]));
      ++i;
      ++j;
    } else if (ka < kb) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

RoaringBitmap Or(const RoaringBitmap& a, const RoaringBitmap& b) {
  RoaringBitmap out;
  size_t i = 0, j = 0;
  while (i < a.keys_.size() || j < b.keys_.size()) {
    bool take_a = j >= b.keys_.size() ||
                  (i < a.keys_.size() && a.keys_[i] <= b.keys_[j]);
    bool take_b = i >= a.keys_.size() ||
                  (j < b.keys_.size() && b.keys_[j] <= a.keys_[i]);
    if (take_a && take_b) {
      out.AppendContainer(a.keys_[i], Or(a.containers_[i], b.containers_[j]));
      ++i;
      ++j;
    } else if (take_a) {
      out.AppendContainer(a.keys_[i], a.containers_[i]);
      ++i;
    } else {
      out.AppendContainer(b.keys_[j], b.containers_[j]);
      ++j;
    }
  }
  return out;
}

RoaringBitmap RoaringBitmap::MultiOr(
    const std::vector<const RoaringBitmap*>& inputs) {
  RoaringBitmap out;
  size_t n = inputs.size();
  if (n == 0) return out;
  if (n == 1) return *inputs[0];
  std::vector<size_t> pos(n, 0);
  std::vector<uint64_t> words;  // lazily sized 8 KiB accumulator
  while (true) {
    uint32_t min_key = UINT32_MAX;
    bool any = false;
    for (size_t s = 0; s < n; ++s) {
      if (pos[s] < inputs[s]->keys_.size()) {
        min_key = std::min(min_key, inputs[s]->keys_[pos[s]]);
        any = true;
      }
    }
    if (!any) break;
    // Gather every container with this key.
    const Container* single = nullptr;
    int matches = 0;
    for (size_t s = 0; s < n; ++s) {
      if (pos[s] < inputs[s]->keys_.size() &&
          inputs[s]->keys_[pos[s]] == min_key) {
        single = &inputs[s]->containers_[pos[s]];
        ++matches;
      }
    }
    if (matches == 1) {
      out.AppendContainer(min_key, *single);
    } else {
      words.assign(Container::kBitsetWords, 0);
      for (size_t s = 0; s < n; ++s) {
        if (pos[s] < inputs[s]->keys_.size() &&
            inputs[s]->keys_[pos[s]] == min_key) {
          inputs[s]->containers_[pos[s]].OrInto(words.data());
        }
      }
      out.AppendContainer(min_key,
                          Container::FromWords(words.data(), words.size()));
    }
    for (size_t s = 0; s < n; ++s) {
      if (pos[s] < inputs[s]->keys_.size() &&
          inputs[s]->keys_[pos[s]] == min_key) {
        ++pos[s];
      }
    }
  }
  return out;
}

std::vector<bool> EvaluateRows(
    const std::vector<std::vector<const RoaringBitmap*>>& terms,
    const std::vector<uint64_t>& rows) {
  size_t n = rows.size();
  if (terms.empty()) return std::vector<bool>(n, true);
  std::vector<bool> out(n, false);
  // Visit the requested rows grouped by chunk key: through `order`, the
  // positions stably sorted by key, unless the subset is already ascending
  // by key (contiguous or sorted) and is visited as given.
  auto key_of = [&rows](size_t i) {
    return static_cast<uint32_t>(rows[i] >> kChunkBits);
  };
  std::vector<uint32_t> order;
  for (size_t i = 1; i < n; ++i) {
    if (key_of(i) < key_of(i - 1)) {
      order.resize(n);
      for (size_t j = 0; j < n; ++j) order[j] = static_cast<uint32_t>(j);
      std::stable_sort(order.begin(), order.end(),
                       [&key_of](uint32_t a, uint32_t b) {
                         return key_of(a) < key_of(b);
                       });
      break;
    }
  }
  auto at = [&order](size_t p) { return order.empty() ? p : order[p]; };
  // Per chunk: each term's containers (flattened, term t spanning
  // [first[t], first[t + 1])) and the window buffers.
  std::vector<const Container*> found;
  std::vector<size_t> first(terms.size() + 1);
  std::vector<uint64_t> acc, term_words;
  for (size_t s = 0; s < n;) {
    uint32_t key = key_of(at(s));
    size_t e = s;
    uint32_t lo = Container::kCapacity, hi = 0;
    for (; e < n && key_of(at(e)) == key; ++e) {
      uint32_t low = static_cast<uint32_t>(rows[at(e)] & kChunkMask);
      lo = std::min(lo, low);
      hi = std::max(hi, low);
    }
    found.clear();
    bool empty_term = false;
    for (size_t t = 0; t < terms.size(); ++t) {
      first[t] = found.size();
      for (const RoaringBitmap* bitmap : terms[t]) {
        if (const Container* c = bitmap->FindContainer(key)) {
          found.push_back(c);
        }
      }
      if (found.size() == first[t]) {
        empty_term = true;  // no bitmap of this term has the chunk
        break;
      }
    }
    first[terms.size()] = found.size();
    if (empty_term) {
      s = e;
      continue;
    }
    uint32_t first_word = lo >> 6;
    uint32_t num_words = (hi >> 6) - first_word + 1;
    size_t count = e - s;
    if (num_words <= count * kWindowWordsPerRow) {
      acc.assign(num_words, 0);
      for (size_t t = 0; t < terms.size(); ++t) {
        uint64_t* dst = acc.data();
        if (t > 0) {
          term_words.assign(num_words, 0);
          dst = term_words.data();
        }
        for (size_t f = first[t]; f < first[t + 1]; ++f) {
          found[f]->OrRangeInto(dst, first_word, num_words);
        }
        if (t > 0) util::simd::AndWords(acc.data(), dst, num_words);
      }
      uint32_t base = first_word * 64;
      for (size_t p = s; p < e; ++p) {
        uint32_t v = static_cast<uint32_t>(rows[at(p)] & kChunkMask) - base;
        if ((acc[v >> 6] >> (v & 63)) & 1) out[at(p)] = true;
      }
    } else {
      for (size_t p = s; p < e; ++p) {
        uint16_t low = static_cast<uint16_t>(rows[at(p)] & kChunkMask);
        bool hit = true;
        for (size_t t = 0; t < terms.size() && hit; ++t) {
          hit = false;
          for (size_t f = first[t]; f < first[t + 1] && !hit; ++f) {
            hit = found[f]->Get(low);
          }
        }
        if (hit) out[at(p)] = true;
      }
    }
    s = e;
  }
  return out;
}

}  // namespace roaring
}  // namespace abitmap
