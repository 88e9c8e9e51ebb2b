#include "util/bitvector.h"

#include <algorithm>
#include <utility>

#include "util/simd.h"

namespace abitmap {
namespace util {

BitVector BitVector::FromBools(const std::vector<bool>& bits) {
  BitVector v(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) v.Set(i);
  }
  return v;
}

BitVector BitVector::FromString(const std::string& bits) {
  BitVector v(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    AB_CHECK(bits[i] == '0' || bits[i] == '1');
    if (bits[i] == '1') v.Set(i);
  }
  return v;
}

uint64_t BitVector::GetBits(size_t pos, int n) const {
  AB_DCHECK(n >= 1 && n <= 64);
  uint64_t out = 0;
  size_t wi = pos >> 6;
  int shift = static_cast<int>(pos & 63);
  if (wi < words_.size()) {
    out = words_[wi] >> shift;
    if (shift != 0 && wi + 1 < words_.size()) {
      out |= words_[wi + 1] << (64 - shift);
    }
  }
  if (n < 64) out &= (uint64_t{1} << n) - 1;
  // Mask off bits past size(); only relevant for reads near the end.
  if (pos + static_cast<size_t>(n) > num_bits_) {
    if (pos >= num_bits_) return 0;
    size_t valid = num_bits_ - pos;
    if (valid < 64) out &= (uint64_t{1} << valid) - 1;
  }
  return out;
}

void BitVector::AppendBits(uint64_t bits, int n) {
  AB_DCHECK(n >= 1 && n <= 64);
  for (int i = 0; i < n; ++i) {
    PushBack((bits >> i) & 1u);
  }
}

void BitVector::PushBack(bool value) {
  if ((num_bits_ & 63) == 0) words_.push_back(0);
  ++num_bits_;
  if (value) Set(num_bits_ - 1);
}

void BitVector::Append(bool value, size_t count) {
  // Grow word storage once, then fill. Runs of zeros need no bit writes.
  size_t new_bits = num_bits_ + count;
  words_.resize((new_bits + 63) / 64, 0);
  if (value) {
    size_t pos = num_bits_;
    num_bits_ = new_bits;
    // Set leading partial word, then whole words, then trailing partial.
    while (pos < new_bits && (pos & 63) != 0) {
      Set(pos++);
    }
    while (pos + 64 <= new_bits) {
      words_[pos >> 6] = ~uint64_t{0};
      pos += 64;
    }
    while (pos < new_bits) {
      Set(pos++);
    }
  } else {
    num_bits_ = new_bits;
  }
}

void BitVector::Resize(size_t num_bits) {
  num_bits_ = num_bits;
  words_.resize((num_bits + 63) / 64, 0);
  ClearPadding();
}

size_t BitVector::Count() const {
  return simd::PopcountWords(words_.data(), words_.size());
}

size_t BitVector::CountRange(size_t begin, size_t end) const {
  AB_DCHECK(begin <= end);
  AB_DCHECK(end <= num_bits_);
  if (begin == end) return 0;
  size_t first_word = begin >> 6;
  size_t last_word = (end - 1) >> 6;
  if (first_word == last_word) {
    uint64_t w = words_[first_word];
    w >>= (begin & 63);
    size_t width = end - begin;
    if (width < 64) w &= (uint64_t{1} << width) - 1;
    return simd::PopCount64(w);
  }
  size_t total = simd::PopCount64(words_[first_word] >> (begin & 63));
  total +=
      simd::PopcountWords(words_.data() + first_word + 1,
                          last_word - first_word - 1);
  uint64_t last = words_[last_word];
  size_t tail_bits = ((end - 1) & 63) + 1;
  if (tail_bits < 64) last &= (uint64_t{1} << tail_bits) - 1;
  total += simd::PopCount64(last);
  return total;
}

std::vector<size_t> BitVector::SetPositions() const {
  std::vector<size_t> out;
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    uint64_t w = words_[wi];
    while (w != 0) {
      int bit = simd::CountTrailingZeros64(w);
      out.push_back(wi * 64 + static_cast<size_t>(bit));
      w &= w - 1;
    }
  }
  return out;
}

size_t BitVector::FindNextSet(size_t pos) const {
  if (pos >= num_bits_) return num_bits_;
  size_t wi = pos >> 6;
  uint64_t w = words_[wi] & (~uint64_t{0} << (pos & 63));
  while (true) {
    if (w != 0) {
      size_t found =
          wi * 64 + static_cast<size_t>(simd::CountTrailingZeros64(w));
      return found < num_bits_ ? found : num_bits_;
    }
    if (++wi >= words_.size()) return num_bits_;
    w = words_[wi];
  }
}

void BitVector::AndWith(const BitVector& other) {
  AB_CHECK_EQ(num_bits_, other.num_bits_);
  simd::AndWords(words_.data(), other.words_.data(), words_.size());
}

void BitVector::OrWith(const BitVector& other) {
  AB_CHECK_EQ(num_bits_, other.num_bits_);
  simd::OrWords(words_.data(), other.words_.data(), words_.size());
}

void BitVector::OrRangeWith(const BitVector& other, size_t word_begin,
                            size_t word_end) {
  AB_CHECK_EQ(num_bits_, other.num_bits_);
  AB_CHECK(word_end <= words_.size());
  if (word_begin >= word_end) return;
  simd::OrWords(words_.data() + word_begin, other.words_.data() + word_begin,
                word_end - word_begin);
}

void BitVector::OrWords(size_t first_word, const uint64_t* src,
                        size_t count) {
  if (first_word >= words_.size()) return;
  count = std::min(count, words_.size() - first_word);
  simd::OrWords(words_.data() + first_word, src, count);
  if (first_word + count == words_.size()) ClearPadding();
}

void BitVector::XorWith(const BitVector& other) {
  AB_CHECK_EQ(num_bits_, other.num_bits_);
  simd::XorWords(words_.data(), other.words_.data(), words_.size());
}

void BitVector::AndNotWith(const BitVector& other) {
  AB_CHECK_EQ(num_bits_, other.num_bits_);
  simd::AndNotWords(words_.data(), other.words_.data(), words_.size());
}

void BitVector::Flip() {
  simd::NotWords(words_.data(), words_.size());
  ClearPadding();
}

bool BitVector::operator==(const BitVector& other) const {
  return num_bits_ == other.num_bits_ && words_ == other.words_;
}

std::string BitVector::ToString() const {
  std::string out;
  out.reserve(num_bits_);
  for (size_t i = 0; i < num_bits_; ++i) out.push_back(Get(i) ? '1' : '0');
  return out;
}

void BitVector::Serialize(ByteWriter* out) const {
  out->WriteVarint(num_bits_);
  for (uint64_t w : words_) out->WriteU64(w);
}

Status BitVector::Deserialize(ByteReader* in, BitVector* out) {
  uint64_t num_bits;
  if (!in->ReadVarint(&num_bits)) {
    return Status::Corruption("BitVector: truncated bit count");
  }
  size_t num_words = (num_bits + 63) / 64;
  BitVector v;
  v.num_bits_ = num_bits;
  v.words_.resize(num_words);
  for (size_t i = 0; i < num_words; ++i) {
    if (!in->ReadU64(&v.words_[i])) {
      return Status::Corruption("BitVector: truncated words");
    }
  }
  // Padding bits past num_bits must be zero; reject doctored input that
  // would break Count()/equality invariants.
  size_t used = num_bits & 63;
  if (used != 0 && !v.words_.empty() &&
      (v.words_.back() & ~((uint64_t{1} << used) - 1)) != 0) {
    return Status::Corruption("BitVector: nonzero padding bits");
  }
  *out = std::move(v);
  return Status::Ok();
}

void BitVector::ClearPadding() {
  size_t used = num_bits_ & 63;
  if (used != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << used) - 1;
  }
}

BitVector And(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.AndWith(b);
  return out;
}

BitVector Or(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.OrWith(b);
  return out;
}

BitVector Xor(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.XorWith(b);
  return out;
}

BitVector AndNot(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.AndNotWith(b);
  return out;
}

BitVector Not(const BitVector& a) {
  BitVector out = a;
  out.Flip();
  return out;
}

}  // namespace util
}  // namespace abitmap
