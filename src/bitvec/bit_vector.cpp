#include "bitvec/bit_vector.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

// The popcount kernels are compiled twice, for the POPCNT instruction and for
// baseline x86-64, and the dynamic loader picks one per process from CPUID.
// The build itself keeps targeting baseline x86-64, so the binary still runs
// on CPUs without POPCNT; without the attribute every std::popcount there is
// an out-of-line libgcc call. Other targets get the plain functions, and so
// do ThreadSanitizer builds: the loader runs the clone resolver before the
// TSan runtime is up, and the instrumented resolver crashes at start-up.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GREENPS_TSAN_BUILD
#endif
#endif
#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__) && !defined(GREENPS_TSAN_BUILD)
#if __has_attribute(target_clones)
#define GREENPS_POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#endif
#endif
#ifndef GREENPS_POPCNT_CLONES
#define GREENPS_POPCNT_CLONES
#endif

namespace greenps {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

std::uint64_t low_bits(std::size_t n) { return (std::uint64_t{1} << n) - 1; }  // n < 64

std::size_t popcount(std::uint64_t w) { return static_cast<std::size_t>(std::popcount(w)); }

// Length of [off, off + len) that lies inside a `size`-bit vector.
std::size_t clip(std::size_t size, std::size_t off, std::size_t len) {
  return off >= size ? 0 : std::min(len, size - off);
}

// Consecutive 64-bit windows of a word array starting at any bit: window k
// holds bits [bit + 64k, bit + 64k + 64). Callers clip their range to the
// vector first, so a window reads the word after p[k] only when some of its
// bits live there, and never past the array.
struct BitCursor {
  const std::uint64_t* p;
  std::size_t shift;

  BitCursor(const std::uint64_t* words, std::size_t bit)
      : p(words + bit / kWordBits), shift(bit % kWordBits) {}

  // A full window; all 64 bits lie inside the vector.
  [[nodiscard]] std::uint64_t word(std::size_t k) const {
    if (shift == 0) return p[k];
    return (p[k] >> shift) | (p[k + 1] << (kWordBits - shift));
  }

  // The first n (0 < n < 64) bits of window k, the rest zero.
  [[nodiscard]] std::uint64_t tail(std::size_t k, std::size_t n) const {
    std::uint64_t w = p[k] >> shift;
    if (shift + n > kWordBits) w |= p[k + 1] << (kWordBits - shift);
    return w & low_bits(n);
  }
};
}  // namespace

BitVector::BitVector(std::size_t bits) : bits_(bits), words_(words_for(bits), 0) {}

void BitVector::reset(std::size_t i) {
  assert(i < bits_);
  words_[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
}

GREENPS_POPCNT_CLONES
std::size_t BitVector::count() const {
  std::size_t total = 0;
  for (const auto w : words_) total += popcount(w);
  return total;
}

void BitVector::mask_tail() {
  const std::size_t rem = bits_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= low_bits(rem);
  }
}

GREENPS_POPCNT_CLONES
std::size_t BitVector::shift_down(std::size_t k) {
  if (k == 0) return 0;
  std::size_t dropped = 0;
  if (k >= bits_) {
    for (const auto w : words_) dropped += popcount(w);
    std::fill(words_.begin(), words_.end(), 0);
    return dropped;
  }
  const std::size_t word_shift = k / kWordBits;
  const std::size_t bit_shift = k % kWordBits;
  for (std::size_t i = 0; i < word_shift; ++i) dropped += popcount(words_[i]);
  if (bit_shift != 0) dropped += popcount(words_[word_shift] & low_bits(bit_shift));
  const std::size_t n = words_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = i + word_shift;
    std::uint64_t lo = src < n ? words_[src] : 0;
    if (bit_shift != 0) {
      const std::uint64_t hi = (src + 1) < n ? words_[src + 1] : 0;
      lo = (lo >> bit_shift) | (hi << (kWordBits - bit_shift));
    }
    words_[i] = lo;
  }
  mask_tail();
  return dropped;
}

std::uint64_t BitVector::word_at(std::size_t bit_offset) const {
  const std::size_t w = bit_offset / kWordBits;
  const std::size_t r = bit_offset % kWordBits;
  const std::uint64_t lo = w < words_.size() ? words_[w] : 0;
  if (r == 0) return lo;
  const std::uint64_t hi = (w + 1) < words_.size() ? words_[w + 1] : 0;
  return (lo >> r) | (hi << (kWordBits - r));
}

GREENPS_POPCNT_CLONES
std::size_t BitVector::or_with(const BitVector& other, std::ptrdiff_t this_offset,
                               std::ptrdiff_t other_offset, std::size_t len) {
  // Normalize away negative offsets, then clip the copied range to both
  // vectors so the word loop below needs no per-bit bounds checks.
  if (this_offset < 0) {
    const std::ptrdiff_t skip = -this_offset;
    if (static_cast<std::size_t>(skip) >= len) return 0;
    this_offset = 0;
    other_offset += skip;
    len -= static_cast<std::size_t>(skip);
  }
  if (other_offset < 0) {
    const std::ptrdiff_t skip = -other_offset;
    if (static_cast<std::size_t>(skip) >= len) return 0;
    other_offset = 0;
    this_offset += skip;
    len -= static_cast<std::size_t>(skip);
  }
  const auto t0 = static_cast<std::size_t>(this_offset);
  const auto o0 = static_cast<std::size_t>(other_offset);
  len = std::min(clip(bits_, t0, len), clip(other.bits_, o0, len));
  if (len == 0) return 0;
  // Source window k lands at bit `shift` of dst[k] and, when it straddles a
  // word, spills into dst[k + 1]; the clip keeps both inside this vector.
  const BitCursor src(other.words_.data(), o0);
  std::uint64_t* dst = words_.data() + t0 / kWordBits;
  const std::size_t shift = t0 % kWordBits;
  std::size_t added = 0;
  for (std::size_t k = 0, done = 0; done < len; ++k, done += kWordBits) {
    const std::size_t n = std::min(kWordBits, len - done);
    const std::uint64_t w = n == kWordBits ? src.word(k) : src.tail(k, n);
    const std::uint64_t lo = w << shift;
    added += popcount(lo & ~dst[k]);
    dst[k] |= lo;
    if (shift + n > kWordBits) {
      const std::uint64_t hi = w >> (kWordBits - shift);
      added += popcount(hi & ~dst[k + 1]);
      dst[k + 1] |= hi;
    }
  }
  return added;
}

GREENPS_POPCNT_CLONES
std::size_t BitVector::and_count(const BitVector& a, std::size_t a_off,
                                 const BitVector& b, std::size_t b_off,
                                 std::size_t len) {
  len = std::min(clip(a.bits_, a_off, len), clip(b.bits_, b_off, len));
  if (len == 0) return 0;
  const BitCursor ca(a.words_.data(), a_off);
  const BitCursor cb(b.words_.data(), b_off);
  const std::size_t full = len / kWordBits;
  std::size_t total = 0;
  for (std::size_t k = 0; k < full; ++k) total += popcount(ca.word(k) & cb.word(k));
  if (const std::size_t rem = len % kWordBits; rem != 0) {
    total += popcount(ca.tail(full, rem) & cb.tail(full, rem));
  }
  return total;
}

bool BitVector::contains(const BitVector& sup, std::size_t sup_off,
                         const BitVector& sub, std::size_t sub_off,
                         std::size_t len) {
  const std::size_t sub_len = clip(sub.bits_, sub_off, len);
  const std::size_t both = std::min(sub_len, clip(sup.bits_, sup_off, len));
  if (both != 0) {
    const BitCursor cs(sup.words_.data(), sup_off);
    const BitCursor cb(sub.words_.data(), sub_off);
    const std::size_t full = both / kWordBits;
    for (std::size_t k = 0; k < full; ++k) {
      if ((cb.word(k) & ~cs.word(k)) != 0) return false;
    }
    if (const std::size_t rem = both % kWordBits; rem != 0) {
      if ((cb.tail(full, rem) & ~cs.tail(full, rem)) != 0) return false;
    }
  }
  // Where `sup` has run out it reads as zero, so `sub` must be empty there.
  return both == sub_len || sub.count_range(sub_off + both, sub_len - both) == 0;
}

std::ptrdiff_t BitVector::highest_set() const {
  for (std::size_t i = words_.size(); i-- > 0;) {
    if (words_[i] != 0) {
      const auto top = kWordBits - 1 - static_cast<std::size_t>(std::countl_zero(words_[i]));
      return static_cast<std::ptrdiff_t>(i * kWordBits + top);
    }
  }
  return -1;
}

GREENPS_POPCNT_CLONES
std::size_t BitVector::count_range(std::size_t from, std::size_t len) const {
  len = clip(bits_, from, len);
  if (len == 0) return 0;
  const BitCursor c(words_.data(), from);
  const std::size_t full = len / kWordBits;
  std::size_t total = 0;
  for (std::size_t k = 0; k < full; ++k) total += popcount(c.word(k));
  if (const std::size_t rem = len % kWordBits; rem != 0) total += popcount(c.tail(full, rem));
  return total;
}

}  // namespace greenps
