// Fixed-size dynamic bit vector with the set operations the profiling
// framework needs: popcount, offset-aligned AND/OR/XOR cardinalities, subset
// tests, and in-place down-shifts (used when the profiling window slides).
//
// Every range operation takes bit offsets that need not be word-aligned and
// lengths that may run past a vector's end: bits past the end read as zero.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace greenps {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t bits);

  [[nodiscard]] std::size_t size() const { return bits_; }
  [[nodiscard]] bool empty() const { return bits_ == 0; }

  // Inline: the profiling window sets and tests one bit per recorded
  // publication, on the simulator's delivery path.
  void set(std::size_t i) {
    assert(i < bits_);
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  void reset(std::size_t i);
  [[nodiscard]] bool test(std::size_t i) const {
    return i < bits_ && ((words_[i / 64] >> (i % 64)) & 1u) != 0;
  }

  // Number of set bits.
  [[nodiscard]] std::size_t count() const;

  // Logical shift towards index 0 by `k` bits: bit i becomes bit i-k and the
  // lowest k bits are discarded. Size is unchanged; vacated high bits are 0.
  // Returns the number of set bits discarded.
  std::size_t shift_down(std::size_t k);

  // Set every bit of `other` (aligned at bit offsets) into this vector.
  // Bits of `other` that would land outside this vector are ignored.
  // `this_offset`/`other_offset` align the two coordinate systems:
  // other bit (other_offset + i) maps onto this bit (this_offset + i).
  // Returns the number of bits that were clear here and are now set.
  std::size_t or_with(const BitVector& other, std::ptrdiff_t this_offset,
                      std::ptrdiff_t other_offset, std::size_t len);

  // 64 bits starting at `bit_offset`, zero-padded past the end.
  [[nodiscard]] std::uint64_t word_at(std::size_t bit_offset) const;

  // |a ∩ b| over `len` bits where a starts at a_off and b at b_off.
  [[nodiscard]] static std::size_t and_count(const BitVector& a, std::size_t a_off,
                                             const BitVector& b, std::size_t b_off,
                                             std::size_t len);

  // True iff every set bit of `sub` (over `len` bits from sub_off) is also
  // set in `sup` (from sup_off).
  [[nodiscard]] static bool contains(const BitVector& sup, std::size_t sup_off,
                                     const BitVector& sub, std::size_t sub_off,
                                     std::size_t len);

  // Number of set bits in [from, from+len) (clamped to size).
  [[nodiscard]] std::size_t count_range(std::size_t from, std::size_t len) const;

  // Index of the highest set bit, or -1 when no bit is set — a word-level
  // scan from the top (the window-merge hot path needs the newest recorded
  // publication without a per-bit walk).
  [[nodiscard]] std::ptrdiff_t highest_set() const;

  friend bool operator==(const BitVector&, const BitVector&) = default;

 private:
  [[nodiscard]] std::size_t word_count() const { return words_.size(); }
  void mask_tail();

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace greenps
