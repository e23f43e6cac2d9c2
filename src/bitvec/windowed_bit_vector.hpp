// The profiling bit vector of Section III-B / Figure 1.
//
// A subscription profile keeps one of these per publisher. Bit i records
// whether the publication with message ID (first_id + i) from that publisher
// was delivered to the subscription. The window is bounded (default 1,280
// bits); recording a publication beyond the window slides the window forward
// just enough to record it in the last bit, updating `first_id` by the
// number of bits shifted.
#pragma once

#include <cstddef>

#include "bitvec/bit_vector.hpp"
#include "common/ids.hpp"

namespace greenps {

class WindowedBitVector {
 public:
  static constexpr std::size_t kDefaultCapacity = 1280;

  explicit WindowedBitVector(std::size_t capacity = kDefaultCapacity);

  // Record delivery of the publication with message ID `seq`.
  // Returns false (and records nothing) if `seq` has already slid out of the
  // window, true otherwise. The first recorded ID anchors the window.
  bool record(MessageSeq seq);

  // Message ID corresponding to bit 0.
  [[nodiscard]] MessageSeq first_id() const { return first_id_; }
  // One past the largest message ID this window can currently hold.
  [[nodiscard]] MessageSeq end_id() const {
    return first_id_ + static_cast<MessageSeq>(bits_.size());
  }
  [[nodiscard]] bool anchored() const { return anchored_; }
  [[nodiscard]] std::size_t capacity() const { return bits_.size(); }

  [[nodiscard]] const BitVector& bits() const { return bits_; }
  // Number of set bits, O(1): every mutator keeps it exact.
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool test_seq(MessageSeq seq) const;

  // --- Aligned set algebra (operands may have different first_id) ---

  // |a ∩ b|: set bits at equal message IDs.
  [[nodiscard]] static std::size_t intersect_count(const WindowedBitVector& a,
                                                   const WindowedBitVector& b);
  // |a ∪ b| = |a| + |b| − |a ∩ b|.
  [[nodiscard]] static std::size_t union_count(const WindowedBitVector& a,
                                               const WindowedBitVector& b);
  // |a ⊕ b| = |a| + |b| − 2|a ∩ b|.
  [[nodiscard]] static std::size_t xor_count(const WindowedBitVector& a,
                                             const WindowedBitVector& b);
  // Every set bit of `sub` is set in `sup`.
  [[nodiscard]] static bool covers(const WindowedBitVector& sup,
                                   const WindowedBitVector& sub);

  // OR `other` into this window (Figure 1 clustering). Bits of `other` older
  // than this window's start are dropped; newer bits slide this window
  // forward first so they fit.
  void merge(const WindowedBitVector& other);

  friend bool operator==(const WindowedBitVector&, const WindowedBitVector&) = default;

 private:
  void slide_to_hold(MessageSeq seq);

  BitVector bits_;
  // Popcount of bits_, updated eagerly by record/slide/merge rather than
  // cached lazily: pair-search and speculative-probe threads read windows
  // concurrently through const references, so count() must not write.
  std::size_t count_ = 0;
  MessageSeq first_id_ = 0;
  bool anchored_ = false;
};

}  // namespace greenps
