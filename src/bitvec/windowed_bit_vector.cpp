#include "bitvec/windowed_bit_vector.hpp"

#include <algorithm>
#include <cassert>

namespace greenps {

WindowedBitVector::WindowedBitVector(std::size_t capacity) : bits_(capacity) {
  assert(capacity > 0);
}

void WindowedBitVector::slide_to_hold(MessageSeq seq) {
  const auto cap = static_cast<MessageSeq>(bits_.size());
  if (seq < first_id_ + cap) return;
  const MessageSeq shift = seq - (first_id_ + cap) + 1;
  count_ -= bits_.shift_down(static_cast<std::size_t>(std::min<MessageSeq>(shift, cap)));
  first_id_ += shift;
}

bool WindowedBitVector::record(MessageSeq seq) {
  if (!anchored_) {
    first_id_ = seq;
    anchored_ = true;
  }
  if (seq < first_id_) return false;  // already slid past this publication
  slide_to_hold(seq);
  const auto off = static_cast<std::size_t>(seq - first_id_);
  if (!bits_.test(off)) {
    bits_.set(off);
    ++count_;
  }
  return true;
}

bool WindowedBitVector::test_seq(MessageSeq seq) const {
  if (seq < first_id_) return false;
  const MessageSeq off = seq - first_id_;
  if (off >= static_cast<MessageSeq>(bits_.size())) return false;
  return bits_.test(static_cast<std::size_t>(off));
}

std::size_t WindowedBitVector::intersect_count(const WindowedBitVector& a,
                                               const WindowedBitVector& b) {
  const MessageSeq lo = std::max(a.first_id_, b.first_id_);
  const MessageSeq hi = std::min(a.end_id(), b.end_id());
  if (hi <= lo) return 0;
  return BitVector::and_count(a.bits_, static_cast<std::size_t>(lo - a.first_id_),
                              b.bits_, static_cast<std::size_t>(lo - b.first_id_),
                              static_cast<std::size_t>(hi - lo));
}

std::size_t WindowedBitVector::union_count(const WindowedBitVector& a,
                                           const WindowedBitVector& b) {
  return a.count() + b.count() - intersect_count(a, b);
}

std::size_t WindowedBitVector::xor_count(const WindowedBitVector& a,
                                         const WindowedBitVector& b) {
  return a.count() + b.count() - 2 * intersect_count(a, b);
}

bool WindowedBitVector::covers(const WindowedBitVector& sup, const WindowedBitVector& sub) {
  // Any set bit of `sub` outside `sup`'s window is by definition not covered.
  const std::size_t sub_total = sub.count();
  if (sub_total == 0) return true;
  const MessageSeq lo = std::max(sup.first_id_, sub.first_id_);
  const MessageSeq hi = std::min(sup.end_id(), sub.end_id());
  if (hi <= lo) return false;
  const auto sub_lo = static_cast<std::size_t>(lo - sub.first_id_);
  const auto len = static_cast<std::size_t>(hi - lo);
  if (sub.bits_.count_range(sub_lo, len) != sub_total) return false;
  return BitVector::contains(sup.bits_, static_cast<std::size_t>(lo - sup.first_id_),
                             sub.bits_, sub_lo, len);
}

void WindowedBitVector::merge(const WindowedBitVector& other) {
  // Newest set bit of `other` (the merge must slide this window far enough
  // to hold it); -1 doubles as the emptiness check.
  const std::ptrdiff_t highest = other.anchored_ ? other.bits_.highest_set() : -1;
  if (highest < 0) {
    if (!anchored_ && other.anchored_) {
      first_id_ = other.first_id_;
      anchored_ = true;
    }
    return;
  }
  if (!anchored_) {
    first_id_ = other.first_id_;
    anchored_ = true;
  }
  slide_to_hold(other.first_id_ + static_cast<MessageSeq>(highest));
  const MessageSeq lo = std::max(first_id_, other.first_id_);
  const MessageSeq hi = std::min(end_id(), other.end_id());
  if (hi <= lo) return;
  count_ += bits_.or_with(other.bits_, lo - first_id_, lo - other.first_id_,
                          static_cast<std::size_t>(hi - lo));
}

}  // namespace greenps
