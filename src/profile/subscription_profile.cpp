#include "profile/subscription_profile.hpp"

#include <algorithm>
#include <sstream>

namespace greenps {

const char* relation_name(Relation r) {
  switch (r) {
    case Relation::kEqual: return "equal";
    case Relation::kSuperset: return "superset";
    case Relation::kSubset: return "subset";
    case Relation::kIntersect: return "intersect";
    case Relation::kEmpty: return "empty";
  }
  return "?";
}

void SubscriptionProfile::record(AdvId adv, MessageSeq seq) {
  auto it = vectors_.find(adv);
  if (it == vectors_.end()) {
    it = vectors_.emplace(adv, WindowedBitVector(window_bits_)).first;
  }
  it->second.record(seq);
  card_cache_ = kNoCache;
}

std::size_t SubscriptionProfile::cardinality() const {
  if (card_cache_ != kNoCache) return card_cache_;
  std::size_t total = 0;
  for (const auto& [adv, v] : vectors_) {
    (void)adv;
    total += v.count();
  }
  card_cache_ = total;
  return total;
}

void SubscriptionProfile::merge(const SubscriptionProfile& other) {
  for (const auto& [adv, v] : other.vectors_) {
    auto it = vectors_.find(adv);
    if (it == vectors_.end()) {
      vectors_.emplace(adv, v);
    } else {
      it->second.merge(v);
    }
  }
  card_cache_ = kNoCache;
}

void SubscriptionProfile::merge_vector(AdvId adv, const WindowedBitVector& v) {
  auto it = vectors_.find(adv);
  if (it == vectors_.end()) {
    vectors_.emplace(adv, v);
  } else {
    it->second.merge(v);
  }
  card_cache_ = kNoCache;
}

namespace {
thread_local std::size_t t_pairwise_walks = 0;
}  // namespace

std::size_t SubscriptionProfile::pairwise_walks() { return t_pairwise_walks; }
void SubscriptionProfile::reset_pairwise_walks() { t_pairwise_walks = 0; }

SubscriptionProfile::PairwiseCounts SubscriptionProfile::pairwise_counts(
    const SubscriptionProfile& a, const SubscriptionProfile& b) {
  ++t_pairwise_walks;
  // Word loops run only over *common* publishers — a disjoint pair (the bulk
  // of an unpruned pair search) costs zero popcounts. The per-profile
  // cardinalities come from the invalidated-on-write cache, and union/xor
  // follow arithmetically: |a∪b| = |a|+|b|−|a∩b|, |a⊕b| = |a|+|b|−2|a∩b|.
  std::size_t both = 0;
  auto ia = a.vectors_.begin();
  auto ib = b.vectors_.begin();
  while (ia != a.vectors_.end() && ib != b.vectors_.end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      both += WindowedBitVector::intersect_count(ia->second, ib->second);
      ++ia;
      ++ib;
    }
  }
  const std::size_t ca = a.cardinality();
  const std::size_t cb = b.cardinality();
  PairwiseCounts out;
  out.intersect = both;
  out.union_ = ca + cb - both;
  out.xor_ = ca + cb - 2 * both;
  out.card_a = ca;
  out.card_b = cb;
  return out;
}

std::size_t SubscriptionProfile::intersect_count(const SubscriptionProfile& a,
                                                 const SubscriptionProfile& b) {
  std::size_t total = 0;
  for (const auto& [adv, va] : a.vectors_) {
    const auto it = b.vectors_.find(adv);
    if (it != b.vectors_.end()) total += WindowedBitVector::intersect_count(va, it->second);
  }
  return total;
}

std::size_t SubscriptionProfile::union_count(const SubscriptionProfile& a,
                                             const SubscriptionProfile& b) {
  return a.cardinality() + b.cardinality() - intersect_count(a, b);
}

std::size_t SubscriptionProfile::xor_count(const SubscriptionProfile& a,
                                           const SubscriptionProfile& b) {
  return a.cardinality() + b.cardinality() - 2 * intersect_count(a, b);
}

bool SubscriptionProfile::covers(const SubscriptionProfile& sup,
                                 const SubscriptionProfile& sub) {
  // Aligned walk over the two sorted publisher maps with early exit: `sup`
  // covers `sub` iff every publisher's window of `sub` is covered.
  auto is = sup.vectors_.begin();
  for (const auto& [adv, vb] : sub.vectors_) {
    while (is != sup.vectors_.end() && is->first < adv) ++is;
    if (is == sup.vectors_.end() || is->first != adv) {
      if (vb.count() != 0) return false;
      continue;
    }
    if (!WindowedBitVector::covers(is->second, vb)) return false;
  }
  return true;
}

Relation SubscriptionProfile::relation(const SubscriptionProfile& a,
                                       const SubscriptionProfile& b) {
  // One fused walk decides everything: |a ∩ b| = |b| means a covers b (every
  // bit of b matched one of a), and symmetrically for |a|.
  const PairwiseCounts pc = pairwise_counts(a, b);
  if (pc.intersect == 0) return Relation::kEmpty;
  const bool ab = pc.intersect == pc.card_b;
  const bool ba = pc.intersect == pc.card_a;
  if (ab && ba) return Relation::kEqual;
  if (ab) return Relation::kSuperset;
  if (ba) return Relation::kSubset;
  return Relation::kIntersect;
}

bool SubscriptionProfile::same_bits(const SubscriptionProfile& a,
                                    const SubscriptionProfile& b) {
  const PairwiseCounts pc = pairwise_counts(a, b);
  return pc.intersect == pc.card_a && pc.intersect == pc.card_b;
}

std::size_t SubscriptionProfile::bit_hash() const {
  // FNV-1a over (adv id, message id) of every set bit; stable regardless of
  // window anchors so equal bit sets hash equally.
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [adv, v] : vectors_) {
    if (v.count() == 0) continue;
    mix(adv.value());
    for (MessageSeq s = v.first_id(); s < v.end_id(); ++s) {
      if (v.test_seq(s)) mix(static_cast<std::uint64_t>(s));
    }
  }
  return h;
}

double SubscriptionProfile::set_fraction(const WindowedBitVector& v,
                                         const PublisherProfile& pub) {
  const std::size_t set = v.count();
  if (set == 0) return 0.0;
  // Window observed so far: from the window anchor to the publisher's last
  // message ID (the publisher profile synchronizes the counters).
  MessageSeq observed = pub.last_seq >= v.first_id() ? pub.last_seq - v.first_id() + 1
                                                     : static_cast<MessageSeq>(set);
  observed = std::min<MessageSeq>(observed, static_cast<MessageSeq>(v.capacity()));
  observed = std::max<MessageSeq>(observed, static_cast<MessageSeq>(set));
  return static_cast<double>(set) / static_cast<double>(observed);
}

MsgRate SubscriptionProfile::induced_rate(const PublisherTable& table) const {
  MsgRate total = 0;
  for (const auto& [adv, v] : vectors_) {
    const auto it = table.find(adv);
    if (it == table.end()) continue;
    total += it->second.rate_msg_s * set_fraction(v, it->second);
  }
  return total;
}

Bandwidth SubscriptionProfile::induced_bandwidth(const PublisherTable& table) const {
  Bandwidth total = 0;
  for (const auto& [adv, v] : vectors_) {
    const auto it = table.find(adv);
    if (it == table.end()) continue;
    total += it->second.bw_kb_s * set_fraction(v, it->second);
  }
  return total;
}

MsgRate SubscriptionProfile::intersection_rate(const SubscriptionProfile& a,
                                               const SubscriptionProfile& b,
                                               const PublisherTable& table) {
  MsgRate total = 0;
  for (const auto& [adv, va] : a.vectors_) {
    const auto bit = b.vectors_.find(adv);
    if (bit == b.vectors_.end()) continue;
    const auto pit = table.find(adv);
    if (pit == table.end()) continue;
    const std::size_t common = WindowedBitVector::intersect_count(va, bit->second);
    if (common == 0) continue;
    // Use the larger observed window of the two as the denominator; the
    // intersection cannot out-fraction either operand.
    const double fa = set_fraction(va, pit->second);
    const double fb = set_fraction(bit->second, pit->second);
    const double denom_a = fa > 0 ? static_cast<double>(va.count()) / fa : 1.0;
    const double denom_b = fb > 0 ? static_cast<double>(bit->second.count()) / fb : 1.0;
    const double denom = std::max({denom_a, denom_b, static_cast<double>(common)});
    total += pit->second.rate_msg_s * static_cast<double>(common) / denom;
  }
  return total;
}

const WindowedBitVector* SubscriptionProfile::vector_for(AdvId adv) const {
  const auto it = vectors_.find(adv);
  return it == vectors_.end() ? nullptr : &it->second;
}

double SubscriptionProfile::fraction_for(const PublisherProfile& pub) const {
  const WindowedBitVector* v = vector_for(pub.adv);
  return v == nullptr ? 0.0 : set_fraction(*v, pub);
}

std::string SubscriptionProfile::to_string() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [adv, v] : vectors_) {
    if (!first) os << ", ";
    first = false;
    os << "adv" << adv.value() << ":" << v.count() << "/" << v.capacity() << "@"
       << v.first_id();
  }
  os << "}";
  return os.str();
}

}  // namespace greenps
