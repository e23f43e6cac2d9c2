#include "profile/union_profile.hpp"

#include <algorithm>

namespace greenps {

namespace {

thread_local std::size_t t_probe_walks = 0;

// One common-publisher contribution, operation-for-operation the body of
// SubscriptionProfile::intersection_rate's loop.
MsgRate adv_rate(const UnionProfile::Entry& e, const WindowedBitVector& vb,
                 const PublisherProfile& pub) {
  const std::size_t common = WindowedBitVector::intersect_count(e.bits, vb);
  if (common == 0) return 0;
  const double fa = SubscriptionProfile::set_fraction(e.bits, pub);
  const double fb = SubscriptionProfile::set_fraction(vb, pub);
  const double denom_a = fa > 0 ? static_cast<double>(e.bits.count()) / fa : 1.0;
  const double denom_b = fb > 0 ? static_cast<double>(vb.count()) / fb : 1.0;
  const double denom = std::max({denom_a, denom_b, static_cast<double>(common)});
  return pub.rate_msg_s * static_cast<double>(common) / denom;
}

const PublisherProfile* resolve(const PublisherTable& table, AdvId adv) {
  const auto it = table.find(adv);
  return it == table.end() ? nullptr : &it->second;
}

}  // namespace

std::size_t UnionProfile::probe_walks() { return t_probe_walks; }
void UnionProfile::reset_probe_walks() { t_probe_walks = 0; }

MsgRate UnionProfile::intersection_rate(const SubscriptionProfile& p) const {
  ++t_probe_walks;
  MsgRate total = 0;
  auto ie = entries_.begin();
  const auto& vecs = p.vectors();
  auto ip = vecs.begin();
  while (ie != entries_.end() && ip != vecs.end()) {
    if (ie->adv < ip->first) {
      ++ie;
    } else if (ip->first < ie->adv) {
      ++ip;
    } else {
      if (ie->pub != nullptr) total += adv_rate(*ie, ip->second, *ie->pub);
      ++ie;
      ++ip;
    }
  }
  return total;
}

void UnionProfile::merge(const SubscriptionProfile& p, const PublisherTable& table) {
  std::size_t i = 0;
  for (const auto& [adv, v] : p.vectors()) {
    while (i < entries_.size() && entries_[i].adv < adv) ++i;
    if (i < entries_.size() && entries_[i].adv == adv) {
      entries_[i].bits.merge(v);
    } else {
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      Entry{adv, v, resolve(table, adv)});
    }
    ++i;
  }
}

MsgRate UnionProfile::merge_with_rate(const SubscriptionProfile& p,
                                      const PublisherTable& table) {
  ++t_probe_walks;
  MsgRate total = 0;
  std::size_t i = 0;
  for (const auto& [adv, v] : p.vectors()) {
    while (i < entries_.size() && entries_[i].adv < adv) ++i;
    if (i < entries_.size() && entries_[i].adv == adv) {
      Entry& e = entries_[i];
      if (e.pub != nullptr) total += adv_rate(e, v, *e.pub);
      e.bits.merge(v);
    } else {
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      Entry{adv, v, resolve(table, adv)});
    }
    ++i;
  }
  return total;
}

SubscriptionProfile UnionProfile::to_subscription_profile() const {
  SubscriptionProfile out;
  for (const Entry& e : entries_) out.merge_vector(e.adv, e.bits);
  return out;
}

}  // namespace greenps
