#include "matching/compiled_filter.hpp"

#include <bit>
#include <cmath>

namespace greenps {

CompiledFilter::CompiledFilter(const Filter& f) {
  auto rep = std::make_shared<Rep>();
  rep->source = f;
  rep->preds.reserve(f.predicates().size());
  for (const Predicate& p : f.predicates()) {
    Pred cp;
    cp.attr = Interner::global().intern(p.attribute);
    switch (p.op) {
      case Op::kEq:
        // NaN is the one value where bit equality and Value::equals disagree
        // (a NaN never equals itself); keep it on the slow path.
        cp.key = value_key(p.value);
        if (p.value.is_numeric() && std::isnan(p.value.as_double())) {
          cp.kind = Kind::kSlow;
          cp.slow = p;
        } else {
          cp.kind = Kind::kEqKey;
        }
        rep->eqs.push_back(EqKey{cp.attr, cp.key});
        break;
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe:
        // Numeric ranges compare raw doubles; string ranges (lexicographic
        // in Value::less_than) stay on the slow path.
        if (p.value.is_numeric()) {
          switch (p.op) {
            case Op::kLt: cp.kind = Kind::kLt; break;
            case Op::kLe: cp.kind = Kind::kLe; break;
            case Op::kGt: cp.kind = Kind::kGt; break;
            default: cp.kind = Kind::kGe; break;
          }
          cp.num = p.value.as_double();
        } else {
          cp.kind = Kind::kSlow;
          cp.slow = p;
        }
        break;
      case Op::kPresent:
        cp.kind = Kind::kPresent;
        break;
      default:
        cp.kind = Kind::kSlow;
        cp.slow = p;
        break;
    }
    rep->preds.push_back(std::move(cp));
  }
  preds_ = rep->preds.data();
  size_ = rep->preds.size();
  rep_ = std::move(rep);
}

const Filter& CompiledFilter::source() const {
  static const Filter kEmpty;
  return rep_ != nullptr ? rep_->source : kEmpty;
}

std::span<const CompiledFilter::EqKey> CompiledFilter::eq_keys() const {
  if (rep_ == nullptr) return {};
  return rep_->eqs;
}

bool CompiledFilter::matches(const Publication& pub) const {
  const auto& keys = pub.attr_keys();
  const std::size_t n = keys.size();
  for (const Pred& p : preds()) {
    // Publications carry ~a dozen attributes; a linear scan over the
    // precomputed 32-bit ids beats binary search on the name strings.
    std::size_t j = 0;
    while (j < n && keys[j].attr != p.attr) ++j;
    if (j == n) return false;
    const ValueKey& pk = keys[j].key;
    switch (p.kind) {
      case Kind::kEqKey:
        if (!(pk == p.key)) return false;
        break;
      case Kind::kLt:
        if (pk.tag != ValueKey::Tag::kNumber ||
            !(std::bit_cast<double>(pk.bits) < p.num)) {
          return false;
        }
        break;
      case Kind::kLe:
        if (pk.tag != ValueKey::Tag::kNumber ||
            !(std::bit_cast<double>(pk.bits) <= p.num)) {
          return false;
        }
        break;
      case Kind::kGt:
        if (pk.tag != ValueKey::Tag::kNumber ||
            !(std::bit_cast<double>(pk.bits) > p.num)) {
          return false;
        }
        break;
      case Kind::kGe:
        if (pk.tag != ValueKey::Tag::kNumber ||
            !(std::bit_cast<double>(pk.bits) >= p.num)) {
          return false;
        }
        break;
      case Kind::kPresent:
        break;
      case Kind::kSlow:
        if (!p.slow.matches(pub.attrs()[j].second)) return false;
        break;
    }
  }
  return true;
}

}  // namespace greenps
