#include "matching/relations.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <vector>

namespace greenps {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-attribute normal form of a conjunction of predicates.
struct AttrConstraint {
  // Numeric interval [lo, hi] with open/closed ends.
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;
  bool numeric = false;  // any numeric predicate present

  std::optional<std::string> str_eq;
  std::vector<std::string> prefixes;
  std::vector<std::string> suffixes;
  std::vector<std::string> contains;
  bool stringy = false;  // any string predicate present

  std::optional<bool> bool_eq;
  bool boolish = false;

  std::vector<Value> neqs;
  bool present = false;        // at least one predicate names the attribute
  bool contradictory = false;  // provably empty

  void tighten_lo(double v, bool open) {
    if (v > lo || (v == lo && open && !lo_open)) {
      lo = v;
      lo_open = open;
    }
  }
  void tighten_hi(double v, bool open) {
    if (v < hi || (v == hi && open && !hi_open)) {
      hi = v;
      hi_open = open;
    }
  }
  [[nodiscard]] bool interval_empty() const {
    return lo > hi || (lo == hi && (lo_open || hi_open));
  }
};

using NormalForm = std::map<std::string, AttrConstraint>;

void absorb(AttrConstraint& c, const Predicate& p) {
  c.present = true;
  switch (p.op) {
    case Op::kPresent:
      return;
    case Op::kNeq:
      c.neqs.push_back(p.value);
      return;
    case Op::kEq:
      if (p.value.is_numeric()) {
        c.numeric = true;
        c.tighten_lo(p.value.as_double(), false);
        c.tighten_hi(p.value.as_double(), false);
      } else if (p.value.is_string()) {
        c.stringy = true;
        if (c.str_eq && *c.str_eq != p.value.as_string()) c.contradictory = true;
        c.str_eq = p.value.as_string();
      } else {
        c.boolish = true;
        if (c.bool_eq && *c.bool_eq != p.value.as_bool()) c.contradictory = true;
        c.bool_eq = p.value.as_bool();
      }
      return;
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      if (p.value.is_numeric()) {
        c.numeric = true;
        const double v = p.value.as_double();
        if (p.op == Op::kLt) c.tighten_hi(v, true);
        if (p.op == Op::kLe) c.tighten_hi(v, false);
        if (p.op == Op::kGt) c.tighten_lo(v, true);
        if (p.op == Op::kGe) c.tighten_lo(v, false);
      } else if (p.value.is_string()) {
        // Lexicographic string ranges: track conservatively as "stringy"
        // without an interval (rare in the evaluated workloads).
        c.stringy = true;
      }
      return;
    }
    case Op::kPrefix:
      c.stringy = true;
      c.prefixes.push_back(p.value.as_string());
      return;
    case Op::kSuffix:
      c.stringy = true;
      c.suffixes.push_back(p.value.as_string());
      return;
    case Op::kContains:
      c.stringy = true;
      c.contains.push_back(p.value.as_string());
      return;
  }
}

NormalForm normalize(const Filter& f) {
  NormalForm nf;
  for (const auto& p : f.predicates()) absorb(nf[p.attribute], p);
  for (auto& [attr, c] : nf) {
    (void)attr;
    if (c.numeric && (c.stringy || c.boolish)) c.contradictory = true;
    if (c.stringy && c.boolish) c.contradictory = true;
    if (c.numeric && c.interval_empty()) c.contradictory = true;
    if (c.str_eq) {
      for (const auto& pre : c.prefixes) {
        if (!c.str_eq->starts_with(pre)) c.contradictory = true;
      }
      for (const auto& suf : c.suffixes) {
        if (!c.str_eq->ends_with(suf)) c.contradictory = true;
      }
      for (const auto& sub : c.contains) {
        if (c.str_eq->find(sub) == std::string::npos) c.contradictory = true;
      }
      for (const auto& v : c.neqs) {
        if (v.is_string() && v.as_string() == *c.str_eq) c.contradictory = true;
      }
    }
    if (c.numeric && c.lo == c.hi && !c.lo_open && !c.hi_open) {
      for (const auto& v : c.neqs) {
        if (v.is_numeric() && v.as_double() == c.lo) c.contradictory = true;
      }
    }
  }
  return nf;
}

// Is the (possibly point-) value pinned by `x` excluded by one of `y`'s
// not-equals predicates?
bool pinned_value_excluded(const AttrConstraint& x, const AttrConstraint& y) {
  if (x.str_eq) {
    for (const auto& v : y.neqs) {
      if (v.is_string() && v.as_string() == *x.str_eq) return true;
    }
  }
  if (x.numeric && x.lo == x.hi && !x.lo_open && !x.hi_open) {
    for (const auto& v : y.neqs) {
      if (v.is_numeric() && v.as_double() == x.lo) return true;
    }
  }
  if (x.bool_eq) {
    for (const auto& v : y.neqs) {
      if (v.is_bool() && v.as_bool() == *x.bool_eq) return true;
    }
  }
  return false;
}

// Could a single value satisfy both attribute constraints?
bool attr_intersects(const AttrConstraint& a, const AttrConstraint& b) {
  if (a.contradictory || b.contradictory) return false;
  if (pinned_value_excluded(a, b) || pinned_value_excluded(b, a)) return false;
  const bool a_typed = a.numeric || a.stringy || a.boolish;
  const bool b_typed = b.numeric || b.stringy || b.boolish;
  if (a_typed && b_typed) {
    if (a.numeric != b.numeric || a.stringy != b.stringy || a.boolish != b.boolish) {
      return false;  // value cannot be of two kinds
    }
  }
  if (a.numeric && b.numeric) {
    const double lo = std::max(a.lo, b.lo);
    const double hi = std::min(a.hi, b.hi);
    const bool lo_open = (lo == a.lo && a.lo_open) || (lo == b.lo && b.lo_open);
    const bool hi_open = (hi == a.hi && a.hi_open) || (hi == b.hi && b.hi_open);
    if (lo > hi || (lo == hi && (lo_open || hi_open))) return false;
    // Point interval excluded by a neq?
    if (lo == hi) {
      for (const auto* side : {&a, &b}) {
        for (const auto& v : side->neqs) {
          if (v.is_numeric() && v.as_double() == lo) return false;
        }
      }
    }
    return true;
  }
  if (a.stringy && b.stringy) {
    if (a.str_eq && b.str_eq) return *a.str_eq == *b.str_eq;
    for (const auto* eq_side : {&a, &b}) {
      const auto* other = eq_side == &a ? &b : &a;
      if (!eq_side->str_eq) continue;
      const auto& s = *eq_side->str_eq;
      for (const auto& pre : other->prefixes) {
        if (!s.starts_with(pre)) return false;
      }
      for (const auto& suf : other->suffixes) {
        if (!s.ends_with(suf)) return false;
      }
      for (const auto& sub : other->contains) {
        if (s.find(sub) == std::string::npos) return false;
      }
      for (const auto& v : other->neqs) {
        if (v.is_string() && v.as_string() == s) return false;
      }
      return true;
    }
    // prefix-vs-prefix: compatible iff one prefixes the other.
    for (const auto& pa : a.prefixes) {
      for (const auto& pb : b.prefixes) {
        if (!pa.starts_with(pb) && !pb.starts_with(pa)) return false;
      }
    }
    return true;  // conservative for suffix/contains combinations
  }
  if (a.boolish && b.boolish) {
    if (a.bool_eq && b.bool_eq) return *a.bool_eq == *b.bool_eq;
    return true;
  }
  return true;  // one side only requires presence / is untyped
}

// Does constraint `outer` provably contain constraint `inner`?
bool attr_covers(const AttrConstraint& outer, const AttrConstraint& inner) {
  if (inner.contradictory) return true;  // empty set is contained in anything
  if (outer.contradictory) return false;
  // Presence-only outer constraint: inner names the attribute, so any
  // matching publication carries it.
  const bool outer_typed = outer.numeric || outer.stringy || outer.boolish;
  if (!outer_typed && outer.neqs.empty()) return true;
  if (outer.numeric) {
    if (!inner.numeric) return false;
    const bool lo_ok = inner.lo > outer.lo || (inner.lo == outer.lo && (!outer.lo_open || inner.lo_open));
    const bool hi_ok = inner.hi < outer.hi || (inner.hi == outer.hi && (!outer.hi_open || inner.hi_open));
    if (!lo_ok || !hi_ok) return false;
  }
  if (outer.stringy) {
    if (!inner.stringy || !inner.str_eq) {
      // Only equality-constrained inner filters are provably contained in
      // prefix/suffix/contains outers.
      if (outer.str_eq) return inner.str_eq && *inner.str_eq == *outer.str_eq;
      return false;
    }
    const auto& s = *inner.str_eq;
    if (outer.str_eq && *outer.str_eq != s) return false;
    for (const auto& pre : outer.prefixes) {
      if (!s.starts_with(pre)) return false;
    }
    for (const auto& suf : outer.suffixes) {
      if (!s.ends_with(suf)) return false;
    }
    for (const auto& sub : outer.contains) {
      if (s.find(sub) == std::string::npos) return false;
    }
  }
  if (outer.boolish) {
    if (!inner.boolish || !inner.bool_eq) return false;
    if (outer.bool_eq && *outer.bool_eq != *inner.bool_eq) return false;
  }
  // Every value outer excludes must be excluded by inner too.
  for (const auto& v : outer.neqs) {
    bool excluded = false;
    for (const auto& iv : inner.neqs) {
      if (iv == v) excluded = true;
    }
    if (!excluded && v.is_numeric() && inner.numeric) {
      const double d = v.as_double();
      if (d < inner.lo || d > inner.hi || (d == inner.lo && inner.lo_open) ||
          (d == inner.hi && inner.hi_open)) {
        excluded = true;
      }
    }
    if (!excluded && v.is_string() && inner.str_eq && *inner.str_eq != v.as_string()) {
      excluded = true;
    }
    if (!excluded) return false;
  }
  return true;
}

}  // namespace

bool unsatisfiable(const Filter& f) {
  const auto nf = normalize(f);
  return std::any_of(nf.begin(), nf.end(),
                     [](const auto& kv) { return kv.second.contradictory; });
}

bool intersects(const Filter& a, const Filter& b) {
  const auto na = normalize(a);
  const auto nb = normalize(b);
  for (const auto& [attr, ca] : na) {
    if (ca.contradictory) return false;
    const auto it = nb.find(attr);
    if (it != nb.end() && !attr_intersects(ca, it->second)) return false;
  }
  for (const auto& [attr, cb] : nb) {
    (void)attr;
    if (cb.contradictory) return false;
  }
  return true;
}

bool may_intersect(const CompiledFilter& a, const CompiledFilter& b) {
  const auto is_nan = [](const ValueKey& k) {
    return k.tag == ValueKey::Tag::kNumber && std::isnan(std::bit_cast<double>(k.bits));
  };
  for (const CompiledFilter::EqKey& pa : a.eq_keys()) {
    if (is_nan(pa.key)) continue;
    for (const CompiledFilter::EqKey& pb : b.eq_keys()) {
      if (pa.attr == pb.attr && !(pa.key == pb.key) && !is_nan(pb.key)) return false;
    }
  }
  return true;
}

bool covers(const Filter& sup, const Filter& sub) {
  const auto nsup = normalize(sup);
  const auto nsub = normalize(sub);
  for (const auto& [attr, cs] : nsup) {
    const auto it = nsub.find(attr);
    if (it == nsub.end()) return false;  // sub may match pubs sup rejects
    if (!attr_covers(cs, it->second)) return false;
  }
  return true;
}

}  // namespace greenps
