// Pre-resolved form of a Filter for the matching hot path.
//
// A broker evaluates the same filter against thousands of publications;
// Filter::matches re-resolves each predicate's attribute by string and
// compares Values through the variant every time. CompiledFilter resolves
// once at build time: attributes become interned ids (matched against the
// publication's precomputed AttrKeys with integer compares), equality
// becomes a ValueKey compare, and numeric ranges compare raw doubles. The
// rare predicates with no fast form (string prefix/suffix/contains,
// negation) keep a copy of the original predicate and take the slow path.
//
// A CompiledFilter is an immutable, shared record: the source filter, the
// predicate array and the equality keys live in one reference-counted block,
// so copies (one per routing table and published snapshot that holds the
// filter) cost a refcount, not an allocation. The predicate array pointer is
// stored inline, so matches() reaches the predicates through exactly one
// indirection.
//
// matches() returns exactly what Filter::matches returns for every
// publication (the differential test pits one against the other).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "language/interner.hpp"
#include "language/publication.hpp"
#include "language/subscription.hpp"

namespace greenps {

class CompiledFilter {
 public:
  enum class Kind : std::uint8_t {
    kEqKey,    // ValueKey equality (exact except NaN, which compiles to kSlow)
    kLt,       // numeric comparisons against `num`
    kLe,
    kGt,
    kGe,
    kPresent,  // attribute presence is the whole test
    kSlow,     // evaluate `slow` against the attribute's Value
  };

  struct Pred {
    InternId attr = kNoIntern;
    Kind kind = Kind::kSlow;
    ValueKey key;      // kEqKey
    double num = 0;    // kLt..kGe
    Predicate slow;    // kSlow
  };

  // One equality predicate in interned form. Two filters pinning the same
  // attribute to different keys can never match the same publication.
  struct EqKey {
    InternId attr = kNoIntern;
    ValueKey key;

    friend bool operator==(const EqKey&, const EqKey&) = default;
  };
  struct EqKeyHash {
    std::size_t operator()(const EqKey& k) const noexcept {
      return ValueKeyHash{}(k.key) ^ (static_cast<std::size_t>(k.attr) * 0x9e3779b97f4a7c15ULL);
    }
  };

  CompiledFilter() = default;
  explicit CompiledFilter(const Filter& f);

  [[nodiscard]] bool matches(const Publication& pub) const;
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<const Pred> preds() const { return {preds_, size_}; }

  // The filter this record was compiled from (empty when default-built).
  [[nodiscard]] const Filter& source() const;
  // Every Op::kEq predicate in predicate order, NaN values included under
  // their raw key.
  [[nodiscard]] std::span<const EqKey> eq_keys() const;

 private:
  struct Rep {
    Filter source;
    std::vector<Pred> preds;
    std::vector<EqKey> eqs;
  };

  std::shared_ptr<const Rep> rep_;
  const Pred* preds_ = nullptr;  // rep_->preds.data(), kept alive by rep_
  std::size_t size_ = 0;
};

}  // namespace greenps
