// Language-level relations between filters.
//
// `covers` and `intersects` drive filter-based routing (subscriptions are
// propagated only toward intersecting advertisements) and validation of the
// bit-vector-level relations. Both are *conservative in the safe direction*:
// `intersects` may report true for disjoint filters with exotic string
// operators (extra routing, never lost messages), and `covers` only reports
// true when containment is provable.
#pragma once

#include "language/subscription.hpp"
#include "matching/compiled_filter.hpp"

namespace greenps {

// True iff some publication could match both filters.
[[nodiscard]] bool intersects(const Filter& a, const Filter& b);

// Cheap necessary condition for intersects(): false when both filters pin
// one attribute by equality to different non-NaN values. intersects() stays
// the decider for every pair this lets through. (A NaN equality constrains
// nothing in intersects(), so it never rules a pair out here.)
[[nodiscard]] bool may_intersect(const CompiledFilter& a, const CompiledFilter& b);

// True iff every publication matching `sub` provably matches `sup`.
[[nodiscard]] bool covers(const Filter& sup, const Filter& sub);

// True iff no publication can match `f` (internally contradictory).
[[nodiscard]] bool unsatisfiable(const Filter& f);

}  // namespace greenps
