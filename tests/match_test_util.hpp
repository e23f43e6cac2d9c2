// Shared helper for matching tests: the engine matches only through its
// snapshots, so tests that check match sets build one per query.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "matching/matching_engine.hpp"

namespace greenps::testutil {

// Handles of every filter in `eng` matching `pub`, ascending, through a
// freshly built snapshot.
inline std::vector<MatchingEngine::Handle> snapshot_match(const MatchingEngine& eng,
                                                          const Publication& pub) {
  const MatchingEngine::Snapshot snap = eng.build_snapshot();
  std::vector<std::uint32_t> dense;
  snap.match_into(pub, dense);
  std::vector<MatchingEngine::Handle> out;
  out.reserve(dense.size());
  for (const std::uint32_t i : dense) out.push_back(snap.subs[i].handle);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace greenps::testutil
