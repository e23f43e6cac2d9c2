#include "alloc/cram.hpp"

#include <utility>

#include "alloc/cram_run.hpp"

namespace greenps {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

GifPairKey make_gif_pair_key(std::uint64_t a, std::uint64_t b) {
  if (a > b) std::swap(a, b);
  return GifPairKey{a, b};
}

std::size_t GifPairKeyHash::operator()(const GifPairKey& k) const {
  return static_cast<std::size_t>(splitmix64(k.lo) ^ splitmix64(~k.hi));
}

CramOptions resolve_cram_options(const CramOptions& options) {
  CramOptions opts = options;
  // Optimization 2 structures the search over the poset of GIFs, so it
  // requires optimization 1 (without grouping, equal profiles would collide
  // on one poset node and shadow each other).
  if (!opts.gif_grouping) opts.poset_pruning = false;
  return opts;
}

CramResult cram_allocate(std::vector<AllocBroker> pool, std::vector<SubUnit> units,
                         const PublisherTable& table, const CramOptions& options) {
  cram_detail::CramRun run(std::move(pool), std::move(units), table,
                           resolve_cram_options(options));
  return run.run();
}

}  // namespace greenps
