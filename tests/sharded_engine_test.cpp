// ShardedEventLoop driven directly, without a Simulation on top: chains of
// keyed events hop between shards under the lookahead contract, and each
// shard's (time, key) execution log must equal the one-shard run of the
// same chains filtered to that shard.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/sharded_engine.hpp"

namespace greenps {
namespace {

constexpr SimTime kLookahead = 500;
constexpr std::uint64_t kChainClass = 2;

struct Fired {
  SimTime time;
  std::uint64_t chain;
  std::uint64_t hop;
  std::size_t shard;  // logical shard the event ran for
  bool operator==(const Fired& o) const {
    return time == o.time && chain == o.chain && hop == o.hop && shard == o.shard;
  }
};

// Where hop `hop` of `chain`, firing on logical shard `shard` at `now`,
// sends the next hop: {destination shard, delay}. A cross-shard hop must
// wait at least kLookahead.
using Hop = std::pair<std::size_t, SimTime>;
using Rule = std::function<Hop(std::uint64_t chain, std::uint64_t hop, std::size_t shard)>;

Hop hop_to(std::uint64_t shard, std::uint64_t delay) {
  return {static_cast<std::size_t>(shard), static_cast<SimTime>(delay)};
}

// `logical` shards of chain traffic mapped onto a loop of `physical`
// shards: physical == logical is the sharded run, physical == 1 the serial
// reference. Each physical shard logs only on its own thread.
class Chains {
 public:
  Chains(std::size_t logical, std::size_t physical, std::uint64_t hops, Rule rule)
      : logical_(logical), loop_(physical), pool_(physical), logs_(physical), hops_(hops),
        rule_(std::move(rule)) {}

  void seed(std::uint64_t chain, std::size_t shard, SimTime at) {
    loop_.queue(physical(shard))
        .schedule_keyed(at, key(chain, 0), [this, chain, shard] { fire(chain, 0, shard); });
  }

  void run(SimTime end) {
    loop_.run(end, kLookahead, loop_.shard_count() > 1 ? &pool_ : nullptr);
  }

  [[nodiscard]] std::vector<Fired> log_of(std::size_t shard) const {
    std::vector<Fired> out;
    for (const Fired& f : logs_[physical(shard)]) {
      if (f.shard == shard) out.push_back(f);
    }
    return out;
  }
  [[nodiscard]] std::size_t logged() const {
    std::size_t total = 0;
    for (const auto& log : logs_) total += log.size();
    return total;
  }
  [[nodiscard]] ShardedEventLoop& loop() { return loop_; }
  [[nodiscard]] std::size_t logical() const { return logical_; }

 private:
  [[nodiscard]] std::size_t physical(std::size_t shard) const {
    return shard % loop_.shard_count();
  }
  static EventKey key(std::uint64_t chain, std::uint64_t hop) {
    return EventKey{(kChainClass << 56) | chain, hop};
  }

  void fire(std::uint64_t chain, std::uint64_t hop, std::size_t shard) {
    const std::size_t src = physical(shard);
    const SimTime now = loop_.queue(src).now();
    logs_[src].push_back(Fired{now, chain, hop, shard});
    if (hop + 1 >= hops_) return;
    const auto [to, delay] = rule_(chain, hop, shard);
    EXPECT_TRUE(to == shard || delay >= kLookahead);
    loop_.post(src, physical(to), now + delay, key(chain, hop + 1),
               [this, chain, hop, to] { fire(chain, hop + 1, to); });
  }

  std::size_t logical_;
  ShardedEventLoop loop_;
  ThreadPool pool_;
  std::vector<std::vector<Fired>> logs_;  // per physical shard
  std::uint64_t hops_;
  Rule rule_;
};

// Every logical shard's log in `sharded` equals the serial run's log
// filtered to that shard, and both executed the same number of events.
void expect_same_as_serial(Chains& sharded, Chains& serial) {
  for (std::size_t s = 0; s < sharded.logical(); ++s) {
    SCOPED_TRACE(testing::Message() << "shard " << s);
    const std::vector<Fired> got = sharded.log_of(s);
    const std::vector<Fired> want = serial.log_of(s);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want);
  }
  EXPECT_EQ(sharded.logged(), serial.logged());
  EXPECT_EQ(sharded.loop().executed(), serial.loop().executed());
}

std::uint64_t mix(std::uint64_t chain, std::uint64_t hop) {
  std::uint64_t x = (chain + 1) * 0x9E3779B97F4A7C15ull ^ (hop + 1) * 0xC2B2AE3D27D4EB4Full;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 32);
}

TEST(ShardedEventLoop, PingPongOnLookaheadBoundaryMatchesOneShard) {
  // Every hop crosses to the next shard exactly one lookahead later, so
  // chains started at the window anchor post exactly onto the horizon.
  constexpr std::uint64_t kHops = 100;
  constexpr std::uint64_t kChains = 16;
  const auto ring = [](std::size_t n) {
    return [n](std::uint64_t, std::uint64_t, std::size_t shard) {
      return Hop{(shard + 1) % n, kLookahead};
    };
  };
  for (const std::size_t n : {2, 3, 4, 8}) {
    SCOPED_TRACE(testing::Message() << n << " shards");
    Chains sharded(n, n, kHops, ring(n));
    Chains serial(n, 1, kHops, ring(n));
    for (Chains* c : {&sharded, &serial}) {
      for (std::uint64_t i = 0; i < kChains; ++i) c->seed(i, i % n, static_cast<SimTime>(i % 4));
    }
    sharded.run(1'000'000);
    serial.run(1'000'000);
    expect_same_as_serial(sharded, serial);
    EXPECT_EQ(sharded.logged(), kChains * kHops);
    // Hop h of every chain lies in [h * L, h * L + 3]: one window per hop.
    EXPECT_EQ(sharded.loop().windows(), kHops);
    EXPECT_EQ(serial.loop().windows(), 0u);
  }
}

TEST(ShardedEventLoop, ShardFedOnlyByPostsIsWokenByTheVote) {
  // All chains start on shard 0 and hop around the ring: at the end of every
  // window each queue is empty and the only pending work sits in the
  // outbox lanes, so the next window's anchor comes from the posters' vote.
  constexpr std::uint64_t kHops = 40;
  for (const std::size_t n : {2, 3, 4, 8}) {
    SCOPED_TRACE(testing::Message() << n << " shards");
    const Rule rule = [n](std::uint64_t chain, std::uint64_t, std::size_t shard) {
      return hop_to((shard + 1) % n, kLookahead + chain);
    };
    Chains sharded(n, n, kHops, rule);
    Chains serial(n, 1, kHops, rule);
    for (Chains* c : {&sharded, &serial}) {
      for (std::uint64_t i = 0; i < 3; ++i) c->seed(i, 0, 0);
    }
    sharded.run(1'000'000);
    serial.run(1'000'000);
    expect_same_as_serial(sharded, serial);
    EXPECT_EQ(sharded.logged(), 3 * kHops);
    for (std::size_t s = 0; s < n; ++s) EXPECT_TRUE(sharded.loop().queue(s).empty());
  }
}

TEST(ShardedEventLoop, PostsPastEndRunInTheNextRun) {
  // Mixed local and cross-shard hops; the run is cut into uneven pieces
  // whose ends fall mid-window, so the last window of each piece posts
  // events past its end.
  constexpr std::uint64_t kHops = 120;
  const auto make_rule = [](std::size_t n) -> Rule {
    return [n](std::uint64_t chain, std::uint64_t hop, std::size_t shard) {
      const std::uint64_t r = mix(chain, hop);
      if (r % 3 == 0) return hop_to(shard, 1 + (r >> 8) % 97);
      return hop_to((shard + 1 + (r >> 16) % (n - 1)) % n, kLookahead + (r >> 24) % 3);
    };
  };
  for (const std::size_t n : {2, 3, 4, 8}) {
    SCOPED_TRACE(testing::Message() << n << " shards");
    Chains sharded(n, n, kHops, make_rule(n));
    Chains serial(n, 1, kHops, make_rule(n));
    for (Chains* c : {&sharded, &serial}) {
      for (std::uint64_t i = 0; i < 12; ++i) c->seed(i, i % n, static_cast<SimTime>(7 * i));
    }
    SimTime end = 0;
    std::size_t windows = 0;
    for (const SimTime piece : {3 * kLookahead + 250, kLookahead / 2, 11 * kLookahead + 1,
                                kLookahead - 1, SimTime{1'000'000}}) {
      end += piece;
      sharded.run(end);
      serial.run(end);
      for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(sharded.loop().queue(s).now(), end);
        EXPECT_GT(sharded.loop().queue(s).next_time(), end);
        for (const Fired& f : sharded.log_of(s)) EXPECT_LE(f.time, end);
      }
      expect_same_as_serial(sharded, serial);
      EXPECT_GE(sharded.loop().windows(), windows);  // summed over runs
      windows = sharded.loop().windows();
    }
    EXPECT_EQ(sharded.logged(), 12 * kHops);
  }
}

TEST(ShardedEventLoop, MixedTrafficLogEqualsOneShardRun) {
  // Half the hops cross, some exactly at the lookahead; local hops keep
  // several events per shard per window.
  constexpr std::uint64_t kHops = 150;
  constexpr std::uint64_t kChains = 32;
  for (const std::size_t n : {2, 3, 4, 8}) {
    SCOPED_TRACE(testing::Message() << n << " shards");
    const Rule rule = [n](std::uint64_t chain, std::uint64_t hop, std::size_t shard) {
      const std::uint64_t r = mix(chain, hop);
      if (r % 2 == 0) return hop_to(shard, 1 + (r >> 8) % 200);
      return hop_to((r >> 16) % n, kLookahead + ((r >> 24) % 4 == 0 ? 0 : (r >> 32) % 50));
    };
    Chains sharded(n, n, kHops, rule);
    Chains serial(n, 1, kHops, rule);
    for (Chains* c : {&sharded, &serial}) {
      for (std::uint64_t i = 0; i < kChains; ++i) {
        c->seed(i, static_cast<std::size_t>(mix(i, 999) % n), static_cast<SimTime>(i % 5));
      }
    }
    sharded.run(2'000'000);
    serial.run(2'000'000);
    expect_same_as_serial(sharded, serial);
    EXPECT_EQ(sharded.logged(), kChains * kHops);
    EXPECT_EQ(sharded.loop().executed(), kChains * kHops);
  }
}

TEST(ShardedEventLoop, WindowsCountsOpenedWindowsAcrossRunsUntilReset) {
  // One chain bouncing between two shards at exactly the lookahead: one
  // event per window, so windows() counts hops.
  const Rule bounce = [](std::uint64_t, std::uint64_t, std::size_t shard) {
    return Hop{1 - shard, kLookahead};
  };
  Chains c(2, 2, 10, bounce);
  c.seed(0, 0, 0);
  c.run(4 * kLookahead);  // hops at 0, L, .., 4L: the window at 4L is inclusive
  EXPECT_EQ(c.logged(), 5u);
  EXPECT_EQ(c.loop().windows(), 5u);
  c.run(100 * kLookahead);
  EXPECT_EQ(c.logged(), 10u);
  EXPECT_EQ(c.loop().windows(), 10u);
  c.run(200 * kLookahead);  // nothing left: the opening vote stops the run
  EXPECT_EQ(c.loop().windows(), 10u);
  c.loop().reset(2);
  EXPECT_EQ(c.loop().windows(), 0u);
  EXPECT_EQ(c.loop().executed(), 0u);
}

TEST(ShardedEventLoop, OwnerPostOutsideRunSchedulesDirectly) {
  ShardedEventLoop loop(3);
  ThreadPool pool(3);
  std::vector<SimTime> ran;
  loop.post(0, 2, 700, EventKey{kChainClass << 56, 0},
            [&] { ran.push_back(loop.queue(2).now()); });
  EXPECT_EQ(loop.queue(2).next_time(), 700);
  EXPECT_TRUE(loop.queue(0).empty());
  loop.run(1000, kLookahead, &pool);
  EXPECT_EQ(ran, std::vector<SimTime>{700});
  EXPECT_EQ(loop.executed(), 1u);
  EXPECT_EQ(loop.windows(), 1u);
}

}  // namespace
}  // namespace greenps
