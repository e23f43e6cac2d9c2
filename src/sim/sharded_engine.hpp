// Conservative parallel driver for a set of per-shard event queues.
//
// Chandy–Misra–Bryant-style windowing without null messages: every shard
// advances to a common safe horizon H = min(next event time over all
// shards) + lookahead and drains its own queue strictly below H. The caller
// guarantees the lookahead contract: any event posted from shard A to shard
// B carries a timestamp at least `lookahead` after the posting event's own
// timestamp (in the simulator, one network-link latency plus the minimum
// matching service time), hence at or after H. So no exchanged event can
// land inside the window that produced it, and each shard's (time, key)
// execution order — and with content-derived EventKeys, the entire
// simulation — is bit-identical to a single-queue run.
//
// One barrier crossing per window. Windows alternate parity: during window
// k a shard posts cross-shard events into its out[k & 1] lanes and, after
// draining, votes min(own next event, earliest event it posted) into
// next_times_[(k + 1) & 1] — the next window's anchor, computed before the
// exchange. After the crossing each shard merges the out[k & 1] lanes
// addressed to it and reads the votes to open window k + 1 (or stop). A
// lane or vote slot is rewritten only two windows later, after a crossing
// that every reader has passed, so the handoff needs no other
// synchronization.
//
// Threads: run() drives all shards through a ThreadPool in static-slot
// mode (shard s on thread s, the caller being shard 0). Outside run() the
// owner thread may touch any queue directly. With one shard, run() is a
// plain serial drain with zero synchronization.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace greenps {

// Sense-reversing spin barrier for the window loop: one crossing per
// lookahead window, a few hundred nanoseconds apart, far cheaper than futex
// sleeps at this cadence.
// Yields after a bounded spin so oversubscribed runs (more shards than
// cores) still progress at scheduler speed instead of burning quanta.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t parties) : parties_(parties) {}

  void arrive_and_wait();

 private:
  const std::size_t parties_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> phase_{0};
};

class ShardedEventLoop {
 public:
  explicit ShardedEventLoop(std::size_t shards = 1) { reset(shards); }

  // Drop every queue and outbox and rebuild with `shards` shards.
  void reset(std::size_t shards);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] EventQueue& queue(std::size_t s) { return shards_[s].queue; }
  [[nodiscard]] const EventQueue& queue(std::size_t s) const { return shards_[s].queue; }
  // Shard 0's clock; all shards agree outside run().
  [[nodiscard]] SimTime now() const { return shards_[0].queue.now(); }
  // Total events executed across all shards.
  [[nodiscard]] std::size_t executed() const;
  // Lookahead windows opened, summed over run() calls since reset(); the
  // one-shard serial path opens none.
  [[nodiscard]] std::size_t windows() const { return windows_; }

  // Schedule onto shard `dst` from shard `src`'s event handler during
  // run(). Cross-shard posts land in a single-writer outbox lane and merge
  // into `dst` after the window's barrier crossing; `time` must respect the
  // lookahead contract (at or after the open window's horizon). src == dst,
  // and any post made outside run(), schedules directly.
  void post(std::size_t src, std::size_t dst, SimTime time, EventKey key,
            EventQueue::Action action);

  // Drain every shard to `end` (inclusive), leaving all clocks at `end`.
  // Events scheduled past `end` (including exchanged ones) stay queued for
  // the next run. With more than one shard, `lookahead` must be > 0 and
  // `pool` must provide at least shard_count() threads. `on_slot_begin` /
  // `on_slot_end` (optional) run on each shard's thread around its drain —
  // the simulator uses them to harvest thread-local counters.
  void run(SimTime end, SimTime lookahead, ThreadPool* pool,
           const std::function<void(std::size_t)>& on_slot_begin = {},
           const std::function<void(std::size_t)>& on_slot_end = {});

 private:
  struct Posted {
    SimTime time;
    EventKey key;
    EventQueue::Action action;
  };
  // Cache-line aligned so one shard's heap churn does not false-share with
  // its neighbors' queue headers.
  struct alignas(64) Shard {
    EventQueue queue;
    // out[parity][dst]: events posted to shard `dst` during a window of that
    // parity, written only by this shard's thread, drained only by `dst`
    // after the window's barrier crossing.
    std::array<std::vector<std::vector<Posted>>, 2> out;
    // The window this shard is draining; touched only by its own thread.
    std::size_t parity = 0;
    SimTime horizon = 0;                     // cross-shard posts land at/after it
    SimTime post_min = EventQueue::kNoEvent;  // earliest cross-shard post
  };

  void run_windows(SimTime end, SimTime lookahead, std::size_t slot, SpinBarrier& barrier);

  std::vector<Shard> shards_;
  // next_times_[parity][shard]: each shard's vote for the anchor of the
  // window of that parity.
  std::array<std::vector<SimTime>, 2> next_times_;
  std::size_t windows_ = 0;  // written by slot 0 only during run()
  bool running_ = false;     // written by the owner thread outside the slots
};

}  // namespace greenps
