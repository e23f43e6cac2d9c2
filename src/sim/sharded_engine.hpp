// Conservative parallel driver for a set of per-shard event queues.
//
// Chandy–Misra–Bryant-style windowing without null messages: every shard
// advances to a common safe horizon H = min(next event time over all
// shards) + lookahead, drains its own queue strictly below H, and then the
// shards exchange cross-shard events at a barrier before opening the next
// window. The caller guarantees the lookahead contract: any event posted
// from shard A to shard B carries a timestamp at least `lookahead` after
// the posting event's own timestamp (in the simulator, one network-link
// latency plus the minimum matching service time). Under that contract no
// exchanged event can land inside the window that produced it, so each
// shard's (time, key) execution order — and with content-derived EventKeys,
// the entire simulation — is bit-identical to a single-queue run.
//
// Threads: run() drives all shards through a ThreadPool in static-slot
// mode (shard s on thread s, the caller being shard 0). Outside run() the
// owner thread may touch any queue directly. With one shard, run() is a
// plain serial drain with zero synchronization.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace greenps {

// Sense-reversing spin barrier for the window loop: the crossings are a few
// hundred nanoseconds apart, far cheaper than futex sleeps at this cadence.
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

  // Schedule onto shard `dst` from shard `src`'s event handler during
  // run(). Cross-shard posts land in a lock-free outbox lane and merge into
  // `dst` at the next window barrier; `time` must respect the lookahead
  // contract. src == dst schedules directly.
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
    // out[dst]: events posted to shard `dst` during the current window,
    // written only by this shard's thread, drained only by `dst` after the
    // window barrier.
    std::vector<std::vector<Posted>> out;
  };

  void run_windows(SimTime end, SimTime lookahead, std::size_t slot, SpinBarrier& barrier);

  std::vector<Shard> shards_;
  std::vector<SimTime> next_times_;  // window negotiation, one slot per shard
};

}  // namespace greenps
