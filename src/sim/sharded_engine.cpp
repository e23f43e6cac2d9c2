#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

namespace greenps {

void SpinBarrier::arrive_and_wait() {
  const std::uint64_t phase = phase_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    phase_.fetch_add(1, std::memory_order_release);
    return;
  }
  // Bounded spin covers the common case (all parties a few hundred ns from
  // the barrier); past it, yield the slice — with more shards than cores a
  // pure spin would burn a whole scheduler quantum per crossing waiting for
  // a party that cannot run.
  int spins = 0;
  while (phase_.load(std::memory_order_acquire) == phase) {
    if (++spins >= 1024) std::this_thread::yield();
  }
}

void ShardedEventLoop::reset(std::size_t shards) {
  assert(shards >= 1);
  shards_.clear();
  shards_.resize(shards);
  for (Shard& s : shards_) s.out.resize(shards);
  next_times_.assign(shards, 0);
}

std::size_t ShardedEventLoop::executed() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) total += s.queue.executed();
  return total;
}

void ShardedEventLoop::post(std::size_t src, std::size_t dst, SimTime time, EventKey key,
                            EventQueue::Action action) {
  if (src == dst) {
    shards_[dst].queue.schedule_keyed(time, key, std::move(action));
    return;
  }
  shards_[src].out[dst].push_back(Posted{time, key, std::move(action)});
}

void ShardedEventLoop::run_windows(SimTime end, SimTime lookahead, std::size_t slot,
                                   SpinBarrier& barrier) {
  const std::size_t n = shards_.size();
  EventQueue& q = shards_[slot].queue;
  while (true) {
    next_times_[slot] = q.next_time();
    barrier.arrive_and_wait();
    // Every slot computes the same minimum from the same snapshot, so all
    // slots agree on the window — and on when to stop — without a leader.
    SimTime tmin = next_times_[0];
    for (std::size_t s = 1; s < n; ++s) tmin = std::min(tmin, next_times_[s]);
    if (tmin > end) break;
    // end + 1: the final window is inclusive of `end`, matching run_until.
    const SimTime horizon = std::min(tmin + lookahead, end + 1);
    q.run_before(horizon);
    barrier.arrive_and_wait();
    // All posts for this window are in the lanes; merge the ones addressed
    // to this shard. The lookahead contract puts them at/after `horizon`,
    // so next_time() stays a valid window anchor.
    for (std::size_t src = 0; src < n; ++src) {
      auto& lane = shards_[src].out[slot];
      for (Posted& p : lane) q.schedule_keyed(p.time, p.key, std::move(p.action));
      lane.clear();
    }
    barrier.arrive_and_wait();
  }
  // No event at or before `end` remains anywhere; settle the clock (and the
  // per-thread obs sim time) exactly like a serial run.
  q.run_until(end);
}

void ShardedEventLoop::run(SimTime end, SimTime lookahead, ThreadPool* pool,
                           const std::function<void(std::size_t)>& on_slot_begin,
                           const std::function<void(std::size_t)>& on_slot_end) {
  if (shards_.size() == 1) {
    if (on_slot_begin) on_slot_begin(0);
    shards_[0].queue.run_until(end);
    if (on_slot_end) on_slot_end(0);
    return;
  }
  assert(lookahead > 0);
  assert(pool != nullptr && pool->size() >= shards_.size());
  SpinBarrier barrier(shards_.size());
  pool->run_slots(shards_.size(), [&](std::size_t slot) {
    if (on_slot_begin) on_slot_begin(slot);
    run_windows(end, lookahead, slot, barrier);
    if (on_slot_end) on_slot_end(slot);
  });
}

}  // namespace greenps
