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
  for (Shard& s : shards_) {
    for (auto& lanes : s.out) lanes.resize(shards);
  }
  for (auto& votes : next_times_) votes.assign(shards, 0);
  windows_ = 0;
}

std::size_t ShardedEventLoop::executed() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) total += s.queue.executed();
  return total;
}

void ShardedEventLoop::post(std::size_t src, std::size_t dst, SimTime time, EventKey key,
                            EventQueue::Action action) {
  if (src == dst || !running_) {
    shards_[dst].queue.schedule_keyed(time, key, std::move(action));
    return;
  }
  Shard& from = shards_[src];
  // The lookahead contract: the fused vote below counts this post as the
  // next window's anchor, so it must not belong to the open window.
  assert(time >= from.horizon);
  from.post_min = std::min(from.post_min, time);
  from.out[from.parity][dst].push_back(Posted{time, key, std::move(action)});
}

void ShardedEventLoop::run_windows(SimTime end, SimTime lookahead, std::size_t slot,
                                   SpinBarrier& barrier) {
  const std::size_t n = shards_.size();
  Shard& me = shards_[slot];
  EventQueue& q = me.queue;
  // The opening vote: every outbox is empty, so the queues alone anchor
  // the first window.
  next_times_[0][slot] = q.next_time();
  barrier.arrive_and_wait();
  std::size_t parity = 0;
  while (true) {
    // Every slot computes the same minimum from the same votes, so all
    // slots agree on the window — and on when to stop — without a leader.
    const std::vector<SimTime>& votes = next_times_[parity];
    const SimTime tmin = *std::min_element(votes.begin(), votes.end());
    if (tmin > end) break;
    if (slot == 0) ++windows_;
    // end + 1: the final window is inclusive of `end`, matching run_until.
    me.horizon = std::min(tmin + lookahead, end + 1);
    me.parity = parity;
    me.post_min = EventQueue::kNoEvent;
    q.run_before(me.horizon);
    // What this shard will hold once the exchange lands: its own queue plus
    // what it posted. The minimum over all shards is the earliest event
    // anywhere after the exchange, so the vote can precede the merge.
    next_times_[parity ^ 1][slot] = std::min(q.next_time(), me.post_min);
    barrier.arrive_and_wait();
    // Every post of the closed window is in its parity's lanes; merge the
    // ones addressed to this shard. The lookahead contract puts them
    // at/after the horizon, so they cannot precede this shard's clock.
    for (std::size_t src = 0; src < n; ++src) {
      auto& lane = shards_[src].out[parity][slot];
      for (Posted& p : lane) q.schedule_keyed(p.time, p.key, std::move(p.action));
      lane.clear();
    }
    parity ^= 1;
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
  running_ = true;
  pool->run_slots(shards_.size(), [&](std::size_t slot) {
    if (on_slot_begin) on_slot_begin(slot);
    run_windows(end, lookahead, slot, barrier);
    if (on_slot_end) on_slot_end(slot);
  });
  running_ = false;
}

}  // namespace greenps
