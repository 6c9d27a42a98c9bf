#include "net/event_loop.h"

namespace vc::net {

namespace {

// The heap orders entries on one 128-bit key: at_us with its sign bit
// flipped (so signed time order becomes unsigned order) in the high word,
// id in the low word. One unsigned compare then orders by time and, among
// simultaneous events, by id — whose high bits are the schedule counter, so
// the tie-break keeps them FIFO. GCC and Clang lower the compare to
// cmp/sbb, with no branch.
__extension__ using Key = unsigned __int128;

Key key_of(const auto& e) {
  const std::uint64_t hi = static_cast<std::uint64_t>(e.at_us) ^ (std::uint64_t{1} << 63);
  return (static_cast<Key>(hi) << 64) | e.id;
}

}  // namespace

// Hand-rolled 4-ary min-heap. Layout: the children of i are 4i+1 .. 4i+4,
// so a node's child group is 4 × 16 bytes — one cache line when aligned.

void EventLoop::push_heap_entry() {
  HeapEntry* const h = heap_.data();
  std::size_t i = heap_.size() - 1;
  const HeapEntry e = h[i];
  const Key k = key_of(e);
  // In steady state the new entry is the latest-scheduled one and stops at
  // its first parent.
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!(k < key_of(h[parent]))) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

EventLoop::HeapEntry EventLoop::pop_heap_entry() {
  // Top-down sift of the tail entry from the root. Each level picks the
  // smallest of up to four children with two pairwise compares and one
  // final compare, all as conditional moves (ids are unique, so keys never
  // tie and any minimum is the minimum). The descent stops as soon as the
  // smallest child is no earlier than the tail entry.
  HeapEntry* const h = heap_.data();
  const HeapEntry top = h[0];
  const std::size_t n = heap_.size() - 1;
  const HeapEntry last = h[n];
  const Key last_key = key_of(last);
  std::size_t i = 0;
  for (;;) {
    const std::size_t c = (i << 2) + 1;
    std::size_t best;
    if (c + 3 < n) {
      const std::size_t a = c + static_cast<std::size_t>(key_of(h[c + 1]) < key_of(h[c]));
      const std::size_t b = c + 2 + static_cast<std::size_t>(key_of(h[c + 3]) < key_of(h[c + 2]));
      best = key_of(h[b]) < key_of(h[a]) ? b : a;
    } else if (c < n) {
      // The ragged last group: at most one node per heap has it.
      best = c;
      for (std::size_t j = c + 1; j < n; ++j) {
        if (key_of(h[j]) < key_of(h[best])) best = j;
      }
    } else {
      break;
    }
    if (!(key_of(h[best]) < last_key)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = last;
  heap_.pop_back();
  return top;
}

void EventLoop::cancel(EventId id) {
  // Id 0 is never issued but is the value of a default-initialized handle
  // (and of every free slot's `id`), so it must be rejected here: letting it
  // through would "match" a free slot 0 and double-free it into the free
  // list, corrupting the slab.
  if (id == 0) return;
  const std::uint32_t slot = static_cast<std::uint32_t>(id) & kSlotMask;
  if (slot >= slot_count_) return;
  Slot& s = slot_ref(slot);
  if (s.id != id) return;  // already fired/cancelled, or the slot was reused
  release_slot(slot);
  // The heap record stays behind; its id no longer matches the slot, so
  // execute_ready() discards it when it surfaces.
}

void EventLoop::execute_ready(SimTime until) {
  const std::int64_t until_us = until.micros();
  while (!heap_.empty() && heap_.front().at_us <= until_us) {
    const HeapEntry e = pop_heap_entry();
    const std::uint32_t slot = static_cast<std::uint32_t>(e.id) & kSlotMask;
    Slot& s = slot_ref(slot);
    if (s.id != e.id) continue;  // cancelled
    // Disarm, then invoke in place — no move of the callback. The slot is
    // off the free list during the call so it cannot be reused under us,
    // cancel() of this event's id is already inert, and chunked slot storage
    // means a callback that grows the slab never relocates itself.
    s.id = 0;
    --pending_;
    now_ = SimTime{e.at_us};
    ++executed_;
    if (m_executed_ != nullptr) m_executed_->inc();
    if (tracer_ != nullptr) {
      tracer_->span("loop.exec", now_, now_, static_cast<double>(pending_));
      if ((executed_ & 63u) == 0) {
        tracer_->counter("loop.queue_depth", now_, static_cast<double>(pending_));
      }
    }
    try {
      s.fn.invoke();
    } catch (...) {
      s.fn.reset();
      free_slots_.push_back(slot);
      throw;
    }
    s.fn.reset();
    free_slots_.push_back(slot);
  }
}

void EventLoop::run() { execute_ready(SimTime::infinity()); }

void EventLoop::run_until(SimTime until) {
  execute_ready(until);
  if (now_ < until) now_ = until;
}

void EventLoop::attach_metrics(MetricsRegistry& registry, const std::string& prefix) {
  m_executed_ = &registry.counter(prefix + ".events_executed");
  m_depth_hwm_ = &registry.gauge(prefix + ".queue_depth_hwm");
  // Backfill both instruments so a late attach reports the same totals as an
  // attach-before-run: the gauge is overwritten, the counter is advanced by
  // the executions it missed.
  m_executed_->add(static_cast<std::int64_t>(executed_));
  m_depth_hwm_->set(static_cast<double>(depth_high_water_));
}

}  // namespace vc::net
