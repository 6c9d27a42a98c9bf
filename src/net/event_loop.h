// Discrete-event scheduler driving the whole simulation.
//
// Events at equal timestamps run in scheduling order (stable), which makes
// simulations deterministic given deterministic callbacks and RNG seeds.
//
// Hot-path design (this loop bounds simulated-packet throughput of every
// sweep, so it is built for churn):
//   * Callbacks live in a slab of reusable slots with small-buffer-optimized
//     inline storage — scheduling a typical closure touches no allocator and
//     no hash table; oversized closures fall back to one heap allocation.
//     The slab is chunked (pointer-stable): growing it never relocates armed
//     callbacks, so events run in place even when they schedule more events.
//   * The ready queue is a 4-ary min-heap of plain 16-byte (time, id)
//     records: a node's four children fill one 64-byte cache line, and
//     each level picks the smallest child branch-free on one 128-bit
//     (time, id) key. Ids carry a monotonic schedule counter in their high
//     bits, so ordering is a min on (time, schedule order): FIFO among
//     simultaneous events, the determinism invariant every report depends on.
//   * EventIds pack (counter << kSlotBits) | slot — globally unique, which
//     makes them generation tags: each slot remembers the id it is armed
//     with, so cancel() is an O(1) compare + release, and a stale id (fired,
//     cancelled, or slot since reused) can never match. Stale heap records
//     are discarded lazily when popped, by the same compare.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/time.h"
#include "common/tracer.h"

namespace vc::net {

/// Handle for cancelling a scheduled event. Packs a unique monotonic
/// schedule counter over the slab slot index; 0 is never issued, so a
/// default-initialized id is always safe to cancel.
using EventId = std::uint64_t;

namespace detail {

/// Move-only callable with inline storage for small closures. The event slab
/// stores these by value: a schedule/fire cycle of any closure up to
/// kInlineBytes (a captured Packet plus a couple of pointers) performs zero
/// heap allocations.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  EventCallback() = default;
  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  explicit operator bool() const { return vtable_ != nullptr; }

  /// Rejects empty std::function / null function pointers up front, like the
  /// previous std::function-based API did. Called by the loop before any
  /// slot state changes, so emplace() itself stays off the exception path.
  template <class F>
  static void validate(const F& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>, "event callback must be callable as void()");
    if constexpr (std::is_constructible_v<bool, const D&>) {
      if (!static_cast<bool>(fn)) throw std::invalid_argument{"null event callback"};
    }
  }

  template <class F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>, "event callback must be callable as void()");
    reset();
    if constexpr (fits_inline<D>()) {
      ::new (storage()) D(std::forward<F>(fn));
      vtable_ = inline_vtable<D>();
    } else {
      *static_cast<D**>(storage()) = new D(std::forward<F>(fn));
      vtable_ = heap_vtable<D>();
    }
  }

  void invoke() { vtable_->invoke(storage()); }

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage());
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <class D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <class D>
  static const VTable* inline_vtable() {
    static constexpr VTable vt{
        [](void* p) { (*static_cast<D*>(p))(); },
        [](void* dst, void* src) {
          D* s = static_cast<D*>(src);
          ::new (dst) D(std::move(*s));
          s->~D();
        },
        [](void* p) { static_cast<D*>(p)->~D(); },
    };
    return &vt;
  }

  template <class D>
  static const VTable* heap_vtable() {
    static constexpr VTable vt{
        [](void* p) { (**static_cast<D**>(p))(); },
        [](void* dst, void* src) { *static_cast<D**>(dst) = *static_cast<D**>(src); },
        [](void* p) { delete *static_cast<D**>(p); },
    };
    return &vt;
  }

  void* storage() { return static_cast<void*>(buf_); }

  void move_from(EventCallback& other) {
    if (other.vtable_ != nullptr) {
      other.vtable_->relocate(storage(), other.storage());
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  const VTable* vtable_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace detail

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (clamped to now).
  template <class F>
  EventId schedule_at(SimTime at, F&& fn) {
    detail::EventCallback::validate(fn);
    if (at < now_) at = now_;
    if (next_seq_ >> (64 - kSlotBits) != 0) throw std::overflow_error{"event id space exhausted"};
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    const EventId id = (next_seq_ << kSlotBits) | slot;
    // The slot is armed (s.id set, pending_ bumped) only once both fallible
    // steps — callback construction and the heap push — have succeeded, so a
    // throw from either leaves no dangling heap record, armed slot, or lost
    // free-list entry.
    if constexpr (std::is_nothrow_constructible_v<std::decay_t<F>, F&&>) {
      s.fn.emplace(std::forward<F>(fn));
    } else {
      try {
        s.fn.emplace(std::forward<F>(fn));
      } catch (...) {
        free_slots_.push_back(slot);
        throw;
      }
    }
    try {
      heap_.push_back(HeapEntry{at.micros(), id});
    } catch (...) {
      s.fn.reset();
      free_slots_.push_back(slot);
      throw;
    }
    push_heap_entry();  // in-place sift: nothrow
    ++next_seq_;
    s.id = id;
    ++pending_;
    if (pending_ > depth_high_water_) {
      depth_high_water_ = pending_;
      if (m_depth_hwm_ != nullptr) m_depth_hwm_->set(static_cast<double>(depth_high_water_));
    }
    return id;
  }

  /// Schedules `fn` to run after `delay`.
  template <class F>
  EventId schedule_after(SimDuration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  EventId schedule_at(SimTime, std::nullptr_t) { throw std::invalid_argument{"null event callback"}; }
  EventId schedule_after(SimDuration, std::nullptr_t) {
    throw std::invalid_argument{"null event callback"};
  }

  /// Cancels a pending event in O(1). Cancelling an already-run, cancelled,
  /// or never-issued id is a no-op (ids are globally unique, so a stale id
  /// is inert even after its slot is reused).
  void cancel(EventId id);

  /// Runs events until the queue is empty.
  void run();
  /// Runs events with timestamp <= `until`, then advances the clock to
  /// `until` even if idle.
  void run_until(SimTime until);

  /// Live (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return pending_; }
  std::uint64_t events_executed() const { return executed_; }
  /// Largest number of simultaneously pending events seen so far.
  std::size_t queue_depth_high_water() const { return depth_high_water_; }

  /// Mirrors loop activity into `<prefix>.events_executed` (counter) and
  /// `<prefix>.queue_depth_hwm` (gauge). Both are backfilled with activity
  /// that happened before the attach, so a late attach reports full totals.
  /// Per-session registries attach once at session setup (re-attaching the
  /// same registry would double-count the backfill); the pointers are
  /// hot-path cheap.
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix = "event_loop");

  /// Flight-recorder hook: each executed event becomes a `loop.exec` span
  /// (zero sim-duration, value = events still pending) and every 64th
  /// execution samples a `loop.queue_depth` counter track. Borrowed pointer;
  /// nullptr (the default) detaches.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

 private:
  /// Low bits of an EventId address the slab slot; the high 40 bits are the
  /// schedule counter, so ids compare in schedule order and never repeat
  /// (2^40 events per loop ≈ days of continuous scheduling; guarded).
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  /// Slots live in fixed-size chunks so growth never relocates them. This is
  /// a correctness requirement, not a tuning knob: callbacks are invoked in
  /// place inside their slot, and a callback that schedules events can grow
  /// the slab mid-invocation — with contiguous storage that reallocation
  /// would free the closure out from under itself.
  static constexpr std::uint32_t kChunkShift = 10;  // 1024 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct Slot {
    detail::EventCallback fn;
    /// Id the slot is currently armed with; 0 when free. Heap records and
    /// external handles match against this, which makes stale ones inert.
    EventId id = 0;
  };
  /// 16 bytes — four make one child group of the 4-ary heap, one cache
  /// line — and `id` doubles as the FIFO tiebreak among simultaneous events.
  struct HeapEntry {
    std::int64_t at_us = 0;
    EventId id = 0;
  };

  Slot& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    if (slot_count_ > kSlotMask) throw std::length_error{"event loop slot space exhausted"};
    if ((slot_count_ & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    return slot_count_++;
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slot_ref(slot);
    s.fn.reset();
    s.id = 0;
    free_slots_.push_back(slot);
    --pending_;
  }

  // 4-ary min-heap over heap_, ordered on (at_us, id). push sifts up the
  // entry just appended; pop removes and returns the minimum.
  void push_heap_entry();
  HeapEntry pop_heap_entry();

  void execute_ready(SimTime until);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;  // id 0 is never issued
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::size_t depth_high_water_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
  MetricsRegistry::Counter* m_executed_ = nullptr;
  MetricsRegistry::Gauge* m_depth_hwm_ = nullptr;
  Tracer* tracer_ = nullptr;
};

}  // namespace vc::net
