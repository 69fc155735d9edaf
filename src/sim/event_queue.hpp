// The engine's pending-event set.
//
// Two schedulers implement the same total order (at, seq):
//
//   * CalendarQueue (the default) -- a hierarchical bucket ring
//     ("calendar") over the next kBucketCount integer ticks, with a
//     two-level bitmap (64-bit summary word over 64 group words) locating
//     the earliest non-empty bucket in O(1), plus the binary heap for
//     everything the ring is wrong for. It exploits what the simulation
//     guarantees: integer SimTime ticks, bounded per-channel delay
//     windows and monotone per-channel delivery times, so under load
//     every push lands inside the ring window and schedule/pop are O(1)
//     amortized. The heap keeps two jobs: far-future events (root
//     timeouts beyond the window) and the *sparse* regime -- while the
//     queue holds at most kSparseThreshold events a binary heap fits in
//     two cache lines and beats the ring's bucket traffic, so small
//     queues route there wholesale. pop() compares the two minima by
//     (at, seq), so the split is invisible to event order.
//
//   * EventHeap -- the indexed binary min-heap (the pre-calendar
//     scheduler, O(log m) per op). Kept both as the calendar's fallback
//     structure and as a standalone SchedulerKind so the two engines can
//     be differentially tested against each other
//     (tests/integration/scheduler_differential_test.cpp pins them
//     bit-identical).
//
// Ordering contract (both schedulers, pinned by the differential tests):
// events pop in strictly increasing (at, seq). The calendar preserves it
// because (a) the earliest non-empty tick is gathered once into a drain
// array of (seq, pool slot) keys and sorted by seq there, and later
// pushes into that tick insert in seq order; (b) buckets are consumed
// in tick order; and (c) the heap side is an exact min-heap on
// (at, seq) and pop() takes whichever structure holds the smaller key.
//
// Memory follows the pending events: every bucket threads its events
// through one free-listed pool of 32-byte slots (the next-index links
// live in a parallel array), a bucket header is 8 bytes, and the drain
// array of 16-byte keys is the only per-tick buffer. A gathered event
// keeps its pool slot until it is popped, so the pool never holds more
// slots than the queue's pending high-water (max_size()). The bucket
// ring and its bitmap are allocated by the first push that routes to
// the ring, so a queue that never leaves the sparse regime is a heap
// and a few counters; a queue built with a small window (a small
// tenant's) allocates proportionally small headers.
//
// StreamHeads orders many queues: an indexed min-heap of streams keyed
// by each stream queue's minimum (at, seq). The engine keeps one
// EventQueue per stream when it runs explicit streams (engine.hpp), and
// the heads give the merged-serial order over them and the next stream
// with work before a horizon.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace klex::sim {

// kChaosFlush is the chaos model's hold-release deadline: target is the
// channel, payload the highest hold id it may release (sim/chaos.hpp).
// kGlobalCallback is a callback scheduled from outside any tenant's
// events (Engine::schedule); it may touch every stream (engine.hpp).
// kAction is a typed client action (Engine::schedule_action): target is
// the node, handler and action name the receiver and what it does,
// payload is the receiver's epoch.
enum class EventKind : std::uint8_t { kDelivery, kTimer, kCallback,
                                      kChaosFlush, kGlobalCallback,
                                      kAction };

// One inline 32-byte record per pending event -- no heap payloads. A
// delivery does not carry its Message: per-channel delivery times are
// monotone with ties in send order, so the message is always the head
// of the channel's in-flight deque at dispatch time. clear_channels()
// bumps the channel epoch, which orphans every pending delivery event
// of the old epoch -- post-fault traffic keeps its sampled delays
// instead of being pulled forward by stale events.
struct Event {
  SimTime at = 0;
  std::uint64_t seq = 0;       // insertion order; ties on `at` keep it
  std::uint64_t payload = 0;   // timer generation / callback slot /
                               // channel epoch (delivery) / action epoch
  std::int32_t target = -1;    // channel index (delivery, flush) / node
                               // (timer, action) / stream (callbacks)
  std::uint8_t timer_id = 0;   // < kMaxTimers
  EventKind kind = EventKind::kDelivery;
  std::uint8_t handler = 0;    // action handler index (kAction)
  std::uint8_t action = 0;     // handler-defined action code (kAction)

  bool before(const Event& other) const {
    if (at != other.at) return at < other.at;
    return seq < other.seq;
  }
};
static_assert(sizeof(Event) == 32, "the event core stores events inline;"
              " keep the record one 32-byte slot");

/// Which scheduler the engine runs on. kCalendar is the default;
/// kBinaryHeap forces every event through the heap (the historical
/// scheduler) for differential testing.
enum class SchedulerKind : std::uint8_t { kCalendar, kBinaryHeap };

/// Deterministic scheduler-op counters (exposed through EngineStats and
/// the BENCH_*.json trajectory): per seed they are bit-reproducible, so
/// the O(1)-amortized claim is a gated invariant -- under load,
/// overflow_pushes creeping toward bucket_inserts means the heap
/// fallback became the hot path.
struct SchedulerCounters {
  /// Events that entered the calendar ring.
  std::uint64_t bucket_inserts = 0;
  /// Find-min bitmap scans (each O(1): at most three word probes).
  std::uint64_t bucket_scans = 0;
  /// Events pushed to the heap side (sparse regime, beyond the ring
  /// window, or every event in kBinaryHeap mode).
  std::uint64_t overflow_pushes = 0;
  /// Events popped off the heap side.
  std::uint64_t overflow_pops = 0;
  /// Gathered ticks whose events were not already in seq order, and the
  /// events those sorts covered (ticks gathered in order cost no sort).
  std::uint64_t bucket_sorts = 0;
  std::uint64_t sorted_events = 0;
};

/// Min-heap on (at, seq) over a flat vector. Versus std::priority_queue:
/// hole-based sifting (one copy per level instead of a swap), an
/// in-place pop that never copies the extracted element twice. The
/// (at, seq) key is a total order, so heap extraction order is
/// deterministic.
class EventHeap {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Event& top() const { return heap_.front(); }
  void push(const Event& event);
  /// Removes the top event; `top()` must have been consumed first.
  void pop();

 private:
  std::vector<Event> heap_;
};

/// The pending-event set: calendar ring + heap (see file comment).
/// advance_to(now) MUST be called whenever simulated time advances; it
/// slides the ring window that routes pushes.
class EventQueue {
 public:
  /// Default ring window: events within [now, now + bucket_count) are
  /// eligible for the ring, one tick per bucket. 1024 ticks cover every
  /// delivery the stock delay models can schedule and most workload
  /// timers while keeping the bucket headers L1-resident. Engines with
  /// exotic delay models may grow the window (set_log_bucket_count) up
  /// to kMaxLogBucketCount so overflow_pushes stays at zero; the window
  /// never shrinks below the default, keeping the routing counters of
  /// default-configured queues bit-identical.
  static constexpr std::uint32_t kLogBucketCount = 10;
  /// Hard cap: 4096 buckets = 64 group words under one summary word.
  static constexpr std::uint32_t kMaxLogBucketCount = 12;
  static constexpr std::size_t kBucketCount = std::size_t{1}
                                              << kLogBucketCount;

  /// Smallest ring window a queue may be built with (128 ticks): a
  /// small tenant's queue, sized to what the tenant keeps pending.
  static constexpr std::uint32_t kMinLogBucketCount = 7;

  /// Below this pending-event count pushes prefer the heap: a tiny heap
  /// is two hot cache lines, while ring traffic touches a cold bucket
  /// per event. Measured crossover is ~10 events on the sparse protocol
  /// rungs (bench_fig2_deadlock's naive cell).
  static constexpr std::size_t kSparseThreshold = 8;

  /// A queue whose ring window is 2^log_bucket_count ticks (a lane's
  /// queue keeps the default; the engine builds smaller ones for small
  /// streams, so their headers stay proportional to what they hold).
  explicit EventQueue(SchedulerKind scheduler = SchedulerKind::kCalendar,
                      std::uint32_t log_bucket_count = kLogBucketCount);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t max_size() const { return max_size_; }

  /// The minimum pending event by (at, seq). Queue must be non-empty.
  /// Gathers the earliest ring tick into the drain array if needed; the
  /// reference is invalidated by the next push or pop.
  const Event& top();
  /// Timestamp of top(), or kTimeInfinity when empty -- O(1).
  SimTime top_time() const;
  /// Removes top(); the reference obtained from top() is invalidated.
  void pop();
  /// Fused test+top+pop: if the minimum event's time is <= `t`, pops it
  /// into *out and returns true -- one min computation per event where
  /// top_time()/top()/pop() would do three. False on empty or when the
  /// minimum lies beyond `t` (nothing is popped).
  bool pop_min_until(SimTime t, Event* out);
  /// Inserts `event`; `event.at` must be >= the last advance_to() time.
  void push(const Event& event);

  /// Advances the ring window to `now`. Call when simulated time moves.
  void advance_to(SimTime now) {
    now_ = now;
    window_end_ = now + bucket_count_;
  }

  /// Grows the ring window to 2^log2 ticks (at most kMaxLogBucketCount).
  /// Only legal while the queue is empty; the engine calls it at boot
  /// when the delay model outranges a window. Values below the current
  /// window are clamped up -- the window never shrinks, so
  /// default-configuration routing stays bit-identical. The ring is
  /// (re)allocated at its new size by the next push that needs it.
  void set_log_bucket_count(std::uint32_t log2);

  /// Current ring window width in ticks.
  std::size_t bucket_window() const { return bucket_count_; }

  /// Event slots the pool has created: its high-water of ring-resident
  /// events, never more than max_size().
  std::size_t pool_slots() const { return pool_.size(); }
  /// Capacity of the drain array (in keys): the largest tick ever
  /// gathered, plus the pushes that tick received while it drained.
  std::size_t drain_slots() const { return drain_.capacity(); }

  SchedulerKind scheduler() const { return scheduler_; }
  const SchedulerCounters& counters() const { return counters_; }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// A tick's pending events: a singly linked list through the pool,
  /// newest first.
  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t count = 0;
  };
  static_assert(sizeof(Bucket) == 8, "bucket headers stay 8 bytes");

  /// A gathered event's sort key: the tick sort moves these, not the
  /// 32-byte events, which stay in their pool slots until popped.
  struct DrainKey {
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(DrainKey) == 16, "drain keys stay 16 bytes");
  /// The tick sort's comparator, a type so std::sort inlines it.
  struct SeqLess {
    bool operator()(const DrainKey& a, const DrainKey& b) const {
      return a.seq < b.seq;
    }
  };

  static_assert((std::size_t{1} << kMaxLogBucketCount) / 64 <= 64,
                "the two-level bitmap needs one summary word");

  std::size_t tick_position(SimTime at) const {
    return static_cast<std::size_t>(at) & mask_;
  }
  SimTime tick_of(std::size_t bucket) const {
    return now_ + ((bucket - tick_position(now_)) & mask_);
  }

  bool draining() const { return drain_head_ < drain_end_; }

  /// Minimum ring event (ring_count_ > 0): the drain head, gathering
  /// the earliest tick first when nothing is being drained, or the
  /// earliest tick's only event.
  const Event& ring_top();
  /// Pops the minimum ring event into *out (ring_count_ > 0).
  void ring_take(Event* out);
  /// True when the ring holds the minimum event (ring_count_ > 0).
  bool ring_leads();
  /// Index of the earliest non-empty bucket, or of the drained tick's
  /// bucket while draining (ring_count_ must be > 0).
  std::size_t min_bucket() const;
  /// Circular two-level bitmap scan starting at bucket position `from`.
  std::size_t scan_from(std::size_t from) const;
  /// Allocates the bucket ring and its bitmap (first ring push).
  void allocate_ring();
  /// Stores `event` in a free pool slot and returns the slot.
  std::uint32_t allocate(const Event& event);
  /// Puts pool slot `slot` on the list of bucket `index`.
  void link(std::size_t index, std::uint32_t slot);
  void release(std::uint32_t slot) {
    next_[slot] = free_;
    free_ = slot;
  }
  /// Resets bucket `index` and clears its bitmap bit.
  void empty_bucket(std::size_t index);
  /// Moves bucket `index` (the earliest) into the drain array as keys
  /// sorted by seq.
  void gather(std::size_t index);
  /// Inserts a push for the drained tick at its seq position.
  void insert_drained(const Event& event);
  /// Returns the drained remainder to its bucket (a push landed earlier).
  void undrain();

  /// Sets the window fields for 2^log2 buckets.
  void shape_ring(std::uint32_t log2);

  SchedulerKind scheduler_;
  SimTime now_ = 0;
  SimTime window_end_ = kBucketCount;

  std::size_t bucket_count_ = kBucketCount;
  std::size_t mask_ = kBucketCount - 1;
  std::size_t group_count_ = kBucketCount / 64;

  // The ring: bucket_count_ headers and group_count_ bitmap words once
  // allocated, empty before the first ring push.
  std::vector<Bucket> buckets_;
  std::vector<std::uint64_t> bits_;
  std::uint64_t summary_ = 0;

  std::vector<Event> pool_;           // ring-resident events
  std::vector<std::uint32_t> next_;   // pool_[i]'s successor on its list
  std::uint32_t free_ = kNoSlot;      // free-slot list through next_

  // The tick being drained: drain_[drain_head_, drain_end_), sorted by
  // seq. The array only grows; while draining, the find-min cache names
  // that tick.
  std::vector<DrainKey> drain_;
  std::size_t drain_head_ = 0;
  std::size_t drain_end_ = 0;

  EventHeap overflow_;
  std::size_t ring_count_ = 0;
  std::size_t size_ = 0;
  std::size_t max_size_ = 0;

  // Find-min cache: valid when cached_min_bucket_ >= 0; maintained by
  // push (a smaller tick steals it) and invalidated when the drained
  // tick empties. Mutable: top_time() is logically const.
  mutable std::int64_t cached_min_bucket_ = -1;
  mutable SimTime cached_min_tick_ = 0;
  mutable SchedulerCounters counters_;
};

/// Indexed min-heap of streams keyed by the (at, seq) of each stream
/// queue's minimum event (see the file comment). A stream with an empty
/// queue is not in the heap. Keys are copied in, so sifting never
/// touches the queues.
class StreamHeads {
 public:
  struct Head {
    SimTime at = 0;
    std::uint64_t seq = 0;
    std::int32_t stream = -1;

    bool before(const Head& other) const {
      if (at != other.at) return at < other.at;
      return seq < other.seq;
    }
  };

  /// Sizes the index for streams [0, streams); the heap starts empty.
  void reset(std::size_t streams);
  bool empty() const { return heap_.empty(); }
  /// The stream whose queue holds the earliest event (heap non-empty).
  const Head& top() const { return heap_.front(); }
  /// Re-keys `stream` from its queue's minimum: inserts, moves or (for
  /// an empty queue) removes it.
  void update(std::int32_t stream, EventQueue& queue);

 private:
  void place(std::size_t index, const Head& head);
  void sift_up(std::size_t index, Head head);
  void sift_down(std::size_t index, Head head);

  std::vector<Head> heap_;
  std::vector<std::int32_t> position_;  // per stream; -1 when absent
};

}  // namespace klex::sim
