#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace klex::sim {

// ---------------------------------------------------------------------------
// EventHeap
// ---------------------------------------------------------------------------

void EventHeap::push(const Event& event) {
  // Hole-based sift-up: bubble the hole to the insertion point, one copy
  // per level (a std::push_heap-style swap chain does ~3x the stores).
  std::size_t hole = heap_.size();
  heap_.resize(hole + 1);
  while (hole > 0) {
    std::size_t parent = (hole - 1) / 2;
    if (!event.before(heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = event;
}

void EventHeap::pop() {
  KLEX_CHECK(!heap_.empty(), "pop on an empty event heap");
  std::size_t last = heap_.size() - 1;
  if (last == 0) {
    heap_.clear();
    return;
  }
  // Move the last element's value down from the root hole.
  const Event moved = heap_[last];
  heap_.pop_back();
  std::size_t hole = 0;
  std::size_t half = last / 2;  // first index without children
  while (hole < half) {
    std::size_t child = 2 * hole + 1;
    if (child + 1 < last && heap_[child + 1].before(heap_[child])) {
      ++child;
    }
    if (!heap_[child].before(moved)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = moved;
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

EventQueue::EventQueue(SchedulerKind scheduler, std::uint32_t log_bucket_count)
    : scheduler_(scheduler) {
  KLEX_REQUIRE(log_bucket_count >= kMinLogBucketCount &&
                   log_bucket_count <= kMaxLogBucketCount,
               "ring window of 2^", log_bucket_count, " ticks out of range");
  shape_ring(log_bucket_count);
}

void EventQueue::shape_ring(std::uint32_t log2) {
  bucket_count_ = std::size_t{1} << log2;
  mask_ = bucket_count_ - 1;
  group_count_ = bucket_count_ / 64;
  window_end_ = now_ + bucket_count_;
}

void EventQueue::set_log_bucket_count(std::uint32_t log2) {
  KLEX_REQUIRE(size_ == 0, "the ring window can only move while empty");
  KLEX_REQUIRE(log2 <= kMaxLogBucketCount, "ring window beyond bitmap cap");
  if ((std::size_t{1} << log2) <= bucket_count_) return;  // grow-only
  shape_ring(log2);
  buckets_.clear();  // the next ring push allocates the new size
  bits_.clear();
  summary_ = 0;
  cached_min_bucket_ = -1;
}

void EventQueue::allocate_ring() {
  buckets_.assign(bucket_count_, Bucket{});
  bits_.assign(group_count_, 0);
}

std::size_t EventQueue::scan_from(std::size_t from) const {
  ++counters_.bucket_scans;
  // Word containing `from`, bits at and after it.
  std::size_t group = from >> 6;
  std::uint64_t word = bits_[group] & (~std::uint64_t{0} << (from & 63));
  if (word != 0) {
    return (group << 6) + static_cast<std::size_t>(std::countr_zero(word));
  }
  // Groups strictly after `group`, then wrap to 0..group. Within the
  // wrapped range the low bits of bits_[group] need no masking: its high
  // bits were just probed and found clear.
  std::uint64_t after =
      group + 1 < group_count_ ? summary_ & (~std::uint64_t{0} << (group + 1))
                               : 0;
  std::uint64_t candidates = after != 0 ? after : summary_;
  KLEX_CHECK(candidates != 0, "bitmap scan over an empty calendar ring");
  std::size_t g = static_cast<std::size_t>(std::countr_zero(candidates));
  return (g << 6) + static_cast<std::size_t>(std::countr_zero(bits_[g]));
}

std::size_t EventQueue::min_bucket() const {
  if (cached_min_bucket_ < 0) {
    std::size_t index = scan_from(tick_position(now_));
    cached_min_bucket_ = static_cast<std::int64_t>(index);
    cached_min_tick_ = tick_of(index);
  }
  return static_cast<std::size_t>(cached_min_bucket_);
}

std::uint32_t EventQueue::allocate(const Event& event) {
  std::uint32_t slot = free_;
  if (slot != kNoSlot) {
    free_ = next_[slot];
    pool_[slot] = event;
  } else {
    KLEX_CHECK(pool_.size() < kNoSlot, "calendar event pool overflow");
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(event);
    next_.push_back(kNoSlot);
  }
  return slot;
}

void EventQueue::link(std::size_t index, std::uint32_t slot) {
  Bucket& bucket = buckets_[index];
  if (bucket.count == 0) {
    bits_[index >> 6] |= std::uint64_t{1} << (index & 63);
    summary_ |= std::uint64_t{1} << (index >> 6);
  }
  next_[slot] = bucket.head;
  bucket.head = slot;
  ++bucket.count;
}

void EventQueue::empty_bucket(std::size_t index) {
  buckets_[index] = Bucket{};
  std::uint64_t& word = bits_[index >> 6];
  word &= ~(std::uint64_t{1} << (index & 63));
  if (word == 0) summary_ &= ~(std::uint64_t{1} << (index >> 6));
}

void EventQueue::gather(std::size_t index) {
  Bucket& bucket = buckets_[index];
  // The list runs newest first: fill the drain back to front so it holds
  // push order, noting whether that is already seq order (one channel's
  // deliveries are; several entities' interleaved pushes usually not).
  // The events stay in their pool slots until popped.
  if (drain_.size() < bucket.count) drain_.resize(bucket.count);
  drain_head_ = 0;
  drain_end_ = bucket.count;
  bool in_order = true;
  std::uint64_t later_seq = ~std::uint64_t{0};
  DrainKey* pos = drain_.data() + drain_end_;
  for (std::uint32_t slot = bucket.head; slot != kNoSlot;
       slot = next_[slot]) {
    const std::uint64_t seq = pool_[slot].seq;
    *--pos = DrainKey{seq, slot};
    in_order &= seq < later_seq;
    later_seq = seq;
  }
  empty_bucket(index);
  if (!in_order) {
    // One tick per bucket position, so every event here shares `at` and
    // seq alone restores the total order.
    std::sort(drain_.data(), drain_.data() + drain_end_, SeqLess{});
    ++counters_.bucket_sorts;
    counters_.sorted_events += drain_end_;
  }
}

void EventQueue::insert_drained(const Event& event) {
  const DrainKey key{event.seq, allocate(event)};
  DrainKey* first = drain_.data() + drain_head_;
  DrainKey* last = drain_.data() + drain_end_;
  DrainKey* at = std::upper_bound(first, last, key, SeqLess{});
  if (drain_head_ > 0 && at - first < last - at) {
    // Shorter to shift the unconsumed prefix into the slot just consumed.
    std::move(first, at, first - 1);
    --drain_head_;
    *(at - 1) = key;
    return;
  }
  std::size_t offset = static_cast<std::size_t>(at - drain_.data());
  if (drain_end_ == drain_.size()) drain_.emplace_back();
  at = drain_.data() + offset;
  std::move_backward(at, drain_.data() + drain_end_,
                     drain_.data() + drain_end_ + 1);
  *at = key;
  ++drain_end_;
}

void EventQueue::undrain() {
  std::size_t index = static_cast<std::size_t>(cached_min_bucket_);
  // Linking in drain order leaves the list newest first, so the next
  // gather reads the remainder back in seq order without a sort.
  for (std::size_t i = drain_head_; i < drain_end_; ++i) {
    link(index, drain_[i].slot);
  }
  drain_head_ = drain_end_ = 0;
}

const Event& EventQueue::ring_top() {
  if (!draining()) {
    // Sparse traffic leaves one event per tick: it needs no drain.
    std::size_t index = min_bucket();
    if (buckets_[index].count == 1) return pool_[buckets_[index].head];
    gather(index);
  }
  return pool_[drain_[drain_head_].slot];
}

void EventQueue::ring_take(Event* out) {
  --ring_count_;
  if (!draining()) {
    std::size_t index = min_bucket();
    Bucket& bucket = buckets_[index];
    if (bucket.count == 1) {
      *out = pool_[bucket.head];
      release(bucket.head);
      empty_bucket(index);
      cached_min_bucket_ = -1;
      return;
    }
    gather(index);
  }
  const std::uint32_t slot = drain_[drain_head_].slot;
  *out = pool_[slot];
  release(slot);
  if (++drain_head_ == drain_end_) {
    drain_head_ = drain_end_ = 0;
    cached_min_bucket_ = -1;
  }
}

bool EventQueue::ring_leads() {
  // Decided by tick where possible: the earliest tick is gathered only
  // when it must be read, so a peek past a run's horizon leaves it in
  // its bucket.
  min_bucket();
  if (overflow_.empty()) return true;
  SimTime heap_at = overflow_.top().at;
  if (cached_min_tick_ != heap_at) return cached_min_tick_ < heap_at;
  return ring_top().before(overflow_.top());
}

const Event& EventQueue::top() {
  KLEX_CHECK(size_ > 0, "top on an empty event queue");
  if (ring_count_ > 0 && ring_leads()) return ring_top();
  return overflow_.top();
}

SimTime EventQueue::top_time() const {
  if (size_ == 0) return kTimeInfinity;
  if (ring_count_ == 0) return overflow_.top().at;
  min_bucket();
  if (overflow_.empty() || cached_min_tick_ <= overflow_.top().at) {
    return cached_min_tick_;
  }
  return overflow_.top().at;
}

bool EventQueue::pop_min_until(SimTime t, Event* out) {
  if (size_ == 0) return false;
  if (ring_count_ > 0 && ring_leads()) {
    if (cached_min_tick_ > t) return false;
    --size_;
    ring_take(out);
    return true;
  }
  const Event& heap_min = overflow_.top();
  if (heap_min.at > t) return false;
  *out = heap_min;
  --size_;
  overflow_.pop();
  ++counters_.overflow_pops;
  return true;
}

void EventQueue::pop() {
  KLEX_CHECK(size_ > 0, "pop on an empty event queue");
  --size_;
  if (ring_count_ > 0 && ring_leads()) {
    Event taken;
    ring_take(&taken);
    return;
  }
  overflow_.pop();
  ++counters_.overflow_pops;
}

void EventQueue::push(const Event& event) {
  KLEX_CHECK(event.at >= now_, "event scheduled in the past");
  if (size_ >= max_size_) max_size_ = size_ + 1;
  // Route: heap in kBinaryHeap mode, while the queue is sparse (a tiny
  // heap outruns ring bucket traffic), or beyond the ring window;
  // calendar ring otherwise. pop() merges the two by (at, seq), so the
  // policy affects only speed, never order.
  if (scheduler_ == SchedulerKind::kBinaryHeap ||
      size_ < kSparseThreshold || event.at >= window_end_) {
    ++size_;
    overflow_.push(event);
    ++counters_.overflow_pushes;
    return;
  }
  if (buckets_.empty()) allocate_ring();
  ++size_;
  ++ring_count_;
  ++counters_.bucket_inserts;
  if (draining()) {
    // Delay-0 callbacks and barrier merges land on the drained tick.
    if (event.at == cached_min_tick_) {
      insert_drained(event);
      return;
    }
    // The drained tick was only peeked; an earlier tick now leads.
    if (event.at < cached_min_tick_) undrain();
  }
  std::size_t index = tick_position(event.at);
  link(index, allocate(event));
  if (cached_min_bucket_ >= 0 && event.at < cached_min_tick_) {
    cached_min_bucket_ = static_cast<std::int64_t>(index);
    cached_min_tick_ = event.at;
  }
}

// ---------------------------------------------------------------------------
// StreamHeads
// ---------------------------------------------------------------------------

void StreamHeads::reset(std::size_t streams) {
  heap_.clear();
  position_.assign(streams, -1);
}

void StreamHeads::place(std::size_t index, const Head& head) {
  heap_[index] = head;
  position_[static_cast<std::size_t>(head.stream)] =
      static_cast<std::int32_t>(index);
}

void StreamHeads::sift_up(std::size_t index, Head head) {
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!head.before(heap_[parent])) break;
    place(index, heap_[parent]);
    index = parent;
  }
  place(index, head);
}

void StreamHeads::sift_down(std::size_t index, Head head) {
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * index + 1;
    if (child >= size) break;
    if (child + 1 < size && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(head)) break;
    place(index, heap_[child]);
    index = child;
  }
  place(index, head);
}

void StreamHeads::update(std::int32_t stream, EventQueue& queue) {
  std::int32_t& position = position_[static_cast<std::size_t>(stream)];
  if (queue.empty()) {
    if (position < 0) return;
    // Remove: the last head fills the hole and sifts whichever way its
    // key says.
    const std::size_t index = static_cast<std::size_t>(position);
    position = -1;
    const Head last = heap_.back();
    heap_.pop_back();
    if (index == heap_.size()) return;
    if (index > 0 && last.before(heap_[(index - 1) / 2])) {
      sift_up(index, last);
    } else {
      sift_down(index, last);
    }
    return;
  }
  const Event& min = queue.top();
  const Head head{min.at, min.seq, stream};
  if (position < 0) {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, head);
    return;
  }
  const std::size_t index = static_cast<std::size_t>(position);
  if (head.before(heap_[index])) {
    sift_up(index, head);
  } else {
    sift_down(index, head);
  }
}

void StreamHeads::collect_until(SimTime t,
                                std::vector<std::int32_t>& out) const {
  out.clear();
  if (heap_.empty() || heap_.front().at > t) return;
  // Breadth-first over heap indices, with `out` as the queue; a child
  // after t prunes its subtree. The indices then become streams, sorted.
  out.push_back(0);
  const std::size_t size = heap_.size();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t child = 2 * static_cast<std::size_t>(out[i]) + 1;
    for (std::size_t c = child; c < child + 2 && c < size; ++c) {
      if (heap_[c].at <= t) out.push_back(static_cast<std::int32_t>(c));
    }
  }
  for (std::int32_t& entry : out) {
    entry = heap_[static_cast<std::size_t>(entry)].stream;
  }
  std::sort(out.begin(), out.end());
}

}  // namespace klex::sim
