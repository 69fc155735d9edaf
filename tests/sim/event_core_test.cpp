// The rewritten event core: callback-slab recycling, timer-generation
// invalidation through the flat table, heap ordering under stress, the
// EngineStats counters the benchmark JSON reports, and the calendar
// queue itself against the binary heap.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace klex::sim {
namespace {

class Sink : public Process {
 public:
  void on_message(int, const Message&) override { ++deliveries; }
  void on_timer(int timer_id) override { timer_fires.push_back(timer_id); }
  using Process::send;
  using Process::set_timer;
  int deliveries = 0;
  std::vector<int> timer_fires;
};

struct Net {
  explicit Net(DelayModel delays = {}, std::uint64_t seed = 1)
      : engine(delays, seed) {
    auto p0 = std::make_unique<Sink>();
    auto p1 = std::make_unique<Sink>();
    a = p0.get();
    b = p1.get();
    engine.add_process(std::move(p0));
    engine.add_process(std::move(p1));
    engine.connect(0, 0, 1, 0);
    engine.connect(1, 0, 0, 0);
  }
  Engine engine;
  Sink* a;
  Sink* b;
};

TEST(EventCore, CallbackSlabRecyclesSlots) {
  Net net;
  net.engine.start();
  int fired = 0;
  // Sequential schedule/run cycles: after the first slot exists, no new
  // slots may be created -- the freed slot must be reused every time.
  for (int round = 0; round < 100; ++round) {
    net.engine.schedule(1, [&fired] { ++fired; });
    net.engine.run_until(net.engine.now() + 2);
  }
  EXPECT_EQ(fired, 100);
  EngineStats stats = net.engine.stats();
  EXPECT_EQ(stats.callbacks_scheduled, 100u);
  EXPECT_EQ(stats.callback_slots_created, 1u);
}

TEST(EventCore, SlabGrowsToConcurrentPeakOnly) {
  Net net;
  net.engine.start();
  int fired = 0;
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 5; ++i) {
      net.engine.schedule(static_cast<SimTime>(1 + i),
                          [&fired] { ++fired; });
    }
    net.engine.run_until(net.engine.now() + 10);
  }
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(net.engine.stats().callback_slots_created, 5u);
}

TEST(EventCore, ReentrantScheduleFromCallbackIsSafe) {
  Net net;
  net.engine.start();
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 10) net.engine.schedule(1, next);
  };
  net.engine.schedule(1, next);
  net.engine.run_until(100);
  EXPECT_EQ(chain, 10);
  // The chain reuses one freed slot per link (freed before the callback
  // runs), so the tail schedule may claim at most one extra slot.
  EXPECT_LE(net.engine.stats().callback_slots_created, 2u);
}

TEST(EventCore, HeapOrderingUnderBurstLoad) {
  // Many same-tick and out-of-order events: times must be non-decreasing
  // and FIFO must hold per channel.
  Net net(DelayModel{1, 64}, 9);
  net.engine.start();
  for (int i = 0; i < 500; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  SimTime last = 0;
  while (net.engine.step()) {
    EXPECT_GE(net.engine.now(), last);
    last = net.engine.now();
  }
  EXPECT_EQ(net.b->deliveries, 500);
  EXPECT_EQ(net.engine.stats().messages_delivered, 500u);
  EXPECT_GE(net.engine.stats().max_heap_size, 1u);
}

TEST(EventCore, TimerGenerationsSurviveHeavyRearming) {
  Net net;
  net.engine.start();
  // Rearm the same timer 1000 times; only the last arming may fire.
  for (int i = 0; i < 1000; ++i) {
    net.a->set_timer(3, static_cast<SimTime>(10 + i % 7));
  }
  net.engine.run_until(1000);
  ASSERT_EQ(net.a->timer_fires.size(), 1u);
  EXPECT_EQ(net.a->timer_fires[0], 3);
}

TEST(EventCore, AllTimerIdsIndependent) {
  Net net;
  net.engine.start();
  for (int id = 0; id < Engine::kMaxTimers; ++id) {
    net.a->set_timer(id, static_cast<SimTime>(10 + id));
  }
  net.engine.run_until(100);
  ASSERT_EQ(net.a->timer_fires.size(),
            static_cast<std::size_t>(Engine::kMaxTimers));
  for (int id = 0; id < Engine::kMaxTimers; ++id) {
    EXPECT_EQ(net.a->timer_fires[static_cast<std::size_t>(id)], id);
  }
  EXPECT_THROW(net.a->set_timer(Engine::kMaxTimers, 1),
               std::invalid_argument);
}

TEST(EventCore, ClearedChannelsDoNotAccelerateLaterTraffic) {
  // A delivery event stranded in the heap by clear_channels() must not
  // deliver a later-injected message ahead of its own sampled delay.
  Net net(DelayModel{4, 4}, 3);
  net.engine.start();
  net.a->send(0, Message{1, 1, 0, 0, 0});  // stale event at t = 4
  net.engine.run_until(2);                 // now = 2, delivery pending
  net.engine.clear_channels();
  net.engine.inject_message(0, 0, Message{1, 2, 0, 0, 0});  // due t = 6
  SimTime before = net.engine.now();
  while (net.engine.step()) {
    if (net.b->deliveries > 0) break;
  }
  EXPECT_EQ(net.b->deliveries, 1);
  EXPECT_EQ(net.engine.now(), before + 4);  // full min_delay honored
}

// -- calendar-queue scheduler ------------------------------------------------
//
// The routing policy as a gated invariant, with deterministic counters:
// sparse queues (<= kSparseThreshold pending) stay on the tiny hot heap,
// loaded queues move the bulk onto the O(1) calendar ring, far-future
// events always take the heap, and the (at, seq) merge keeps the split
// invisible to event order. Any drift in the counts below means the
// scheduling policy changed.

TEST(EventCore, SparseTrafficPrefersTheHeap) {
  Net net;  // one outstanding delivery at a time: always sparse
  net.engine.start();
  for (int round = 0; round < 200; ++round) {
    net.a->send(0, Message{1, round, 0, 0, 0});
    net.engine.run_until(net.engine.now() + 20);
  }
  EngineStats stats = net.engine.stats();
  EXPECT_EQ(net.b->deliveries, 200);
  EXPECT_EQ(stats.scheduler.bucket_inserts, 0u);
  EXPECT_EQ(stats.scheduler.bucket_scans, 0u);
  EXPECT_EQ(stats.scheduler.overflow_pushes, 200u);
  EXPECT_EQ(stats.scheduler.overflow_pops, 200u);
}

TEST(EventCore, LoadedQueueMovesTheBulkToTheRing) {
  // A standing burst: the first kSparseThreshold pushes seed the heap,
  // everything past the threshold lands in calendar buckets, and the
  // merge delivers all of it in time order.
  Net net(DelayModel{1, 16}, 9);
  net.engine.start();
  for (int i = 0; i < 100; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  EngineStats queued = net.engine.stats();
  EXPECT_EQ(queued.scheduler.overflow_pushes, 8u);  // kSparseThreshold
  EXPECT_EQ(queued.scheduler.bucket_inserts, 92u);
  SimTime last = 0;
  while (net.engine.step()) {
    EXPECT_GE(net.engine.now(), last);
    last = net.engine.now();
  }
  EXPECT_EQ(net.b->deliveries, 100);
}

TEST(EventCore, FarFutureTimerPaysOneHeapRoundTrip) {
  Net net;
  net.engine.start();
  net.a->set_timer(0, 10'000);  // beyond the 1024-tick ring window
  EngineStats armed = net.engine.stats();
  EXPECT_EQ(armed.scheduler.overflow_pushes, 1u);
  EXPECT_EQ(armed.scheduler.overflow_pops, 0u);
  net.engine.run_until(20'000);
  ASSERT_EQ(net.a->timer_fires.size(), 1u);
  EngineStats fired = net.engine.stats();
  EXPECT_EQ(fired.scheduler.overflow_pushes, 1u);
  EXPECT_EQ(fired.scheduler.overflow_pops, 1u);
}

TEST(EventCore, SameTickBurstStaysFifoInOneBucket) {
  // Fixed 4-tick delay, 2000 sends at t=0: the FIFO clamp
  // (max(now+delay, last_scheduled)) lands every delivery on tick 4 --
  // a deep backlog piles onto ONE bucket (after the sparse-threshold
  // heap seed), and the (at, seq) merge drains heap seqs 0..7 then ring
  // seqs 8..1999: exact send order.
  Net net(DelayModel{4, 4}, 5);
  net.engine.start();
  for (int i = 0; i < 2000; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  EngineStats queued = net.engine.stats();
  EXPECT_EQ(queued.scheduler.overflow_pushes, 8u);
  EXPECT_EQ(queued.scheduler.bucket_inserts, 1992u);
  net.engine.run_until(10'000);
  EXPECT_EQ(net.b->deliveries, 2000);
  EXPECT_EQ(net.engine.stats().scheduler.bucket_scans, 1u);  // one bucket
}

TEST(EventCore, FarEventOutwaitsRingTrafficAndFiresOnTime) {
  // A callback beyond the ring window sits on the heap while in-window
  // ring traffic churns past it, and still fires at its exact tick.
  Net net(DelayModel{1, 16}, 13);
  net.engine.start();
  int fired_at = -1;
  net.engine.schedule(1'500, [&net, &fired_at] {
    fired_at = static_cast<int>(net.engine.now());
  });                                          // beyond 1024: heap
  for (int i = 0; i < 64; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  EXPECT_EQ(net.engine.stats().scheduler.overflow_pushes, 8u);  // incl. cb
  net.engine.run_until(1'000);
  EXPECT_EQ(net.b->deliveries, 64);
  EXPECT_EQ(fired_at, -1);
  net.engine.run_until(2'000);
  EXPECT_EQ(fired_at, 1500);
}

TEST(EventCore, BinaryHeapModeBypassesTheRing) {
  Engine engine(DelayModel{}, 1);
  engine.use_heap_queues();
  auto p0 = std::make_unique<Sink>();
  Sink* a = p0.get();
  engine.add_process(std::move(p0));
  engine.add_process(std::make_unique<Sink>());
  engine.connect(0, 0, 1, 0);
  engine.start();
  for (int i = 0; i < 50; ++i) a->send(0, Message{1, i, 0, 0, 0});
  engine.run_until(1'000);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.messages_delivered, 50u);
  EXPECT_EQ(stats.scheduler.bucket_inserts, 0u);
  EXPECT_EQ(stats.scheduler.bucket_scans, 0u);
  EXPECT_EQ(stats.scheduler.overflow_pushes, 50u);
  EXPECT_EQ(stats.scheduler.overflow_pops, 50u);
}

TEST(EventCore, StatsCountersAreCoherent) {
  Net net;
  net.engine.start();
  for (int i = 0; i < 20; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  net.engine.schedule(5, [] {});
  net.engine.run_until(100000);
  EngineStats stats = net.engine.stats();
  EXPECT_EQ(stats.messages_sent, 20u);
  EXPECT_EQ(stats.messages_delivered, 20u);
  EXPECT_EQ(stats.events_executed, net.engine.events_executed());
  EXPECT_EQ(stats.callbacks_scheduled, 1u);
  EXPECT_GE(stats.max_heap_size, 20u);  // the burst was all pending at once
}

TEST(EventCore, InterleavedChannelsSortTheirTickOnce) {
  // Two channels fill tick 4: all of a's sends, then all of b's. Per
  // channel seqs rise, but b's seqs interleave a's, so the tick's push
  // order is not seq order and its one gather sorts every ring event.
  Net net(DelayModel{4, 4}, 5);
  net.engine.start();
  for (int i = 0; i < 100; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  for (int i = 0; i < 100; ++i) net.b->send(0, Message{1, i, 0, 0, 0});
  net.engine.run_until(10);
  EngineStats stats = net.engine.stats();
  EXPECT_EQ(stats.scheduler.overflow_pushes, 8u);
  EXPECT_EQ(stats.scheduler.bucket_inserts, 192u);
  EXPECT_EQ(stats.scheduler.bucket_sorts, 1u);
  EXPECT_EQ(stats.scheduler.sorted_events, 192u);
  EXPECT_EQ(net.a->deliveries + net.b->deliveries, 200);
  // Separate engines report the sum (EngineStats::operator+=).
  EngineStats twice = stats;
  twice += stats;
  EXPECT_EQ(twice.scheduler.bucket_sorts, 2u);
  EXPECT_EQ(twice.scheduler.sorted_events, 384u);
}

TEST(EventCore, SeqOrderedTicksCostNoSort) {
  // One channel's deliveries reach every tick in seq order: no sorts.
  Net net(DelayModel{1, 16}, 9);
  net.engine.start();
  for (int i = 0; i < 2000; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  net.engine.run_until(100'000);
  EngineStats stats = net.engine.stats();
  EXPECT_EQ(net.b->deliveries, 2000);
  EXPECT_GT(stats.scheduler.bucket_inserts, 1000u);
  EXPECT_EQ(stats.scheduler.bucket_sorts, 0u);
  EXPECT_EQ(stats.scheduler.sorted_events, 0u);
}

// -- calendar queue vs binary heap -------------------------------------------
//
// The same operations applied to a calendar queue and a kBinaryHeap
// queue must pop the same events in the same order. Seqs are striped
// per entity like the engine's (counter * stride + entity), so a tick's
// pushes arrive out of seq order.

class QueuePair {
 public:
  explicit QueuePair(std::uint64_t seed, std::uint32_t log_buckets = 0)
      : rng_(seed), heap_(SchedulerKind::kBinaryHeap) {
    if (log_buckets != 0) {
      calendar_.set_log_bucket_count(log_buckets);
      heap_.set_log_bucket_count(log_buckets);
    }
  }

  SimTime now() const { return now_; }
  EventQueue& calendar() { return calendar_; }
  support::Rng& rng() { return rng_; }

  void push(SimTime at) {
    std::uint64_t entity = rng_.next_below(kEntities);
    Event event;
    event.at = at;
    event.seq = counters_[entity]++ * kEntities + entity;
    event.payload = pushed_++;
    calendar_.push(event);
    heap_.push(event);
  }

  /// Pops every event due by `t` from both queues, advancing the clock
  /// as the engine does; returns the number popped.
  int drain_until(SimTime t) {
    int popped = 0;
    for (;;) {
      EXPECT_EQ(calendar_.top_time(), heap_.top_time());
      Event a;
      Event b;
      bool got_a = calendar_.pop_min_until(t, &a);
      bool got_b = heap_.pop_min_until(t, &b);
      EXPECT_EQ(got_a, got_b);
      if (!got_a || !got_b) break;
      EXPECT_EQ(a.at, b.at);
      EXPECT_EQ(a.seq, b.seq);
      EXPECT_EQ(a.payload, b.payload);
      if (a.at != b.at || a.seq != b.seq) return -1;
      ++popped;
      advance(a.at);
      if (rng_.next_below(8) == 0) {
        // A delay-0 push into the tick being drained.
        push(now_);
      }
    }
    EXPECT_EQ(calendar_.size(), heap_.size());
    return popped;
  }

  /// Compares the two minima without consuming them (gathers the
  /// calendar's earliest tick).
  void peek() {
    if (heap_.empty()) return;
    const Event a = calendar_.top();
    const Event b = heap_.top();
    EXPECT_EQ(a.at, b.at);
    EXPECT_EQ(a.seq, b.seq);
  }

  void advance(SimTime t) {
    now_ = t;
    calendar_.advance_to(t);
    heap_.advance_to(t);
  }

 private:
  static constexpr std::uint64_t kEntities = 37;
  support::Rng rng_;
  EventQueue calendar_;
  EventQueue heap_;
  std::vector<std::uint64_t> counters_ = std::vector<std::uint64_t>(kEntities);
  std::uint64_t pushed_ = 0;
  SimTime now_ = 0;
};

void run_random_differential(QueuePair& pair, int rounds) {
  support::Rng& rng = pair.rng();
  for (int round = 0; round < rounds; ++round) {
    int pushes = static_cast<int>(rng.next_below(40));
    for (int i = 0; i < pushes; ++i) {
      std::uint64_t kind = rng.next_below(10);
      SimTime at = pair.now();
      if (kind < 6) {
        at += static_cast<SimTime>(rng.next_below(24));  // near traffic
      } else if (kind < 8) {
        at += static_cast<SimTime>(rng.next_below(4096));  // crosses the window
      } else if (kind < 9) {
        at += 3;  // a hot tick
      }
      pair.push(at);
    }
    // Peek past the horizon, then push earlier than the peeked tick.
    if (rng.next_below(4) == 0) {
      pair.peek();
      pair.push(pair.now() + static_cast<SimTime>(rng.next_below(2)));
    }
    SimTime horizon = pair.now() + static_cast<SimTime>(rng.next_below(12));
    ASSERT_GE(pair.drain_until(horizon), 0) << "round " << round;
    pair.advance(horizon);
  }
  ASSERT_GE(pair.drain_until(kTimeInfinity - 1), 0);
  EXPECT_TRUE(pair.calendar().empty());
}

TEST(CalendarQueueDifferential, RandomTrafficPopsLikeTheHeap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    QueuePair pair(seed);
    run_random_differential(pair, 3000);
    EXPECT_GT(pair.calendar().counters().bucket_sorts, 0u);
  }
}

TEST(CalendarQueueDifferential, GrownWindowPopsLikeTheHeap) {
  QueuePair pair(11, EventQueue::kMaxLogBucketCount);
  EXPECT_EQ(pair.calendar().bucket_window(), 4096u);
  run_random_differential(pair, 3000);
  // With the grown window nearly every push stays on the ring.
  EXPECT_GT(pair.calendar().counters().bucket_inserts,
            10 * pair.calendar().counters().overflow_pushes);
}

TEST(CalendarQueueDifferential, PushEarlierThanAPeekedTickLeadsTheQueue) {
  QueuePair pair(5);
  for (int i = 0; i < 64; ++i) pair.push(10);
  pair.peek();  // gathers tick 10 into the drain array and sorts it
  EXPECT_EQ(pair.calendar().counters().bucket_sorts, 1u);
  pair.push(4);
  pair.push(4);
  pair.peek();  // tick 4 now leads
  EXPECT_EQ(pair.calendar().top().at, 4);
  EXPECT_GE(pair.drain_until(9), 2);
  // Tick 10's remainder went back to its bucket in seq order: gathering
  // it again costs no second sort.
  std::uint64_t sorts = pair.calendar().counters().bucket_sorts;
  EXPECT_GE(pair.drain_until(10), 64);
  EXPECT_TRUE(pair.calendar().empty());
  EXPECT_EQ(pair.calendar().counters().bucket_sorts, sorts);
}

TEST(CalendarQueueDifferential, SingleTickStormDrainsInSeqOrder) {
  QueuePair pair(3);
  constexpr int kStorm = 10'000;
  for (int i = 0; i < kStorm; ++i) pair.push(7);
  // Drain part of the storm, inserting into the drained tick as it goes
  // (drain_until pushes delay-0 events), then finish it.
  pair.advance(7);
  int popped = pair.drain_until(7);
  EXPECT_GE(popped, kStorm);
  EXPECT_TRUE(pair.calendar().empty());
  EXPECT_EQ(pair.calendar().counters().bucket_sorts, 1u);
  EXPECT_EQ(pair.calendar().counters().sorted_events,
            static_cast<std::uint64_t>(kStorm - EventQueue::kSparseThreshold));
}

TEST(CalendarQueueMemory, RetainedSlotsFollowPendingEvents) {
  // A one-tick storm, then long steady traffic over every bucket. The
  // pool holds at most the pending high-water and the drain array at
  // most the storm: no bucket keeps the storm's (or any tick's) peak.
  QueuePair pair(17);
  constexpr std::size_t kStorm = 10'000;
  for (std::size_t i = 0; i < kStorm; ++i) pair.push(5);
  ASSERT_GE(pair.drain_until(5), 0);
  EventQueue& queue = pair.calendar();
  std::size_t pool_after_storm = queue.pool_slots();
  std::size_t drain_after_storm = queue.drain_slots();
  EXPECT_LE(pool_after_storm, queue.max_size());
  EXPECT_LE(drain_after_storm, 2 * kStorm);

  support::Rng& rng = pair.rng();
  for (int round = 0; round < 4000; ++round) {
    for (int i = 0; i < 40; ++i) {
      pair.push(pair.now() + 1 + static_cast<SimTime>(rng.next_below(64)));
    }
    ASSERT_GE(pair.drain_until(pair.now() + 1), 0);
  }
  EXPECT_GT(pair.now(), static_cast<SimTime>(3 * EventQueue::kBucketCount));
  EXPECT_LE(queue.pool_slots() + queue.drain_slots(),
            queue.max_size() + drain_after_storm);
  EXPECT_EQ(queue.pool_slots(), pool_after_storm);
}

}  // namespace
}  // namespace klex::sim
