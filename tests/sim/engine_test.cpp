#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace klex::sim {
namespace {

/// Records deliveries; optionally echoes each message back.
class Recorder : public Process {
 public:
  explicit Recorder(bool echo = false) : echo_(echo) {}

  void on_message(int channel, const Message& msg) override {
    deliveries.push_back({now(), channel, msg});
    if (echo_ && msg.f0 > 0) {
      Message reply = msg;
      --reply.f0;
      send(channel, reply);
    }
  }

  void on_timer(int timer_id) override { timer_fires.push_back(timer_id); }

  struct Delivery {
    SimTime at;
    int channel;
    Message msg;
  };

  std::vector<Delivery> deliveries;
  std::vector<int> timer_fires;

  using Process::cancel_timer;
  using Process::send;
  using Process::set_timer;

 private:
  bool echo_;
};

Message tagged(std::int32_t tag) {
  Message msg;
  msg.type = 1;
  msg.f0 = tag;
  return msg;
}

/// Two nodes connected in both directions on channel 0.
struct Pair {
  explicit Pair(DelayModel delays = {}, std::uint64_t seed = 1)
      : engine(delays, seed) {
    auto p0 = std::make_unique<Recorder>();
    auto p1 = std::make_unique<Recorder>();
    a = p0.get();
    b = p1.get();
    engine.add_process(std::move(p0));
    engine.add_process(std::move(p1));
    engine.connect(0, 0, 1, 0);
    engine.connect(1, 0, 0, 0);
  }
  Engine engine;
  Recorder* a;
  Recorder* b;
};

TEST(Engine, DeliversMessages) {
  Pair net;
  net.engine.start();
  net.a->send(0, tagged(7));
  net.engine.run_until(1000);
  ASSERT_EQ(net.b->deliveries.size(), 1u);
  EXPECT_EQ(net.b->deliveries[0].msg.f0, 7);
  EXPECT_EQ(net.b->deliveries[0].channel, 0);
}

TEST(Engine, FifoOrderPreserved) {
  Pair net(DelayModel{1, 64}, 3);
  net.engine.start();
  for (std::int32_t i = 0; i < 100; ++i) net.a->send(0, tagged(i));
  net.engine.run_until(100000);
  ASSERT_EQ(net.b->deliveries.size(), 100u);
  for (std::int32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(net.b->deliveries[static_cast<std::size_t>(i)].msg.f0, i)
        << "FIFO violated at position " << i;
  }
}

TEST(Engine, DelayWithinBounds) {
  Pair net(DelayModel{5, 9}, 11);
  net.engine.start();
  net.a->send(0, tagged(1));
  net.engine.run_until(100);
  ASSERT_EQ(net.b->deliveries.size(), 1u);
  EXPECT_GE(net.b->deliveries[0].at, 5u);
  EXPECT_LE(net.b->deliveries[0].at, 9u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Pair net(DelayModel{1, 16}, seed);
    net.engine.start();
    for (std::int32_t i = 0; i < 50; ++i) net.a->send(0, tagged(i));
    net.engine.run_until(100000);
    std::vector<SimTime> times;
    for (const auto& d : net.b->deliveries) times.push_back(d.at);
    return times;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Engine, PingPongTerminates) {
  Pair net;
  net.engine.start();
  // Echo 10 bounces.
  auto echo_pair = Pair(DelayModel{1, 4}, 5);
  // Rebuild with echo processes.
  Engine engine(DelayModel{1, 4}, 5);
  auto p0 = std::make_unique<Recorder>(true);
  auto p1 = std::make_unique<Recorder>(true);
  Recorder* a = p0.get();
  Recorder* b = p1.get();
  engine.add_process(std::move(p0));
  engine.add_process(std::move(p1));
  engine.connect(0, 0, 1, 0);
  engine.connect(1, 0, 0, 0);
  engine.start();
  a->send(0, tagged(9));  // 9 echoes follow
  EXPECT_TRUE(engine.run_until_message_quiescence(10000));
  EXPECT_EQ(engine.messages_delivered(), 10u);
  EXPECT_EQ(a->deliveries.size() + b->deliveries.size(), 10u);
  (void)echo_pair;
}

TEST(Engine, TimerFiresOnce) {
  Pair net;
  net.engine.start();
  net.a->set_timer(2, 50);
  net.engine.run_until(200);
  ASSERT_EQ(net.a->timer_fires.size(), 1u);
  EXPECT_EQ(net.a->timer_fires[0], 2);
}

TEST(Engine, TimerRearmInvalidatesPrevious) {
  Pair net;
  net.engine.start();
  net.a->set_timer(0, 100);
  net.a->set_timer(0, 500);  // rearm before first fire
  net.engine.run_until(300);
  EXPECT_TRUE(net.a->timer_fires.empty());
  net.engine.run_until(600);
  EXPECT_EQ(net.a->timer_fires.size(), 1u);
}

TEST(Engine, TimerCancel) {
  Pair net;
  net.engine.start();
  net.a->set_timer(1, 100);
  net.a->cancel_timer(1);
  net.engine.run_until(1000);
  EXPECT_TRUE(net.a->timer_fires.empty());
}

TEST(Engine, ScheduledCallbacksRun) {
  Pair net;
  net.engine.start();
  int fired = 0;
  net.engine.schedule(10, [&fired] { ++fired; });
  net.engine.schedule(20, [&fired] { ++fired; });
  net.engine.run_until(15);
  EXPECT_EQ(fired, 1);
  net.engine.run_until(25);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, InFlightAccounting) {
  Pair net;
  net.engine.start();
  net.a->send(0, tagged(1));
  net.a->send(0, tagged(2));
  EXPECT_EQ(net.engine.in_flight_messages(), 2u);
  net.engine.run_until(100000);
  EXPECT_EQ(net.engine.in_flight_messages(), 0u);
  EXPECT_EQ(net.engine.messages_sent(), 2u);
  EXPECT_EQ(net.engine.messages_delivered(), 2u);
}

TEST(Engine, ForEachInFlightSeesQueuedMessages) {
  Pair net;
  net.engine.start();
  net.a->send(0, tagged(5));
  int seen = 0;
  net.engine.for_each_in_flight(
      [&seen](const ChannelInfo& info, const Message& msg) {
        ++seen;
        EXPECT_EQ(info.from, 0);
        EXPECT_EQ(info.to, 1);
        EXPECT_EQ(msg.f0, 5);
      });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(net.engine.channel_backlog(0, 0), 1);
  EXPECT_EQ(net.engine.channel_backlog(1, 0), 0);
}

TEST(Engine, ClearChannelsDropsMessages) {
  Pair net;
  net.engine.start();
  net.a->send(0, tagged(1));
  net.a->send(0, tagged(2));
  net.engine.clear_channels();
  EXPECT_EQ(net.engine.in_flight_messages(), 0u);
  net.engine.run_until(100000);
  EXPECT_TRUE(net.b->deliveries.empty());
}

TEST(Engine, InjectMessageBehavesLikeSend) {
  Pair net;
  net.engine.start();
  net.engine.inject_message(0, 0, tagged(33));
  net.engine.run_until(1000);
  ASSERT_EQ(net.b->deliveries.size(), 1u);
  EXPECT_EQ(net.b->deliveries[0].msg.f0, 33);
  // Injection is not counted as a protocol send.
  EXPECT_EQ(net.engine.messages_sent(), 0u);
  EXPECT_EQ(net.engine.messages_delivered(), 1u);
}

TEST(Engine, InjectionPreservesFifoWithSends) {
  Pair net(DelayModel{1, 32}, 7);
  net.engine.start();
  net.engine.inject_message(0, 0, tagged(100));
  net.a->send(0, tagged(101));
  net.engine.inject_message(0, 0, tagged(102));
  net.engine.run_until(10000);
  ASSERT_EQ(net.b->deliveries.size(), 3u);
  EXPECT_EQ(net.b->deliveries[0].msg.f0, 100);
  EXPECT_EQ(net.b->deliveries[1].msg.f0, 101);
  EXPECT_EQ(net.b->deliveries[2].msg.f0, 102);
}

TEST(Engine, ObserverSeesTraffic) {
  class Counter : public SimObserver {
   public:
    void on_send(SimTime, NodeId, int, const Message&) override { ++sends; }
    void on_deliver(SimTime, NodeId, int, const Message&) override {
      ++delivers;
    }
    int sends = 0;
    int delivers = 0;
  };
  Pair net;
  Counter counter;
  net.engine.add_observer(&counter);
  net.engine.start();
  net.a->send(0, tagged(1));
  net.engine.run_until(1000);
  EXPECT_EQ(counter.sends, 1);
  EXPECT_EQ(counter.delivers, 1);
}

TEST(Engine, RunEventsBudget) {
  Pair net;
  net.engine.start();
  for (int i = 0; i < 10; ++i) net.a->send(0, tagged(i));
  EXPECT_EQ(net.engine.run_events(4), 4u);
  EXPECT_EQ(net.b->deliveries.size(), 4u);
}

TEST(Engine, ConnectValidation) {
  Engine engine;
  engine.add_process(std::make_unique<Recorder>());
  engine.add_process(std::make_unique<Recorder>());
  engine.connect(0, 0, 1, 0);
  EXPECT_THROW(engine.connect(0, 0, 1, 0), std::invalid_argument);
  EXPECT_THROW(engine.connect(5, 0, 1, 0), std::invalid_argument);
}

/// Node 0 wires channels 0 and 2 (1 is a gap), nodes 1 and 2 wire
/// channel 0 back to it, and node 3 wires nothing.
struct Gapped {
  Gapped() {
    for (int i = 0; i < 4; ++i) {
      engine.add_process(std::make_unique<Recorder>());
    }
    engine.connect(0, 0, 1, 0);
    engine.connect(1, 0, 0, 0);
    engine.connect(0, 2, 2, 0);
    engine.connect(2, 0, 0, 2);
  }
  Engine engine;
};

TEST(EngineWiring, UnwiredLocalChannelsThrowOnEveryLookup) {
  using support::CheckFailure;
  Gapped net;
  // Before start: the first lookups build the channel table.
  for (int channel : {-1, 1, 3, 1000}) {
    EXPECT_THROW(net.engine.inject_message(0, channel, tagged(1)),
                 CheckFailure)
        << "channel " << channel;
    EXPECT_THROW(net.engine.channel_backlog(0, channel), CheckFailure)
        << "channel " << channel;
  }
  EXPECT_THROW(net.engine.inject_message(1, 1, tagged(1)), CheckFailure);
  EXPECT_THROW(net.engine.inject_message(3, 0, tagged(1)), CheckFailure);
  net.engine.start();
  for (int channel : {-1, 1, 3}) {
    EXPECT_THROW(net.engine.send_from(0, channel, tagged(1)), CheckFailure)
        << "channel " << channel;
  }
  EXPECT_THROW(net.engine.send_from(3, 0, tagged(1)), CheckFailure);
  EXPECT_THROW(net.engine.send_from(2, 1, tagged(1)), CheckFailure);
  // A rejected send leaves no trace.
  EXPECT_EQ(net.engine.messages_sent(), 0u);
  EXPECT_EQ(net.engine.in_flight_messages(), 0u);
  EXPECT_TRUE(net.engine.run_until_message_quiescence(10));
  // The wired channels still route to their own destinations.
  net.engine.send_from(0, 0, tagged(10));
  net.engine.send_from(0, 2, tagged(12));
  net.engine.send_from(2, 0, tagged(20));
  EXPECT_EQ(net.engine.channel_backlog(0, 0), 1);
  EXPECT_EQ(net.engine.channel_backlog(0, 2), 1);
  EXPECT_EQ(net.engine.channel_backlog(2, 0), 1);
  EXPECT_EQ(net.engine.channel_backlog(1, 0), 0);
  net.engine.run_until(1000);
  auto& r1 = static_cast<Recorder&>(net.engine.process(1));
  auto& r0 = static_cast<Recorder&>(net.engine.process(0));
  ASSERT_EQ(r1.deliveries.size(), 1u);
  EXPECT_EQ(r1.deliveries[0].msg.f0, 10);
  ASSERT_EQ(r0.deliveries.size(), 1u);
  EXPECT_EQ(r0.deliveries[0].msg.f0, 20);
  EXPECT_EQ(r0.deliveries[0].channel, 2);
}

TEST(EngineWiring, OutOfRangeNodesThrow) {
  using support::CheckFailure;
  Gapped net;
  for (NodeId node : {-1, 4, 1 << 20}) {
    EXPECT_THROW(net.engine.inject_message(node, 0, tagged(1)),
                 CheckFailure)
        << "node " << node;
    EXPECT_THROW(net.engine.channel_backlog(node, 0), CheckFailure)
        << "node " << node;
    EXPECT_THROW(net.engine.process(node), std::invalid_argument)
        << "node " << node;
    EXPECT_THROW(net.engine.connect(node, 5, 0, 5), std::invalid_argument)
        << "node " << node;
    EXPECT_THROW(net.engine.connect(0, 5, node, 5), std::invalid_argument)
        << "node " << node;
  }
  net.engine.start();
  for (NodeId node : {-1, 4}) {
    EXPECT_THROW(net.engine.send_from(node, 0, tagged(1)), CheckFailure)
        << "node " << node;
  }
  EXPECT_EQ(net.engine.channel_count(), 4);
  EXPECT_EQ(net.engine.messages_sent(), 0u);
}

TEST(EngineWiring, SecondConnectOfAnEndpointThrows) {
  Gapped net;
  // Same (node, channel), whatever the destination; the gap and a new
  // channel past the end stay free.
  EXPECT_THROW(net.engine.connect(0, 0, 1, 0), std::invalid_argument);
  EXPECT_THROW(net.engine.connect(0, 0, 3, 0), std::invalid_argument);
  EXPECT_THROW(net.engine.connect(0, 2, 3, 0), std::invalid_argument);
  EXPECT_THROW(net.engine.connect(2, 0, 3, 0), std::invalid_argument);
  EXPECT_THROW(net.engine.connect(0, -1, 3, 0), std::invalid_argument);
  EXPECT_THROW(net.engine.connect(0, 1, 3, -1), std::invalid_argument);
  EXPECT_EQ(net.engine.channel_count(), 4);
  // A lookup builds the table; later wiring must still be seen, by the
  // duplicate check and by the next lookup.
  EXPECT_EQ(net.engine.channel_backlog(0, 0), 0);
  net.engine.connect(0, 1, 3, 0);
  net.engine.connect(3, 0, 0, 1);
  net.engine.connect(0, 7, 3, 7);
  EXPECT_THROW(net.engine.connect(0, 1, 2, 1), std::invalid_argument);
  EXPECT_THROW(net.engine.connect(0, 7, 1, 7), std::invalid_argument);
  EXPECT_EQ(net.engine.channel_count(), 7);
  net.engine.inject_message(0, 1, tagged(31));
  net.engine.inject_message(0, 7, tagged(37));
  EXPECT_EQ(net.engine.channel_backlog(0, 1), 1);
  EXPECT_EQ(net.engine.channel_backlog(0, 7), 1);
  EXPECT_THROW(net.engine.inject_message(0, 6, tagged(1)),
               support::CheckFailure);
  net.engine.run_until(1000);
  auto& r3 = static_cast<Recorder&>(net.engine.process(3));
  ASSERT_EQ(r3.deliveries.size(), 2u);
  EXPECT_EQ(r3.deliveries[0].channel + r3.deliveries[1].channel, 7);
}

TEST(EngineWiring, WiringAfterStartOrWithPendingEventsThrows) {
  {
    Gapped net;
    net.engine.inject_message(0, 0, tagged(1));
    EXPECT_THROW(net.engine.connect(0, 1, 3, 0), std::invalid_argument);
    EXPECT_THROW(net.engine.add_process(std::make_unique<Recorder>()),
                 std::invalid_argument);
  }
  Gapped net;
  net.engine.start();
  EXPECT_THROW(net.engine.add_process(std::make_unique<Recorder>()),
               std::invalid_argument);
  EXPECT_THROW(net.engine.connect(0, 1, 3, 0), std::invalid_argument);
  EXPECT_THROW(net.engine.connect(3, 0, 0, 1), std::invalid_argument);
  EXPECT_EQ(net.engine.process_count(), 4);
  EXPECT_EQ(net.engine.channel_count(), 4);
  EXPECT_THROW(net.engine.send_from(0, 1, tagged(1)), support::CheckFailure);
}

TEST(Engine, BadDelayModelRejected) {
  EXPECT_THROW(Engine(DelayModel{0, 5}), std::invalid_argument);
  EXPECT_THROW(Engine(DelayModel{6, 5}), std::invalid_argument);
}

TEST(Engine, TimeAdvancesMonotonically) {
  Pair net(DelayModel{1, 8}, 13);
  net.engine.start();
  for (int i = 0; i < 20; ++i) net.a->send(0, tagged(i));
  SimTime last = 0;
  while (net.engine.step()) {
    EXPECT_GE(net.engine.now(), last);
    last = net.engine.now();
  }
}

TEST(Engine, StreamZeroIsTheWholePlainEngine) {
  Pair net;
  net.engine.start();
  ASSERT_EQ(net.engine.stream_count(), 1);
  ASSERT_FALSE(net.engine.has_explicit_streams());
  for (int i = 0; i < 6; ++i) net.a->send(0, tagged(i));
  net.b->send(0, tagged(9));
  net.engine.run_events(3);
  ASSERT_GT(net.engine.in_flight_messages(), 0u);
  for (std::int32_t type = 0; type < Engine::kTrackedMessageTypes; ++type) {
    EXPECT_EQ(net.engine.in_flight_of_type_in(0, type),
              net.engine.in_flight_of_type(type))
        << "type " << type;
    EXPECT_EQ(net.engine.sent_of_type_in(0, type),
              net.engine.sent_of_type(type))
        << "type " << type;
  }
  EXPECT_EQ(net.engine.sent_of_type_in(0, 1), 7u);
  EXPECT_EQ(net.engine.events_executed_in(0), net.engine.events_executed());
  EXPECT_EQ(net.engine.events_executed_in(0), 3u);
}

TEST(Engine, OutOfRangeStreamReadoutsThrow) {
  Pair net;
  for (int stream : {-1, 1}) {
    EXPECT_THROW(net.engine.in_flight_of_type_in(stream, 1),
                 std::invalid_argument);
    EXPECT_THROW(net.engine.sent_of_type_in(stream, 1),
                 std::invalid_argument);
    EXPECT_THROW(net.engine.events_executed_in(stream),
                 std::invalid_argument);
    EXPECT_THROW(net.engine.schedule_in_stream(stream, 1, [] {}),
                 std::invalid_argument);
  }
}

// -- per-stream queues and tenant-major order -------------------------------

/// A node that keeps its stream busy: on start it sends a burst and arms
/// a timer; every delivery is logged and echoed while its countdown
/// lasts; every timer firing re-arms and schedules a callback (sequenced
/// in the node's stream) that sends a fresh burst.
class Chatter : public Process {
 public:
  void on_start() override {
    for (std::int32_t i = 0; i < 3; ++i) send(0, tagged(8 + i));
    set_timer(0, 40);
  }
  void on_message(int channel, const Message& msg) override {
    log.push_back({now(), channel, msg.f0});
    if (msg.f0 > 0) {
      Message reply = msg;
      --reply.f0;
      send(channel, reply);
    }
  }
  void on_timer(int timer_id) override {
    log.push_back({now(), -1, timer_id});
    if (++fired < 12) set_timer(0, 37);
    engine().schedule(5, [this] {
      log.push_back({now(), -2, 0});
      send(0, tagged(4));
    });
  }

  struct Entry {
    SimTime at;
    int channel;
    std::int32_t value;
    bool operator==(const Entry&) const = default;
  };
  std::vector<Entry> log;
  int fired = 0;

  using Process::send;
};

/// `streams` independent pairs of Chatters, stream s seeded 100 + s.
struct StreamFleet {
  explicit StreamFleet(int streams) : engine(DelayModel{1, 16}, 1) {
    std::vector<int> node_stream;
    std::vector<std::uint64_t> seeds;
    for (int s = 0; s < streams; ++s) {
      for (int i = 0; i < 2; ++i) {
        auto node = std::make_unique<Chatter>();
        nodes.push_back(node.get());
        engine.add_process(std::move(node));
        node_stream.push_back(s);
      }
      seeds.push_back(100 + static_cast<std::uint64_t>(s));
    }
    for (int s = 0; s < streams; ++s) {
      engine.connect(2 * s, 0, 2 * s + 1, 0);
      engine.connect(2 * s + 1, 0, 2 * s, 0);
    }
    engine.configure_streams(node_stream, seeds);
  }

  Engine engine;
  std::vector<Chatter*> nodes;
};

TEST(EngineStreams, RunUntilMatchesStepAtEveryCheckpoint) {
  // run_until executes tenant-major, step() the merged (at, seq) order:
  // every stream must see the same events at the same times either way.
  StreamFleet spans(5);
  StreamFleet steps(5);
  ASSERT_TRUE(spans.engine.tenant_major());
  for (SimTime checkpoint : {SimTime{30}, SimTime{95}, SimTime{260},
                             SimTime{700}}) {
    spans.engine.run_until(checkpoint);
    while (steps.engine.next_event_time() <= checkpoint) {
      ASSERT_TRUE(steps.engine.step());
    }
    steps.engine.run_until(checkpoint);  // aligns the clock only
    EXPECT_EQ(spans.engine.now(), checkpoint);
    EXPECT_EQ(steps.engine.now(), checkpoint);
    EXPECT_EQ(spans.engine.events_executed(), steps.engine.events_executed());
    EXPECT_EQ(spans.engine.next_event_time(),
              steps.engine.next_event_time());
    EXPECT_EQ(spans.engine.pending_callbacks(),
              steps.engine.pending_callbacks());
    for (int s = 0; s < 5; ++s) {
      EXPECT_EQ(spans.engine.events_executed_in(s),
                steps.engine.events_executed_in(s))
          << "stream " << s << " at " << checkpoint;
      EXPECT_EQ(spans.engine.sent_of_type_in(s, 1),
                steps.engine.sent_of_type_in(s, 1));
      EXPECT_EQ(spans.engine.in_flight_of_type_in(s, 1),
                steps.engine.in_flight_of_type_in(s, 1));
    }
    for (std::size_t v = 0; v < spans.nodes.size(); ++v) {
      EXPECT_EQ(spans.nodes[v]->log, steps.nodes[v]->log)
          << "node " << v << " at " << checkpoint;
    }
  }
  EXPECT_GT(spans.engine.stats().callbacks_scheduled, 0u);
}

/// Stream 0's node, whose timer schedules into stream 1 through `poke`.
class Trespasser : public Process {
 public:
  explicit Trespasser(std::function<void(Engine&)> poke)
      : poke_(std::move(poke)) {}
  void on_start() override { set_timer(0, 3); }
  void on_message(int, const Message&) override {}
  void on_timer(int) override { poke_(engine()); }

 private:
  std::function<void(Engine&)> poke_;
};

TEST(EngineStreams, AnEventPushingIntoAnotherStreamFailsItsCheck) {
  auto build = [](std::function<void(Engine&)> poke) {
    auto engine = std::make_unique<Engine>();
    engine->add_process(std::make_unique<Trespasser>(std::move(poke)));
    engine->add_process(std::make_unique<Recorder>());
    engine->configure_streams({0, 1}, {1, 2});
    return engine;
  };
  // A callback or a timer into stream 1 from an event of stream 0.
  auto callback = build([](Engine& e) { e.schedule_in_stream(1, 1, [] {}); });
  EXPECT_THROW(callback->run_until(10), support::CheckFailure);
  auto timer = build([](Engine& e) { e.set_timer_for(1, 0, 1); });
  EXPECT_THROW(timer->run_until(10), support::CheckFailure);
  // Into its own stream is fine, and so is the management plane.
  auto own = build([](Engine& e) { e.schedule_in_stream(0, 1, [] {}); });
  EXPECT_NO_THROW(own->run_until(10));
  own->schedule_in_stream(1, 1, [] {});
  EXPECT_NO_THROW(own->run_until(20));
}

TEST(EngineStreams, GlobalCallbacksAndObserversRunMergedSerial) {
  StreamFleet fleet(3);
  fleet.engine.run_until(50);
  ASSERT_TRUE(fleet.engine.tenant_major());
  // schedule() outside any event is global: it may schedule into every
  // stream, and spans containing it run merged-serial.
  int ran = 0;
  fleet.engine.schedule(10, [&] {
    ++ran;
    for (int s = 0; s < 3; ++s) {
      fleet.engine.schedule_in_stream(s, 1, [&ran] { ++ran; });
    }
  });
  EXPECT_FALSE(fleet.engine.tenant_major());
  fleet.engine.run_until(80);
  EXPECT_EQ(ran, 4);
  EXPECT_TRUE(fleet.engine.tenant_major());
  // An attached observer sees one global order.
  SimObserver observer;
  fleet.engine.add_observer(&observer);
  EXPECT_FALSE(fleet.engine.tenant_major());
  EXPECT_NO_THROW(fleet.engine.run_until(200));
}

// -- typed client actions -----------------------------------------------------

/// Logs every action it receives.
class ActionLog : public ActionHandler {
 public:
  struct Entry {
    SimTime at;
    NodeId node;
    int action;
    std::uint64_t epoch;
    bool operator==(const Entry&) const = default;
  };
  explicit ActionLog(Engine& engine, std::vector<std::string>* order = nullptr)
      : engine_(engine), order_(order) {}
  void on_action(NodeId node, std::uint8_t action,
                 std::uint64_t epoch) override {
    log.push_back({engine_.now(), node, action, epoch});
    if (order_ != nullptr) order_->push_back("action" + std::to_string(action));
  }
  std::vector<Entry> log;

 private:
  Engine& engine_;
  std::vector<std::string>* order_;
};

TEST(EngineActions, ShareTheCallbackSeqSlotInScheduleOrder) {
  // A typed action takes the seq slot and counter of the callback it
  // replaces, so actions and callbacks of one stream scheduled for the
  // same moment run in schedule order -- on a plain engine and in one
  // stream of a fleet.
  auto check = [](Engine& engine, int stream, NodeId node) {
    std::vector<std::string> order;
    ActionLog actions(engine, &order);
    const int handler = engine.add_action_handler(&actions);
    const SimTime at = engine.now() + 5;
    engine.schedule_in_stream(stream, 5, [&] { order.push_back("fn0"); });
    engine.schedule_action(handler, node, 1, 5);
    engine.schedule_in_stream(stream, 5, [&] { order.push_back("fn1"); });
    engine.schedule_action(handler, node, 2, 5);
    engine.schedule_action(handler, node, 3, 5);
    engine.schedule_in_stream(stream, 5, [&] { order.push_back("fn2"); });
    engine.run_until(at);
    EXPECT_EQ(order, (std::vector<std::string>{"fn0", "action1", "fn1",
                                               "action2", "action3", "fn2"}));
    for (const ActionLog::Entry& entry : actions.log) {
      EXPECT_EQ(entry.at, at);
      EXPECT_EQ(entry.node, node);
    }
    engine.remove_action_handler(handler);
  };
  Pair pair;
  check(pair.engine, 0, 1);
  StreamFleet fleet(3);
  fleet.engine.run_until(20);
  check(fleet.engine, 1, 3);  // node 3 is stream 1's second node
}

TEST(EngineActions, CountLikeCallbacksButTakeNoSlot) {
  Pair net;
  ActionLog actions(net.engine);
  const int handler = net.engine.add_action_handler(&actions);
  for (int i = 0; i < 100; ++i) {
    net.engine.schedule_action(handler, i % 2, 7, 1 + i % 13,
                               static_cast<std::uint64_t>(i));
  }
  // Pending actions hold a quiescence check open like callbacks do.
  EXPECT_EQ(net.engine.pending_callbacks(), 100u);
  EXPECT_TRUE(net.engine.run_until_message_quiescence(1'000));
  EXPECT_EQ(net.engine.pending_callbacks(), 0u);
  ASSERT_EQ(actions.log.size(), 100u);
  const EngineStats stats = net.engine.stats();
  EXPECT_EQ(stats.callbacks_scheduled, 100u);
  EXPECT_EQ(stats.callback_slots_created, 0u);
  std::vector<std::uint64_t> epochs;
  for (const ActionLog::Entry& entry : actions.log) {
    EXPECT_EQ(entry.action, 7);
    epochs.push_back(entry.epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  for (std::uint64_t i = 0; i < epochs.size(); ++i) EXPECT_EQ(epochs[i], i);
}

TEST(EngineActions, RemovedHandlerRetiresItsActionsAsNoOps) {
  Pair net;
  auto doomed = std::make_unique<ActionLog>(net.engine);
  const int handler = net.engine.add_action_handler(doomed.get());
  net.engine.schedule_action(handler, 0, 0, 10);
  net.engine.remove_action_handler(handler);
  doomed.reset();
  // The slot stays taken while its stale action is pending, so a new
  // handler cannot receive it.
  ActionLog fresh(net.engine);
  const int second = net.engine.add_action_handler(&fresh);
  EXPECT_NE(second, handler);
  net.engine.run_until(20);
  EXPECT_TRUE(fresh.log.empty());
  EXPECT_EQ(net.engine.pending_callbacks(), 0u);
  // Retired, the slot is free again; scheduling for a removed handler
  // fails its check.
  EXPECT_THROW(net.engine.schedule_action(handler, 0, 0, 1),
               support::CheckFailure);
  ActionLog third(net.engine);
  EXPECT_EQ(net.engine.add_action_handler(&third), handler);
}

TEST(EngineActions, ActionsAreTenantScoped) {
  // An action runs in its node's stream: from there it may schedule into
  // that stream only, and it does not force merged-serial spans.
  StreamFleet fleet(2);
  struct Poker : ActionHandler {
    Engine* engine = nullptr;
    int handler = -1;
    void on_action(NodeId, std::uint8_t action, std::uint64_t) override {
      if (action == 1) engine->schedule_action(handler, 2, 0, 1);  // stream 1
    }
  } poker;
  poker.engine = &fleet.engine;
  poker.handler = fleet.engine.add_action_handler(&poker);
  fleet.engine.schedule_action(poker.handler, 1, 0, 5);  // stream 0
  EXPECT_TRUE(fleet.engine.tenant_major());
  EXPECT_NO_THROW(fleet.engine.run_until(10));
  fleet.engine.schedule_action(poker.handler, 0, 1, 5);  // stream 0
  EXPECT_THROW(fleet.engine.run_until(20), support::CheckFailure);
}

}  // namespace
}  // namespace klex::sim
