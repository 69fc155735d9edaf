// Tests for sim::ChaosModel -- the per-link adversarial channel layer.
//
// Pinned here:
//   * engines without a chaos model (or with the all-zero config, which
//     the builder refuses to attach) take the stock code paths;
//   * drop / duplicate / reorder / jitter semantics, one knob at a time
//     at probability 1 so the behavior is exact, not statistical;
//   * held-back messages stay in the in-flight census (the census is the
//     stabilization oracle; a hold that vanished from it would fake a
//     legitimate population mid-reorder);
//   * the quiet-channel flush: a held message is released after
//     reorder_flush_delay even when no later traffic overtakes it;
//   * burst episodes override the steady config, expire lazily on their
//     own, and can be scoped to channel subsets;
//   * chaos trajectories are a pure function of (seed, config):
//     bit-identical across rebuilds and across lane counts P (chaos
//     decisions draw from the channel rngs of engine.hpp's sequencing).
#include "sim/chaos.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/builder.hpp"
#include "api/system_base.hpp"
#include "api/topology.hpp"
#include "proto/census.hpp"
#include "sim/engine.hpp"
#include "tree/tree.hpp"

namespace klex {
namespace {

/// Counts and timestamps deliveries; replies nothing (so duplication
/// multiplies exactly the injected traffic, not an echo cascade).
class SinkProcess : public sim::Process {
 public:
  void on_message(int, const sim::Message& msg) override {
    deliveries.push_back({now(), msg});
  }
  void on_timer(int) override {}

  struct Delivery {
    sim::SimTime at;
    sim::Message msg;
  };
  std::vector<Delivery> deliveries;

  using sim::Process::now;
  using sim::Process::send;
};

/// One directed link 0 -> 1 with a chaos model attached.
struct ChaosLink {
  explicit ChaosLink(const sim::ChaosConfig& config, std::uint64_t seed = 7)
      : engine(sim::DelayModel{1, 16}, seed) {
    auto p0 = std::make_unique<SinkProcess>();
    auto p1 = std::make_unique<SinkProcess>();
    src = p0.get();
    dst = p1.get();
    engine.add_process(std::move(p0));
    engine.add_process(std::move(p1));
    engine.connect(0, 0, 1, 0);
    engine.configure_chaos(config);
    engine.start();
  }

  void send(int tag) {
    sim::Message msg;
    msg.type = 1;
    msg.f0 = tag;
    src->send(0, msg);
  }

  sim::Engine engine;
  SinkProcess* src = nullptr;
  SinkProcess* dst = nullptr;
};

// -- attachment gating -------------------------------------------------------

TEST(ChaosAttach, BuilderLeavesZeroConfigEnginesStock) {
  auto plain = SystemBuilder()
                   .topology(TopologySpec::tree_line(8))
                   .kl(1, 2)
                   .seed(3)
                   .build();
  EXPECT_FALSE(plain->engine().has_chaos());

  // An explicitly-passed all-zero config is the same as no config: the
  // zero-chaos run must stay on the stock code paths bit for bit.
  auto zero = SystemBuilder()
                  .topology(TopologySpec::tree_line(8))
                  .kl(1, 2)
                  .seed(3)
                  .chaos(sim::ChaosConfig{})
                  .build();
  EXPECT_FALSE(zero->engine().has_chaos());

  sim::ChaosConfig lossy;
  lossy.drop_p = 0.1;
  auto chaotic = SystemBuilder()
                     .topology(TopologySpec::tree_line(8))
                     .kl(1, 2)
                     .seed(3)
                     .chaos(lossy)
                     .build();
  EXPECT_TRUE(chaotic->engine().has_chaos());
}

TEST(ChaosAttach, OutOfRangeKnobsThrowAtTheSetter) {
  // A negative probability has enabled() == false; without setter-time
  // validation it would silently build a chaos-free system instead of
  // rejecting the typo.
  sim::ChaosConfig negative;
  negative.dup_p = -0.1;
  EXPECT_THROW(SystemBuilder().chaos(negative), std::invalid_argument);

  sim::ChaosConfig over_one;
  over_one.drop_p = 1.5;
  EXPECT_THROW(SystemBuilder().chaos(over_one), std::invalid_argument);

  sim::ChaosConfig zero_window;
  zero_window.reorder_p = 0.5;
  zero_window.reorder_window = 0;
  EXPECT_THROW(SystemBuilder().chaos(zero_window), std::invalid_argument);
}

// -- drop --------------------------------------------------------------------

TEST(ChaosSemantics, DropLosesTheMessageEntirely) {
  sim::ChaosConfig config;
  config.drop_p = 1.0;
  ChaosLink net(config);
  for (int i = 0; i < 5; ++i) net.send(i);
  net.engine.run_until(1'000);

  EXPECT_TRUE(net.dst->deliveries.empty());
  EXPECT_EQ(net.engine.chaos_stats().dropped, 5u);
  // Lost at send time: no ring entry, no event, no census entry -- the
  // in-flight population really is short (the deficit the root timeout
  // exists to repair).
  EXPECT_EQ(net.engine.in_flight_messages(), 0u);
}

// -- duplicate ---------------------------------------------------------------

TEST(ChaosSemantics, DuplicateDeliversTwoIndependentCopies) {
  sim::ChaosConfig config;
  config.dup_p = 1.0;
  ChaosLink net(config);
  net.send(42);
  net.engine.run_until(1'000);

  ASSERT_EQ(net.dst->deliveries.size(), 2u);
  EXPECT_EQ(net.dst->deliveries[0].msg.f0, 42);
  EXPECT_EQ(net.dst->deliveries[1].msg.f0, 42);
  EXPECT_EQ(net.engine.chaos_stats().duplicated, 1u);
  EXPECT_EQ(net.engine.in_flight_messages(), 0u);
}

// -- reorder + flush ---------------------------------------------------------

TEST(ChaosSemantics, HeldMessageStaysInTheInFlightCensus) {
  sim::ChaosConfig config;
  config.reorder_p = 1.0;
  config.reorder_window = 4;
  config.reorder_flush_delay = 200;
  ChaosLink net(config);
  net.send(1);
  net.engine.run_until(50);  // before the flush matures

  EXPECT_EQ(net.engine.chaos_held_messages(), 1u);
  EXPECT_EQ(net.engine.in_flight_messages(), 1u)
      << "a held message left the census: stabilization detection would "
         "see a legitimate population mid-reorder";
  EXPECT_TRUE(net.dst->deliveries.empty());
}

TEST(ChaosSemantics, QuietChannelFlushReleasesTheHold) {
  sim::ChaosConfig config;
  config.reorder_p = 1.0;
  config.reorder_flush_delay = 200;
  ChaosLink net(config);
  net.send(9);
  net.engine.run_until(2'000);

  ASSERT_EQ(net.dst->deliveries.size(), 1u);
  EXPECT_EQ(net.dst->deliveries[0].msg.f0, 9);
  // Released by the flush event, not by later traffic: delivery happens
  // at or after hold time + flush delay.
  EXPECT_GE(net.dst->deliveries[0].at, sim::SimTime{200});
  EXPECT_EQ(net.engine.chaos_held_messages(), 0u);
  EXPECT_EQ(net.engine.in_flight_messages(), 0u);
  EXPECT_EQ(net.engine.chaos_stats().reordered, 1u);
}

TEST(ChaosSemantics, LaterSendsReleaseHeldMessagesWithinTheWindow) {
  sim::ChaosConfig config;
  config.reorder_p = 1.0;  // every send is held; later sends mature earlier
  config.reorder_window = 1;
  config.reorder_flush_delay = 10'000;
  ChaosLink net(config);
  const int kSends = 6;
  for (int i = 0; i < kSends; ++i) net.send(i);
  // Well before the 10k flush: everything except the last hold must have
  // been released by the sends that followed it (window = 1).
  net.engine.run_until(1'000);
  EXPECT_EQ(net.dst->deliveries.size(),
            static_cast<std::size_t>(kSends - 1));
  EXPECT_EQ(net.engine.chaos_held_messages(), 1u);

  net.engine.run_until(20'000);  // the flush releases the straggler
  ASSERT_EQ(net.dst->deliveries.size(), static_cast<std::size_t>(kSends));
  EXPECT_EQ(net.engine.chaos_held_messages(), 0u);
  EXPECT_EQ(net.engine.in_flight_messages(), 0u);
  EXPECT_EQ(net.engine.chaos_stats().reordered,
            static_cast<std::uint64_t>(kSends));
}

TEST(ChaosSemantics, ClearChannelsWipesHeldMessages) {
  sim::ChaosConfig config;
  config.reorder_p = 1.0;
  config.reorder_flush_delay = 5'000;
  ChaosLink net(config);
  net.send(1);
  net.engine.run_until(50);
  ASSERT_EQ(net.engine.chaos_held_messages(), 1u);

  // The epoch cut's channel wipe must take holds with it: a hold
  // surviving the cut would resurrect a pre-cut token after the drain.
  net.engine.clear_channels();
  EXPECT_EQ(net.engine.chaos_held_messages(), 0u);
  EXPECT_EQ(net.engine.in_flight_messages(), 0u);
  net.engine.run_until(20'000);  // the stale flush event must find nothing
  EXPECT_TRUE(net.dst->deliveries.empty());
}

// -- jitter ------------------------------------------------------------------

TEST(ChaosSemantics, JitterDelaysButNeverReordersTheChannel) {
  sim::ChaosConfig config;
  config.jitter = 32;
  ChaosLink net(config, /*seed=*/21);
  const int kSends = 24;
  for (int i = 0; i < kSends; ++i) net.send(i);
  net.engine.run_until(5'000);

  ASSERT_EQ(net.dst->deliveries.size(), static_cast<std::size_t>(kSends));
  for (int i = 0; i < kSends; ++i) {
    EXPECT_EQ(net.dst->deliveries[static_cast<std::size_t>(i)].msg.f0, i)
        << "jitter must keep FIFO order (delays stretch, the clamp holds)";
  }
  EXPECT_GT(net.engine.chaos_stats().jittered, 0u);
}

// -- bursts ------------------------------------------------------------------

TEST(ChaosBurst, OverridesSteadyConfigThenExpiresLazily) {
  // Steady config: plain jitter-free lossless (all-zero is fine at the
  // engine layer; only the builder refuses to attach it).
  ChaosLink net(sim::ChaosConfig{});
  sim::ChaosConfig drop_all;
  drop_all.drop_p = 1.0;
  net.engine.chaos_burst(drop_all, 500);

  net.send(1);  // inside the burst: dropped
  net.engine.run_until(600);
  EXPECT_TRUE(net.dst->deliveries.empty());
  EXPECT_EQ(net.engine.chaos_stats().dropped, 1u);

  net.send(2);  // after expiry: the steady (lossless) config is back
  net.engine.run_until(1'200);
  ASSERT_EQ(net.dst->deliveries.size(), 1u);
  EXPECT_EQ(net.dst->deliveries[0].msg.f0, 2);
  EXPECT_EQ(net.engine.chaos_stats().dropped, 1u);
}

TEST(ChaosBurst, ChannelRangeScopingLeavesOtherLinksAlone) {
  // Two disjoint links: 0 -> 1 (channel 0) and 2 -> 3 (channel 1).
  sim::Engine engine(sim::DelayModel{1, 16}, 7);
  std::vector<SinkProcess*> procs;
  for (int i = 0; i < 4; ++i) {
    auto p = std::make_unique<SinkProcess>();
    procs.push_back(p.get());
    engine.add_process(std::move(p));
  }
  engine.connect(0, 0, 1, 0);
  engine.connect(2, 0, 3, 0);
  engine.configure_chaos(sim::ChaosConfig{});
  engine.start();

  sim::ChaosConfig drop_all;
  drop_all.drop_p = 1.0;
  engine.chaos_burst_channel_range(0, 1, drop_all, 1'000);

  sim::Message msg;
  msg.type = 1;
  procs[0]->send(0, msg);  // bursted link: dropped
  procs[2]->send(0, msg);  // untouched link: delivered
  engine.run_until(500);

  EXPECT_TRUE(procs[1]->deliveries.empty());
  ASSERT_EQ(procs[3]->deliveries.size(), 1u);
  EXPECT_EQ(engine.chaos_stats().dropped, 1u);
}

// -- determinism: (seed, config) reproducibility and P-invariance ------------

sim::ChaosConfig stress_chaos() {
  sim::ChaosConfig config;
  config.drop_p = 0.05;
  config.dup_p = 0.01;
  config.reorder_p = 0.15;
  config.reorder_window = 3;
  config.jitter = 8;
  return config;
}

std::unique_ptr<SystemBase> chaotic_system(int threads) {
  return SystemBuilder()
      .topology(TopologySpec::tree_random(24, 5))
      .kl(2, 4)
      .seed(13)
      .threads(threads)
      .chaos(stress_chaos())
      .build();
}

void expect_same_census(const proto::TokenCensus& a,
                        const proto::TokenCensus& b) {
  EXPECT_EQ(a.free_resource, b.free_resource);
  EXPECT_EQ(a.reserved_resource, b.reserved_resource);
  EXPECT_EQ(a.pusher, b.pusher);
  EXPECT_EQ(a.free_priority, b.free_priority);
  EXPECT_EQ(a.held_priority, b.held_priority);
  EXPECT_EQ(a.control, b.control);
}

void expect_same_chaos_stats(const sim::ChaosStats& a,
                             const sim::ChaosStats& b) {
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_EQ(a.jittered, b.jittered);
}

TEST(ChaosDeterminism, SameSeedAndConfigReproduceTheRun) {
  auto a = chaotic_system(1);
  auto b = chaotic_system(1);
  a->run_until(400'000);
  b->run_until(400'000);

  EXPECT_EQ(a->engine().events_executed(), b->engine().events_executed());
  EXPECT_EQ(a->engine().messages_delivered(),
            b->engine().messages_delivered());
  expect_same_chaos_stats(a->engine().chaos_stats(),
                          b->engine().chaos_stats());
  expect_same_census(a->census(), b->census());
  for (NodeId v = 0; v < a->n(); ++v) {
    EXPECT_EQ(a->state_of(v), b->state_of(v)) << "node " << v;
  }
}

class ChaosLaneInvariance : public ::testing::TestWithParam<int> {};

TEST_P(ChaosLaneInvariance, TrajectoryIsIdenticalAtEveryLaneCount) {
  // The chaos contract's strongest clause: the whole trajectory --
  // clocks, counters, chaos decisions, protocol state -- is the same at
  // P lanes as at 1 (per-link rngs keyed by channel index + chaos
  // sequencing; see chaos.hpp).
  auto serial = chaotic_system(1);
  auto parallel = chaotic_system(GetParam());
  ASSERT_EQ(parallel->threads(), GetParam());

  for (sim::SimTime t : {sim::SimTime{50'000}, sim::SimTime{200'000},
                         sim::SimTime{400'000}}) {
    serial->run_until(t);
    parallel->run_until(t);
    EXPECT_EQ(serial->engine().now(), parallel->engine().now());
    EXPECT_EQ(serial->engine().events_executed(),
              parallel->engine().events_executed());
    EXPECT_EQ(serial->engine().messages_sent(),
              parallel->engine().messages_sent());
    EXPECT_EQ(serial->engine().messages_delivered(),
              parallel->engine().messages_delivered());
    expect_same_chaos_stats(serial->engine().chaos_stats(),
                            parallel->engine().chaos_stats());
  }
  expect_same_census(serial->census(), parallel->census());
  // The incremental census must agree with the full-walk oracle under
  // chaos too (holds count as in flight on both sides).
  expect_same_census(serial->census(), serial->census_oracle());
  expect_same_census(parallel->census(), parallel->census_oracle());
  for (NodeId v = 0; v < serial->n(); ++v) {
    EXPECT_EQ(serial->state_of(v), parallel->state_of(v)) << "node " << v;
    EXPECT_EQ(serial->need_of(v), parallel->need_of(v)) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, ChaosLaneInvariance,
                         ::testing::Values(2, 4));

TEST(ChaosDeterminism, PostBurstConvergenceIsIdenticalAcrossLaneCounts) {
  auto serial = chaotic_system(1);
  auto parallel = chaotic_system(4);
  sim::SimTime stab_s = serial->run_until_stabilized(10'000'000);
  sim::SimTime stab_p = parallel->run_until_stabilized(10'000'000);
  ASSERT_NE(stab_s, sim::kTimeInfinity);
  EXPECT_EQ(stab_s, stab_p);

  sim::ChaosConfig severe;
  severe.drop_p = 0.5;
  severe.reorder_p = 0.3;
  serial->engine().chaos_burst(severe, 2'000);
  parallel->engine().chaos_burst(severe, 2'000);

  sim::SimTime rec_s = serial->run_until_stabilized(
      serial->engine().now() + 10'000'000);
  sim::SimTime rec_p = parallel->run_until_stabilized(
      parallel->engine().now() + 10'000'000);
  ASSERT_NE(rec_s, sim::kTimeInfinity) << "burst must re-stabilize";
  EXPECT_EQ(rec_s, rec_p)
      << "post-burst recovery diverged across lane counts";
  expect_same_chaos_stats(serial->engine().chaos_stats(),
                          parallel->engine().chaos_stats());
  expect_same_census(serial->census(), parallel->census());
}

// -- counter widths ----------------------------------------------------------

TEST(ChaosStatsWidth, DecisionCountersAreSixtyFourBit) {
  static_assert(std::is_same_v<decltype(sim::ChaosStats::dropped),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(sim::ChaosStats::duplicated),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(sim::ChaosStats::reordered),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(sim::ChaosStats::jittered),
                               std::uint64_t>);
  SUCCEED();
}

}  // namespace
}  // namespace klex
