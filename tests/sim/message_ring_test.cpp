// MessageRing FIFO stress: wrap-around and growth under churn.
//
// The ring is the per-channel in-flight FIFO on the hot delivery path;
// its head/tail are monotone 32-bit counters masked into a power-of-two
// buffer, and growth re-packs the live range into a doubled buffer. The
// failure modes worth pinning are exactly the masked-index corner cases:
// a push that lands while the live range straddles the wrap point, a
// grow() triggered mid-wrap (the live range must be re-packed in FIFO
// order, not buffer order), and long push/pop churn where the counters
// run far ahead of the capacity.
#include "sim/message_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "sim/message.hpp"
#include "support/rng.hpp"

namespace klex::sim {
namespace {

Message tagged(std::int32_t tag) {
  Message msg;
  msg.type = 1;
  msg.f0 = tag;
  return msg;
}

TEST(MessageRing, GrowMidWrapKeepsFifoOrder) {
  // Force the live range to straddle the wrap point, then push past
  // capacity so grow() must re-pack a wrapped range.
  MessageRing ring;
  for (std::int32_t i = 0; i < 8; ++i) ring.push_back(tagged(i));
  for (std::int32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ring.front().f0, i);
    ring.pop_front();
  }
  // head is deep into the buffer; these pushes wrap around the end.
  for (std::int32_t i = 8; i < 40; ++i) ring.push_back(tagged(i));
  ASSERT_EQ(ring.size(), 34u);
  for (std::int32_t i = 6; i < 40; ++i) {
    ASSERT_EQ(ring.front().f0, i) << "FIFO order broken after mid-wrap grow";
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(MessageRing, ForEachVisitsTheLiveRangeInFifoOrderAcrossWrap) {
  MessageRing ring;
  for (std::int32_t i = 0; i < 12; ++i) ring.push_back(tagged(i));
  for (std::int32_t i = 0; i < 9; ++i) ring.pop_front();
  for (std::int32_t i = 12; i < 24; ++i) ring.push_back(tagged(i));

  std::int32_t expected = 9;
  ring.for_each([&](const Message& msg) { EXPECT_EQ(msg.f0, expected++); });
  EXPECT_EQ(expected, 24);
}

TEST(MessageRing, ClearResetsAndTheRingIsReusable) {
  MessageRing ring;
  for (std::int32_t i = 0; i < 20; ++i) ring.push_back(tagged(i));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  for (std::int32_t i = 100; i < 110; ++i) ring.push_back(tagged(i));
  for (std::int32_t i = 100; i < 110; ++i) {
    ASSERT_EQ(ring.front().f0, i);
    ring.pop_front();
  }
}

TEST(MessageRing, ReleaseFreesAStormGrownBufferAndRegrowsInFifoOrder) {
  MessageRing ring;
  for (std::int32_t i = 0; i < 5; ++i) ring.push_back(tagged(i));
  EXPECT_EQ(ring.capacity(), MessageRing::kInitialCapacity);
  // A ring that never grew keeps its buffer.
  ring.release();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), MessageRing::kInitialCapacity);
  // A storm backlog grows it; clear() keeps the grown buffer, release()
  // gives it back.
  for (std::int32_t i = 0; i < 1000; ++i) ring.push_back(tagged(i));
  EXPECT_GE(ring.capacity(), 1000u);
  ring.clear();
  EXPECT_GE(ring.capacity(), 1000u);
  for (std::int32_t i = 0; i < 1000; ++i) ring.push_back(tagged(i));
  ring.release();
  EXPECT_TRUE(ring.empty());
  EXPECT_LE(ring.capacity(), MessageRing::kInitialCapacity);
  // Regrowth from nothing keeps FIFO order through a wrapped grow.
  for (std::int32_t i = 0; i < 6; ++i) ring.push_back(tagged(i));
  for (std::int32_t i = 0; i < 4; ++i) ring.pop_front();
  for (std::int32_t i = 6; i < 30; ++i) ring.push_back(tagged(i));
  for (std::int32_t i = 4; i < 30; ++i) {
    ASSERT_EQ(ring.front().f0, i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(MessageRing, RandomizedChurnMatchesDequeOracle) {
  // 100k mixed push/pop operations with drifting fill level: the
  // counters run far past every capacity the ring grows through, so
  // every masked-index path (wrap, grow mid-wrap, empty-refill) gets
  // hit. The deque is the trivially-correct FIFO oracle.
  MessageRing ring;
  std::deque<Message> oracle;
  support::Rng rng(0xD15C0);
  std::int32_t next_tag = 0;
  // Phase-shifted push bias: long filling stretches then long draining
  // stretches, so the fill level sweeps up and down repeatedly.
  for (int op = 0; op < 100'000; ++op) {
    const bool fill_phase = (op / 5'000) % 2 == 0;
    const bool push = oracle.empty() ||
                      rng.next_below(100) < (fill_phase ? 70u : 30u);
    if (push) {
      Message msg = tagged(next_tag++);
      ring.push_back(msg);
      oracle.push_back(msg);
    } else {
      ASSERT_EQ(ring.front().f0, oracle.front().f0) << "op " << op;
      ring.pop_front();
      oracle.pop_front();
    }
    ASSERT_EQ(ring.size(), oracle.size()) << "op " << op;
  }
  // Drain and compare the tail end.
  while (!oracle.empty()) {
    ASSERT_EQ(ring.front().f0, oracle.front().f0);
    ring.pop_front();
    oracle.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace klex::sim
