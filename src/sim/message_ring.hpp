// Per-channel in-flight FIFO.
//
// A directed channel's pending messages form a strict FIFO consumed from
// the head (delivery order equals send order). std::deque pays iterator
// and segment-map bookkeeping on every push/pop, which shows up at
// ~50 ns/event simulation rates; this ring buffer is a power-of-two
// array with monotone head/tail counters -- push and pop are one store
// or load plus an increment. Growth reorders the live range into a
// doubled buffer (amortized O(1), and channels reach a steady-state
// capacity quickly). release() empties the ring and gives a buffer
// grown past the first allocation back, for fault clears after which a
// storm's backlog should not stay resident (see Engine::clear_channel_range).
//
// The header is 24 bytes (buffer pointer, capacity, head, tail): the
// engine keeps one per channel in an array parallel to its 64-byte hot
// channel records (sim/engine.hpp), so a delivery reads one cache line
// of channel state, one ring header and the message. The counters are
// 32-bit and wrap modulo 2^32; because the capacity is a power of two
// that divides 2^32, tail - head is the exact size and counter & mask
// the exact slot across the wrap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/message.hpp"

namespace klex::sim {

class MessageRing {
 public:
  /// Slots of the first allocation; grow() doubles from here.
  static constexpr std::uint32_t kInitialCapacity = 8;

  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }
  std::size_t capacity() const { return capacity_; }

  const Message& front() const { return buf_[head_ & (capacity_ - 1)]; }

  void push_back(const Message& msg) {
    if (tail_ - head_ == capacity_) grow();
    buf_[tail_ & (capacity_ - 1)] = msg;
    ++tail_;
  }

  void pop_front() { ++head_; }

  void clear() {
    head_ = 0;
    tail_ = 0;
  }

  /// clear(), and frees a buffer grown past kInitialCapacity (the next
  /// push allocates afresh).
  void release() {
    clear();
    if (capacity_ > kInitialCapacity) {
      buf_.reset();
      capacity_ = 0;
    }
  }

  /// Visits every in-flight message in FIFO order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t i = head_; i != tail_; ++i) {
      fn(buf_[i & (capacity_ - 1)]);
    }
  }

 private:
  void grow();

  std::unique_ptr<Message[]> buf_;
  std::uint32_t capacity_ = 0;  // 0 or a power of two
  std::uint32_t head_ = 0;      // monotone mod 2^32; slot = counter & mask
  std::uint32_t tail_ = 0;
};
static_assert(sizeof(MessageRing) <= 24,
              "ring headers sit beside the hot channel records; keep them "
              "at most 24 bytes");

}  // namespace klex::sim
