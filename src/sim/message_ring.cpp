#include "sim/message_ring.hpp"

#include <utility>

#include "support/check.hpp"

namespace klex::sim {

void MessageRing::grow() {
  KLEX_CHECK(capacity_ < (std::uint32_t{1} << 31), "message ring overflow");
  std::uint32_t capacity = capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
  auto next = std::make_unique<Message[]>(capacity);
  std::uint32_t count = tail_ - head_;
  for (std::uint32_t i = 0; i < count; ++i) {
    next[i] = buf_[(head_ + i) & (capacity_ - 1)];
  }
  buf_ = std::move(next);
  capacity_ = capacity;
  head_ = 0;
  tail_ = count;
}

}  // namespace klex::sim
