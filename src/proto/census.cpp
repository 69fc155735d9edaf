#include "proto/census.hpp"

#include "proto/messages.hpp"
#include "support/check.hpp"

namespace klex::proto {

TokenCensus take_census(
    const sim::Engine& engine,
    const std::vector<const ExclusionParticipant*>& participants) {
  TokenCensus census;
  engine.for_each_in_flight(
      [&census](const sim::ChannelInfo&, const sim::Message& msg) {
        if (!is_protocol_message(msg)) return;
        switch (type_of(msg)) {
          case TokenType::kResource: ++census.free_resource; break;
          case TokenType::kPusher: ++census.pusher; break;
          case TokenType::kPriority: ++census.free_priority; break;
          case TokenType::kControl: ++census.control; break;
        }
      });
  for (const ExclusionParticipant* participant : participants) {
    LocalSnapshot snap = participant->snapshot();
    census.reserved_resource += snap.rset_size;
    if (snap.holds_priority) ++census.held_priority;
  }
  return census;
}

CensusTracker::CensusTracker(const sim::Engine* engine, int l,
                             Features features)
    : engine_(engine),
      l_(l),
      expected_pusher_(features.pusher ? 1 : 0),
      expected_priority_(features.priority ? 1 : 0) {
  KLEX_REQUIRE(engine_ != nullptr, "tracker needs an engine");
  KLEX_REQUIRE(l_ >= 1, "need l >= 1");
}

void CensusTracker::configure_tenants(int tenants) {
  KLEX_REQUIRE(tenants >= 1, "need at least one tenant");
  KLEX_REQUIRE(engine_->has_explicit_streams() &&
                   engine_->stream_count() == tenants,
               "tenant axis needs one engine stream per tenant");
  KLEX_REQUIRE(reserved_resource() == 0 && held_priority() == 0,
               "configure tenants before any deltas accumulate");
  if (tenants > sim::Engine::kMaxLanes) {
    overflow_cells_ = std::vector<LaneCell>(
        static_cast<std::size_t>(tenants - sim::Engine::kMaxLanes));
  }
  tenants_ = tenants;
}

void CensusTracker::resync(
    const std::vector<const ExclusionParticipant*>& participants) {
  KLEX_REQUIRE(!tenant_mode(),
               "resync has no tenant attribution; fleets rebuild instead");
  // Between-windows only (like every reader): the walk's totals go to
  // cell 0, the cell the serial path and lane 0 write.
  std::int64_t reserved = 0;
  std::int64_t held = 0;
  for (const ExclusionParticipant* participant : participants) {
    LocalSnapshot snap = participant->snapshot();
    reserved += snap.rset_size;
    if (snap.holds_priority) ++held;
  }
  for (LaneCell& cell : cells_) {
    cell.reserved.store(0, std::memory_order_relaxed);
    cell.held.store(0, std::memory_order_relaxed);
  }
  cells_[0].reserved.store(reserved, std::memory_order_relaxed);
  cells_[0].held.store(held, std::memory_order_relaxed);
}

TokenCensus CensusTracker::counts() const {
  auto in_flight = [this](TokenType type) {
    return static_cast<int>(
        engine_->in_flight_of_type(static_cast<std::int32_t>(type)));
  };
  TokenCensus census;
  census.free_resource = in_flight(TokenType::kResource);
  census.reserved_resource = reserved_resource();
  census.pusher = in_flight(TokenType::kPusher);
  census.free_priority = in_flight(TokenType::kPriority);
  census.held_priority = held_priority();
  census.control = in_flight(TokenType::kControl);
  return census;
}

}  // namespace klex::proto
