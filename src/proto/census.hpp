// Global token census: the ground truth the controller's distributed
// census (Lemmas 3-5) is checked against.
//
// A resource token is either *free* (a ⟨ResT⟩ in some channel) or
// *reserved* (an entry of some process's RSet). A priority token is free
// (⟨PrioT⟩ in a channel) or held (Prio ≠ ⊥ at some process). Pusher and
// controller tokens are never stored, so they are exactly the in-flight
// messages of their type.
//
// Two implementations of the same count:
//   * CensusTracker -- the incrementally maintained invariant. The free
//     half comes from the engine's inline per-type in-flight counters
//     (updated on send/inject/deliver/clear); the stored half integrates
//     ParticipantDeltaSink deltas. counts() and correct() are O(1), so
//     stabilization detection costs a couple of integer compares per
//     event instead of an O(channels + n) walk per poll.
//   * take_census -- the full-walk debug oracle: walks every in-flight
//     deque and snapshots every participant. Tests cross-check the
//     tracker against it after every event batch; production loops never
//     call it (EngineStats::in_flight_walks proves that).
#pragma once

#include <atomic>
#include <vector>

#include "proto/app.hpp"
#include "proto/messages.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"

namespace klex::proto {

struct TokenCensus {
  int free_resource = 0;
  int reserved_resource = 0;
  int pusher = 0;
  int free_priority = 0;
  int held_priority = 0;
  int control = 0;

  int resource() const { return free_resource + reserved_resource; }
  int priority() const { return free_priority + held_priority; }

  /// True when the network carries exactly the legitimate token
  /// population: ℓ resource tokens, one pusher, one priority token.
  bool correct(int l) const { return correct(l, Features::full()); }

  /// Rung-aware legitimacy: reduced ladder rungs legitimately carry no
  /// pusher and/or no priority token, so their expected population is
  /// ℓ resource tokens plus one of each *enabled* auxiliary token.
  bool correct(int l, const Features& features) const {
    return resource() == l && pusher == (features.pusher ? 1 : 0) &&
           priority() == (features.priority ? 1 : 0);
  }
};

/// Counts every token in channels and process states (full walk; the
/// debug oracle the incremental CensusTracker is checked against).
TokenCensus take_census(
    const sim::Engine& engine,
    const std::vector<const ExclusionParticipant*>& participants);

/// Incrementally maintained global token census; see the file comment.
class CensusTracker final : public ParticipantDeltaSink {
 public:
  /// `engine` must outlive the tracker. `l` is the legitimate resource
  /// population; `features` names the ladder rung, which determines the
  /// expected pusher / priority population (reduced rungs carry none).
  /// The aggregate starts at zero, matching participants that attach in
  /// their pristine state (empty RSet, Prio = ⊥); use resync() when
  /// attaching to a system that already holds tokens.
  CensusTracker(const sim::Engine* engine, int l,
                Features features = Features::full());

  // -- ParticipantDeltaSink ---------------------------------------------------
  // Deltas land in the cell of the lane executing the event (lane 0 for
  // serial engines), so concurrent window execution never contends on a
  // shared counter: each lane's worker is the only writer of its cell,
  // and the load/add/store below is a plain single-writer update, not an
  // atomic RMW -- the serial path pays one inlined TLS load per delta.
  // Readers sum the cells; the sums are only meaningful between windows
  // (the barrier's mutex hand-off orders the cells), which is where every
  // caller of counts()/correct() lives.
  void on_reserved_delta(int delta) override { bump(&LaneCell::reserved, delta); }
  void on_priority_delta(int delta) override { bump(&LaneCell::held, delta); }

  /// Re-derives the participant half from snapshots (one O(n) walk; used
  /// when the sink is attached to already-running participants).
  void resync(const std::vector<const ExclusionParticipant*>& participants);

  // -- tenant axis (multi-tenant fleets) --------------------------------------

  /// Switches the tracker to the tenant axis: delta cells are indexed by
  /// the engine's executing *stream* (one per tenant) instead of the
  /// executing lane, and each of the `tenants` tenants is expected to
  /// carry the tracker's own legitimate population (ℓ and the rung's
  /// auxiliary tokens). Requires the engine to have one explicit stream
  /// per tenant and pristine participants (no deltas accumulated yet).
  /// Single-writer stays intact: a stream's deltas all come from its home
  /// lane's thread.
  void configure_tenants(int tenants);

  bool tenant_mode() const { return tenants_ > 0; }
  int tenant_count() const { return tenants_; }

  /// The legitimacy predicate for one tenant, in O(1): reads the tenant's
  /// engine stream cells and its own delta cell -- never scans the other
  /// tenants. Tenant-mode only.
  bool correct_of(int tenant) const {
    const LaneCell& c = cell(tenant);
    return static_cast<int>(engine_->in_flight_of_type_in(
               tenant, static_cast<std::int32_t>(TokenType::kResource))) +
                   static_cast<int>(
                       c.reserved.load(std::memory_order_relaxed)) ==
               l_ &&
           static_cast<int>(engine_->in_flight_of_type_in(
               tenant, static_cast<std::int32_t>(TokenType::kPusher))) ==
               expected_pusher_ &&
           static_cast<int>(engine_->in_flight_of_type_in(
               tenant, static_cast<std::int32_t>(TokenType::kPriority))) +
                   static_cast<int>(c.held.load(std::memory_order_relaxed)) ==
               expected_priority_;
  }

  /// Reserved / held stored-token counts of one tenant (tenant-mode only).
  int reserved_of(int tenant) const {
    return static_cast<int>(
        cell(tenant).reserved.load(std::memory_order_relaxed));
  }
  int held_of(int tenant) const {
    return static_cast<int>(
        cell(tenant).held.load(std::memory_order_relaxed));
  }

  /// The full census, assembled in O(1) from the engine's per-type
  /// counters and the integrated deltas.
  TokenCensus counts() const;

  /// The legitimacy predicate (ℓ resource tokens, one pusher and one
  /// priority token where the rung circulates them) as a handful of
  /// integer compares -- no walk.
  bool correct() const {
    if (tenant_mode()) {
      // All tenants legitimate. O(R) -- the stabilization loop probes
      // only the executed event's tenant through correct_of instead.
      for (int t = 0; t < tenant_count(); ++t) {
        if (!correct_of(t)) return false;
      }
      return true;
    }
    return static_cast<int>(engine_->in_flight_of_type(
               static_cast<std::int32_t>(TokenType::kResource))) +
                   reserved_resource() == l_ &&
           static_cast<int>(engine_->in_flight_of_type(
               static_cast<std::int32_t>(TokenType::kPusher))) ==
               expected_pusher_ &&
           static_cast<int>(engine_->in_flight_of_type(
               static_cast<std::int32_t>(TokenType::kPriority))) +
                   held_priority() == expected_priority_;
  }

  /// The legitimate resource population (per tenant on the tenant axis).
  int l() const { return l_; }

  /// Re-targets the expected legitimate population. The *stored* half
  /// already tracks a shrinking or growing node population by itself
  /// (detached nodes drain through the delta sink, reattached ones start
  /// pristine); this hook is for harnesses whose *expected* population
  /// changes too -- e.g. a topology repair that re-mints a different ℓ or
  /// switches ladder rungs for the surviving cluster.
  void set_expected_population(int l, const Features& features) {
    KLEX_REQUIRE(l >= 1, "need l >= 1");
    l_ = l;
    expected_pusher_ = features.pusher ? 1 : 0;
    expected_priority_ = features.priority ? 1 : 0;
  }

 private:
  /// One delta accumulator per engine lane, cache-line separated so
  /// worker threads never false-share. Single writer per cell.
  struct alignas(64) LaneCell {
    std::atomic<std::int64_t> reserved{0};
    std::atomic<std::int64_t> held{0};
  };

  void bump(std::atomic<std::int64_t> LaneCell::* field, int delta) {
    // Default mode indexes by executing lane; tenant mode by executing
    // stream (same TLS-load cost -- the mode branch is one predictable
    // test on a member already in cache).
    std::size_t index = !tenant_mode()
                            ? static_cast<std::size_t>(
                                  sim::Engine::current_lane())
                            : static_cast<std::size_t>(
                                  sim::Engine::current_stream());
    std::atomic<std::int64_t>& cell = mutable_cell(index).*field;
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  /// Cell `i`: the first kMaxLanes live inline (the only ones the default
  /// mode ever touches); fleets with more tenants than lanes spill into
  /// the overflow vector sized by configure_tenants.
  const LaneCell& cell(int i) const {
    return i < sim::Engine::kMaxLanes
               ? cells_[static_cast<std::size_t>(i)]
               : overflow_cells_[static_cast<std::size_t>(
                     i - sim::Engine::kMaxLanes)];
  }
  LaneCell& mutable_cell(std::size_t i) {
    return i < static_cast<std::size_t>(sim::Engine::kMaxLanes)
               ? cells_[i]
               : overflow_cells_[i - static_cast<std::size_t>(
                                         sim::Engine::kMaxLanes)];
  }

  // Only the engine's active lanes (or the fleet's tenants) can have
  // accumulated deltas (serial engines: exactly cell 0). correct() probes
  // this once per executed event inside run_until_stabilized, so the scan
  // must not touch cells that are guaranteed zero.
  int sum(std::atomic<std::int64_t> LaneCell::* field) const {
    std::int64_t total = 0;
    const int active =
        tenant_mode() ? tenant_count() : engine_->lane_count();
    for (int i = 0; i < active; ++i) {
      total += (cell(i).*field).load(std::memory_order_relaxed);
    }
    return static_cast<int>(total);
  }

  int reserved_resource() const { return sum(&LaneCell::reserved); }
  int held_priority() const { return sum(&LaneCell::held); }

  const sim::Engine* engine_;
  int l_;
  int expected_pusher_ = 1;
  int expected_priority_ = 1;
  LaneCell cells_[sim::Engine::kMaxLanes];
  std::vector<LaneCell> overflow_cells_;
  int tenants_ = 0;  // 0 = lane-indexed cells (no tenant axis)
};

}  // namespace klex::proto
