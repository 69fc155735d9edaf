// Closed-loop workload driver, built on the Client/Lease session API.
//
// WorkloadDriver models the paper's application per node:
//
//   think ~ D_think  →  acquire(need ~ D_need)  →  [wait for Lease]
//        →  critical section ~ D_cs  →  lease releases  →  think ...
//
// Per-node behaviors cover the paper's experimental scenarios (inactive
// relays, the hold-forever set I of the (k,ℓ)-liveness definition,
// bounded request budgets) -- see proto::NodeBehavior / BehaviorClass.
//
// All protocol interaction goes through klex::Client sessions: grants
// arrive as RAII Leases, denials and post-fault revocations come back as
// callbacks, and misuse is impossible by construction (the driver only
// acquires on idle sessions). resync() re-establishes the closed loop
// after a transient fault by reconciling every session with the
// (possibly corrupted) protocol state.
//
// The loop's own steps -- think-end and CS-end -- are typed engine
// actions (sim::Engine::schedule_action): node and action inline in the
// event, dispatched by a direct call, no callback slot. Per grant the
// driver keeps counters only; grant latencies go to an optional
// LatencyRecorder (the experiment runner bins them by class), and a
// driver without one stores nothing per grant.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "api/client.hpp"
#include "proto/workload.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace klex {

class WorkloadDriver final : private sim::ActionHandler {
 public:
  /// Receives the latency (issue → grant, simulated ticks) of every
  /// expected grant at `node`. Adopted (unexpected) grants and grants
  /// that arrive after the acquire deadline abandoned the wait are never
  /// reported.
  using LatencyRecorder =
      std::function<void(proto::NodeId node, sim::SimTime latency)>;

  /// `clients.size()` sessions drive `behaviors.size()` nodes (sizes must
  /// match). The driver installs its sticky handlers on every session at
  /// construction; call begin() after the harness is wired.
  WorkloadDriver(sim::Engine& engine, ClientPool& clients,
                 std::vector<proto::NodeBehavior> behaviors,
                 support::Rng rng);

  /// Multi-tenant fleets: one rng per engine stream (tenant). A node's
  /// think/cs/need samples come from its own tenant's rng and its
  /// callbacks are sequenced in its own stream, so every tenant's
  /// workload trajectory is byte-identical to a standalone driver built
  /// with that tenant's rng -- whatever the other tenants do. Requires
  /// one rng per engine stream.
  WorkloadDriver(sim::Engine& engine, ClientPool& clients,
                 std::vector<proto::NodeBehavior> behaviors,
                 std::vector<support::Rng> stream_rngs);

  /// Uninstalls the driver's handlers, unregisters its engine actions
  /// (think/release actions still pending retire as no-ops) and detaches
  /// outstanding leases (the units stay reserved -- a destructor must not
  /// re-enter the protocol and its listener fan-out). The engine and the
  /// client pool must outlive the driver.
  ~WorkloadDriver();

  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Installs the retry policy governing denial handling: which denials
  /// back off and how (capped exponential + seeded jitter), the
  /// per-cycle attempt cap, the lifetime retry budget, and the deadline
  /// passed to every acquire. The default-constructed policy reproduces
  /// the historical behavior exactly (see proto::RetryPolicy). Call
  /// before begin().
  void set_retry_policy(const proto::RetryPolicy& policy) { retry_ = policy; }
  const proto::RetryPolicy& retry_policy() const { return retry_; }

  /// Schedules the initial think time of every active node, and the
  /// release of any lease adopted before it. The driver schedules nothing
  /// before begin() or resync(): grants, denials and revocations that
  /// arrive earlier only update the sessions (a corruption-induced grant
  /// before the workload is adopted and held until begin()), because
  /// they may arrive inside a parallel window, where scheduling fails.
  void begin();

  /// After transient-fault injection the sessions' view may disagree with
  /// the corrupted protocol state; resync() reconciles every Client
  /// (revoking vanished grants, adopting phantom critical sections) and
  /// restarts the closed loop for idle active nodes (also before
  /// begin(), which it then stands in for).
  void resync();
  /// resync() for nodes [begin, end) only: a fault aimed at one tenant
  /// reconciles that tenant's sessions and leaves the others alone.
  void resync(proto::NodeId begin, proto::NodeId end);

  std::int64_t requests_issued(proto::NodeId node) const;
  std::int64_t grants(proto::NodeId node) const;
  std::int64_t total_requests() const;
  std::int64_t total_grants() const;

  /// Nodes with a request issued but not yet granted.
  int outstanding() const;

  /// Whether `node` currently holds an active lease.
  bool holding(proto::NodeId node) const;

  /// Denials observed by the closed loop, per DenyReason (indexed by
  /// static_cast<int>(reason); to_string(DenyReason) labels them in
  /// logs / experiment artifacts).
  std::int64_t deny_count(DenyReason reason) const {
    return denials_[static_cast<std::size_t>(reason)];
  }
  std::int64_t total_denials() const;

  /// Backoff retries consumed against the policy's retry_budget.
  std::int64_t retries_spent() const;

  /// Installs (or, with nullptr, removes) the grant-latency recorder.
  /// Takes effect for the grants that follow.
  void set_latency_recorder(LatencyRecorder recorder) {
    latency_recorder_ = std::move(recorder);
  }

 private:
  /// The driver's engine actions (Event::action codes).
  enum Action : std::uint8_t { kThinkEnd, kCsEnd };

  void on_action(sim::NodeId node, std::uint8_t action,
                 std::uint64_t epoch) override;

  struct NodeState {
    proto::NodeBehavior behavior;
    std::int64_t issued = 0;
    std::int64_t granted = 0;
    bool release_scheduled = false;
    bool cycle_scheduled = false;  // a think-end action is pending
    // Capped exponential backoff against retryable denials (unreachable,
    // overloaded, deadline-exceeded): each one doubles the extra delay
    // before the next attempt per the RetryPolicy, a grant resets it.
    int backoff_exponent = 0;
    std::int64_t deny_streak = 0;   // consecutive denials this cycle
    std::int64_t retries_spent = 0; // lifetime backoff retries (budget)
    sim::SimTime acquire_started_at = 0;
    Lease lease;
  };

  NodeState& state(proto::NodeId node) {
    return nodes_[static_cast<std::size_t>(node)];
  }

  void schedule_cycle(proto::NodeId node, sim::SimTime extra_delay = 0);
  void start_acquire(proto::NodeId node);
  void schedule_release(proto::NodeId node);
  void end_critical_section(proto::NodeId node);
  void handle_grant(proto::NodeId node, Lease lease, bool expected);
  void handle_deny(proto::NodeId node, DenyReason reason);
  void handle_revoked(proto::NodeId node);

  /// The sampling rng for `node`: the shared driver rng, or the node's
  /// tenant rng when the driver was built with per-stream rngs.
  support::Rng& rng_for(proto::NodeId node) {
    return stream_rngs_.empty()
               ? rng_
               : stream_rngs_[static_cast<std::size_t>(
                     engine_.stream_of(node))];
  }

  sim::Engine& engine_;
  ClientPool& clients_;
  int action_handler_ = -1;  // this driver's index in the engine
  std::vector<NodeState> nodes_;
  LatencyRecorder latency_recorder_;  // empty = no per-grant reporting
  proto::RetryPolicy retry_;  // defaults reproduce historical behavior
  bool begun_ = false;        // begin() or resync() ran (see begin())
  support::Rng rng_;
  std::vector<support::Rng> stream_rngs_;  // empty = single shared rng_
  std::array<std::int64_t, static_cast<std::size_t>(kDenyReasonCount)>
      denials_{};
};

}  // namespace klex
