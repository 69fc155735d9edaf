#include "api/workload_driver.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace klex {

WorkloadDriver::WorkloadDriver(sim::Engine& engine, ClientPool& clients,
                               std::vector<proto::NodeBehavior> behaviors,
                               std::vector<support::Rng> stream_rngs)
    : WorkloadDriver(engine, clients, std::move(behaviors), support::Rng()) {
  KLEX_REQUIRE(static_cast<int>(stream_rngs.size()) == engine.stream_count(),
               "need one workload rng per engine stream (got ",
               stream_rngs.size(), " for ", engine.stream_count(),
               " streams)");
  stream_rngs_ = std::move(stream_rngs);
}

WorkloadDriver::WorkloadDriver(sim::Engine& engine, ClientPool& clients,
                               std::vector<proto::NodeBehavior> behaviors,
                               support::Rng rng)
    : engine_(engine), clients_(clients), rng_(rng) {
  KLEX_REQUIRE(static_cast<int>(behaviors.size()) == clients_.size(),
               "behaviors (", behaviors.size(), ") must cover every client (",
               clients_.size(), ")");
  nodes_.reserve(behaviors.size());
  for (auto& behavior : behaviors) {
    NodeState node_state;
    node_state.behavior = behavior;
    nodes_.push_back(std::move(node_state));
  }
  for (proto::NodeId node = 0; node < clients_.size(); ++node) {
    Client& client = clients_.at(node);
    client.on_granted([this, node](Lease lease) {
      handle_grant(node, std::move(lease), /*expected=*/true);
    });
    client.on_denied(
        [this, node](DenyReason reason) { handle_deny(node, reason); });
    // Critical sections this driver never requested (raw-port requests,
    // corruption-induced entries) are adopted and released like normal
    // ones so the system cannot wedge on a phantom critical section.
    client.on_unexpected_grant([this, node](Lease lease) {
      handle_grant(node, std::move(lease), /*expected=*/false);
    });
    client.on_revoked([this, node] { handle_revoked(node); });
  }
}

WorkloadDriver::~WorkloadDriver() {
  for (proto::NodeId node = 0; node < clients_.size(); ++node) {
    // The sticky handlers capture `this`; events delivered after this
    // destructor (the engine may keep running) must find no trace of us.
    Client& client = clients_.at(node);
    client.on_granted(nullptr);
    client.on_denied(nullptr);
    client.on_unexpected_grant(nullptr);
    client.on_revoked(nullptr);
    state(node).lease.detach();
  }
}

void WorkloadDriver::begin() {
  begun_ = true;
  for (proto::NodeId node = 0; node < clients_.size(); ++node) {
    // A lease adopted before begin() (a corruption-induced grant) gets its
    // release now, as resync() would give it.
    if (clients_.at(node).holding()) schedule_release(node);
    if (state(node).behavior.active) schedule_cycle(node);
  }
}

void WorkloadDriver::schedule_cycle(proto::NodeId node,
                                    sim::SimTime extra_delay) {
  // Nothing is scheduled before begin() (or resync()): handlers fired by
  // earlier events may run inside a parallel window, where scheduling
  // fails.
  if (!begun_) return;
  NodeState& node_state = state(node);
  const Client& client = clients_.at(node);
  if (node_state.cycle_scheduled || client.waiting() || client.holding()) {
    return;
  }
  if (node_state.behavior.max_requests >= 0 &&
      node_state.issued >= node_state.behavior.max_requests) {
    return;
  }
  node_state.cycle_scheduled = true;
  sim::SimTime delay =
      node_state.behavior.think.sample(rng_for(node)) + extra_delay;
  // Sequence the callback in the node's own stream (the only stream on a
  // plain engine): fleets keep each tenant's callback sub-order
  // independent of its neighbors.
  engine_.schedule_in_stream(engine_.stream_of(node), delay,
                             [this, node] { start_acquire(node); });
}

void WorkloadDriver::start_acquire(proto::NodeId node) {
  NodeState& node_state = state(node);
  node_state.cycle_scheduled = false;
  Client& client = clients_.at(node);
  if (!client.idle()) {
    // The session changed underneath the pending think callback (e.g. a
    // corruption-induced critical section was adopted): try again after
    // another think time.
    schedule_cycle(node);
    return;
  }
  int need = static_cast<int>(node_state.behavior.need.sample(rng_for(node)));
  need = std::clamp(need, 1, clients_.k());
  // Stamp the issue time before acquiring: a synchronous grant reaches
  // handle_grant inside the acquire() call (latency 0).
  node_state.acquire_started_at = engine_.now();
  // Outcome arrives through the sticky handlers, possibly synchronously
  // (grant or busy-denial inside this call).
  client.acquire(need, retry_.deadline);
  if (client.last_acquire_issued()) ++node_state.issued;
}

void WorkloadDriver::handle_grant(proto::NodeId node, Lease lease,
                                  bool expected) {
  NodeState& node_state = state(node);
  if (expected) {
    ++node_state.granted;
    node_state.latency.add(static_cast<double>(
        engine_.now() - node_state.acquire_started_at));
  }
  node_state.backoff_exponent = 0;  // the node is demonstrably reachable
  node_state.deny_streak = 0;
  node_state.lease = std::move(lease);
  schedule_release(node);
}

void WorkloadDriver::handle_deny(proto::NodeId node, DenyReason reason) {
  ++denials_[static_cast<std::size_t>(reason)];
  NodeState& node_state = state(node);
  if (!node_state.behavior.active) return;
  ++node_state.deny_streak;
  if (retry_.max_attempts >= 0 &&
      node_state.deny_streak >= retry_.max_attempts) {
    // Attempt cap hit: abandon this cycle, return to a plain think loop.
    node_state.deny_streak = 0;
    node_state.backoff_exponent = 0;
    schedule_cycle(node);
    return;
  }
  const bool backs_off = reason == DenyReason::kUnreachable ||
                         reason == DenyReason::kOverloaded ||
                         reason == DenyReason::kDeadlineExceeded;
  if (!backs_off) {
    // The protocol is busy with a (possibly corruption-induced) request,
    // or resync() cancelled a pending acquisition: try again after
    // another think time.
    schedule_cycle(node);
    return;
  }
  // Retryable degraded-mode denial (crashed / partitioned node, shed by
  // admission, deadline ran out): capped exponential backoff per the
  // RetryPolicy (default 256, 512, ... 65536 ticks on top of the think
  // time) plus deterministic jitter drawn from the node's seeded rng, so
  // detached nodes do not spin while the system is degraded yet
  // re-acquire promptly once it heals -- and identically seeded runs
  // replay bit-identically.
  if (retry_.retry_budget >= 0 &&
      node_state.retries_spent >= retry_.retry_budget) {
    return;  // budget spent: shed this node's load instead of retrying
  }
  ++node_state.retries_spent;
  sim::SimTime backoff =
      retry_.backoff_base
      << std::min(node_state.backoff_exponent, retry_.backoff_cap_exponent);
  if (node_state.backoff_exponent < retry_.backoff_cap_exponent) {
    ++node_state.backoff_exponent;
  }
  if (retry_.jitter > 0) {
    backoff += static_cast<sim::SimTime>(rng_for(node).next_below(
        static_cast<std::uint64_t>(retry_.jitter) + 1));
  }
  schedule_cycle(node, backoff);
}

void WorkloadDriver::handle_revoked(proto::NodeId node) {
  // The units vanished underneath the lease (protocol-side exit or
  // transient fault). The stored Lease is stale (its destructor no-ops);
  // re-enter the closed loop.
  if (state(node).behavior.active) schedule_cycle(node);
}

void WorkloadDriver::schedule_release(proto::NodeId node) {
  if (!begun_) return;  // begin() schedules it (see schedule_cycle)
  NodeState& node_state = state(node);
  if (node_state.release_scheduled) return;
  if (node_state.behavior.hold_forever) return;  // the set I never releases
  node_state.release_scheduled = true;
  sim::SimTime duration = node_state.behavior.cs_duration.sample(rng_for(node));
  engine_.schedule_in_stream(engine_.stream_of(node), duration, [this, node] {
    NodeState& inner = state(node);
    inner.release_scheduled = false;
    inner.lease.release();  // stale-safe: a revoked lease is a no-op
    if (inner.behavior.active) schedule_cycle(node);
  });
}

void WorkloadDriver::resync() {
  // Reconcile every session first (fires revocation / denial / adoption
  // handlers), then restart the loop for whoever ended up idle. Like
  // begin(), resync() is called between runs, so it may start the loop.
  begun_ = true;
  clients_.resync();
  for (proto::NodeId node = 0; node < clients_.size(); ++node) {
    NodeState& node_state = state(node);
    const Client& client = clients_.at(node);
    if (client.holding() && !node_state.release_scheduled) {
      schedule_release(node);
    }
    if (client.idle() && node_state.behavior.active) {
      schedule_cycle(node);
    }
  }
}

std::int64_t WorkloadDriver::requests_issued(proto::NodeId node) const {
  return nodes_[static_cast<std::size_t>(node)].issued;
}

std::int64_t WorkloadDriver::grants(proto::NodeId node) const {
  return nodes_[static_cast<std::size_t>(node)].granted;
}

std::int64_t WorkloadDriver::total_requests() const {
  std::int64_t total = 0;
  for (const NodeState& node_state : nodes_) total += node_state.issued;
  return total;
}

std::int64_t WorkloadDriver::total_grants() const {
  std::int64_t total = 0;
  for (const NodeState& node_state : nodes_) total += node_state.granted;
  return total;
}

int WorkloadDriver::outstanding() const {
  int count = 0;
  for (proto::NodeId node = 0; node < clients_.size(); ++node) {
    if (clients_.at(node).waiting()) ++count;
  }
  return count;
}

bool WorkloadDriver::holding(proto::NodeId node) const {
  return nodes_[static_cast<std::size_t>(node)].lease.active();
}

std::int64_t WorkloadDriver::total_denials() const {
  std::int64_t total = 0;
  for (std::int64_t count : denials_) total += count;
  return total;
}

std::int64_t WorkloadDriver::retries_spent() const {
  std::int64_t total = 0;
  for (const NodeState& node_state : nodes_) total += node_state.retries_spent;
  return total;
}

}  // namespace klex
