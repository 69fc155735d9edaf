#include "api/client.hpp"

#include <algorithm>
#include <utility>

#include "sim/engine.hpp"
#include "support/check.hpp"

namespace klex {

const char* misuse_policy_name(MisusePolicy policy) {
  switch (policy) {
    case MisusePolicy::kCheck: return "check";
    case MisusePolicy::kClamp: return "clamp";
    case MisusePolicy::kIgnore: return "ignore";
  }
  return "?";
}

const char* deny_reason_name(DenyReason reason) {
  switch (reason) {
    case DenyReason::kBusy: return "busy";
    case DenyReason::kWaiting: return "waiting";
    case DenyReason::kHolding: return "holding";
    case DenyReason::kBadNeed: return "bad_need";
    case DenyReason::kRevoked: return "revoked";
    case DenyReason::kUnreachable: return "unreachable";
    case DenyReason::kDeadlineExceeded: return "deadline_exceeded";
    case DenyReason::kOverloaded: return "overloaded";
  }
  return "?";
}

const char* to_string(DenyReason reason) { return deny_reason_name(reason); }

// -- Lease --------------------------------------------------------------------

Lease::Lease(Client* client, std::uint64_t serial, int units)
    : client_(client), serial_(serial), units_(units) {}

Lease::Lease(Lease&& other) noexcept
    : client_(other.client_),
      serial_(other.serial_),
      units_(other.units_),
      released_(other.released_) {
  other.client_ = nullptr;
  other.units_ = 0;
  other.released_ = false;
}

Lease& Lease::operator=(Lease&& other) noexcept {
  if (this == &other) return *this;
  if (client_ != nullptr && !released_) client_->release_lease(serial_);
  client_ = other.client_;
  serial_ = other.serial_;
  units_ = other.units_;
  released_ = other.released_;
  other.client_ = nullptr;
  other.units_ = 0;
  other.released_ = false;
  return *this;
}

Lease::~Lease() {
  if (client_ != nullptr && !released_) client_->release_lease(serial_);
}

bool Lease::active() const {
  return client_ != nullptr && !released_ && client_->lease_current(serial_);
}

proto::NodeId Lease::node() const {
  return client_ != nullptr ? client_->node() : -1;
}

TenantId Lease::tenant() const {
  return client_ != nullptr ? client_->tenant() : -1;
}

void Lease::release() {
  if (client_ == nullptr) return;  // empty / moved-from
  if (released_) {
    // Double release: the classic misuse this API exists to catch.
    if (client_->policy() == MisusePolicy::kCheck) {
      client_->raise_misuse("release() on an already-released lease");
    }
    return;
  }
  released_ = true;
  client_->release_lease(serial_);
}

void Lease::detach() {
  client_ = nullptr;
  units_ = 0;
  released_ = false;
}

// -- PendingAcquire -----------------------------------------------------------

PendingAcquire& PendingAcquire::on_granted(std::function<void(Lease)> fn) {
  client_->on_granted(std::move(fn));
  return *this;
}

PendingAcquire& PendingAcquire::on_denied(std::function<void(DenyReason)> fn) {
  client_->on_denied(std::move(fn));
  return *this;
}

bool PendingAcquire::pending() const { return client_->waiting(); }

// -- Client -------------------------------------------------------------------

Client::Client(proto::RequestPort& port, proto::NodeId node, int k,
               MisusePolicy policy, sim::Engine* engine)
    : port_(port), node_(node), k_(k), policy_(policy), engine_(engine) {
  KLEX_REQUIRE(node_ >= 0, "bad node id ", node_);
  KLEX_REQUIRE(k_ >= 1, "k must be >= 1");
  if (engine_ != nullptr) {
    deadline_handler_ = engine_->add_action_handler(this);
    owns_deadline_handler_ = true;
  }
}

Client::~Client() {
  if (owns_deadline_handler_) engine_->remove_action_handler(deadline_handler_);
}

void Client::on_action(sim::NodeId /*node*/, std::uint8_t /*action*/,
                       std::uint64_t epoch) {
  handle_deadline(epoch);
}

void Client::raise_misuse(const char* what) {
  KLEX_REQUIRE(false, "client misuse at node ", node_, ": ", what);
  // KLEX_REQUIRE(false, ...) always throws.
  throw support::CheckFailure("unreachable");
}

PendingAcquire Client::deny(DenyReason reason) {
  if (denied_) {
    denied_(reason);
  } else {
    undelivered_deny_ = reason;
  }
  return PendingAcquire(this);
}

PendingAcquire Client::acquire(int need) { return acquire(need, 0); }

PendingAcquire Client::acquire(int need, sim::SimTime deadline) {
  last_acquire_issued_ = false;
  undelivered_deny_.reset();
  ++acquire_epoch_;  // any timer armed for a previous acquisition is stale
  if (phase_ == Phase::kWaiting) {
    if (policy_ == MisusePolicy::kCheck) {
      raise_misuse("acquire() while a request is already pending");
    }
    return deny(DenyReason::kWaiting);
  }
  if (phase_ == Phase::kHolding) {
    if (policy_ == MisusePolicy::kCheck) {
      raise_misuse("acquire() while a lease is outstanding");
    }
    return deny(DenyReason::kHolding);
  }
  if (need < 1 || need > k_) {
    switch (policy_) {
      case MisusePolicy::kCheck:
        raise_misuse("need outside 1..k");
      case MisusePolicy::kClamp:
        need = std::clamp(need, 1, k_);
        break;
      case MisusePolicy::kIgnore:
        return deny(DenyReason::kBadNeed);
    }
  }
  if (!reachable_) {
    // Not misuse either: the node is partitioned or crashed. Retryable
    // once a repair reattaches it (see WorkloadDriver's backoff).
    return deny(DenyReason::kUnreachable);
  }
  if (port_.state_of(node_) != proto::AppState::kOut) {
    // Not misuse: the protocol is busy with an external or
    // corruption-induced request this session cannot know about.
    return deny(DenyReason::kBusy);
  }
  if (!port_.admit(node_, need)) {
    // Not misuse: the system's AdmissionPolicy is shedding load.
    // Retryable once the wait queue drains (WorkloadDriver backs off).
    return deny(DenyReason::kOverloaded);
  }
  phase_ = Phase::kWaiting;
  releasing_ = false;
  last_acquire_issued_ = true;
  // May grant synchronously: request() → EnterCS → pool → handle_enter.
  port_.request(node_, need);
  if (deadline > 0 && phase_ == Phase::kWaiting && engine_ != nullptr) {
    // Sequenced in the node's stream; the epoch makes a deadline that
    // outlives this acquisition a no-op.
    engine_->schedule_action(deadline_handler_, node_, kDeadlineAction,
                             deadline, acquire_epoch_);
  }
  return PendingAcquire(this);
}

void Client::handle_deadline(std::uint64_t epoch) {
  if (epoch != acquire_epoch_ || phase_ != Phase::kWaiting) return;  // stale
  // Abandon the wait only: the protocol has no cancel verb, so the
  // request stays pending and a late grant surfaces through the
  // unexpected-grant path (the driver adopts and releases it).
  phase_ = Phase::kIdle;
  ++acquire_epoch_;
  deny(DenyReason::kDeadlineExceeded);
}

void Client::on_granted(std::function<void(Lease)> fn) {
  granted_ = std::move(fn);
  if (undelivered_grant_ && granted_) {
    undelivered_grant_ = false;
    granted_(Lease(this, serial_, held_units_));
  }
}

void Client::on_denied(std::function<void(DenyReason)> fn) {
  denied_ = std::move(fn);
  if (undelivered_deny_.has_value() && denied_) {
    DenyReason reason = *undelivered_deny_;
    undelivered_deny_.reset();
    denied_(reason);
  }
}

void Client::on_unexpected_grant(std::function<void(Lease)> fn) {
  unexpected_ = std::move(fn);
  if (undelivered_unexpected_ && unexpected_) {
    undelivered_unexpected_ = false;
    unexpected_(Lease(this, serial_, held_units_));
  }
}

void Client::on_revoked(std::function<void()> fn) {
  revoked_ = std::move(fn);
}

void Client::deliver_grant(int need, bool expected) {
  phase_ = Phase::kHolding;
  releasing_ = false;
  held_units_ = need;
  ++serial_;
  auto& handler = expected ? granted_ : unexpected_;
  if (handler) {
    handler(Lease(this, serial_, need));
  } else if (expected) {
    undelivered_grant_ = true;
  } else {
    undelivered_unexpected_ = true;
  }
}

void Client::handle_enter(int need) {
  switch (phase_) {
    case Phase::kWaiting:
      deliver_grant(need, /*expected=*/true);
      return;
    case Phase::kIdle:
      // A grant this session never asked for: a raw RequestPort request
      // or a corruption-induced State=Req that the protocol served.
      deliver_grant(need, /*expected=*/false);
      return;
    case Phase::kHolding:
      // Double enter cannot happen in a sane run; treat it as a fresh
      // holding session (the old lease goes stale).
      revoke();
      deliver_grant(need, /*expected=*/false);
      return;
  }
}

void Client::handle_exit() {
  if (phase_ != Phase::kHolding) return;  // exit of an untracked CS
  if (releasing_) {
    // Our own release completing.
    phase_ = Phase::kIdle;
    releasing_ = false;
    held_units_ = 0;
    return;
  }
  // The protocol exited underneath the lease (corrupted ReleaseCS latch).
  revoke();
}

void Client::revoke() {
  ++serial_;  // outstanding Lease objects go stale, their dtor no-ops
  phase_ = Phase::kIdle;
  releasing_ = false;
  held_units_ = 0;
  undelivered_grant_ = false;
  undelivered_unexpected_ = false;
  if (revoked_) revoked_();
}

void Client::release_lease(std::uint64_t serial) {
  if (!lease_current(serial)) return;  // stale (revoked/resynced): no-op
  releasing_ = true;
  if (port_.state_of(node_) == proto::AppState::kIn) {
    // Synchronous in the usual case: release() → ExitCS → handle_exit.
    port_.release(node_);
  }
  if (phase_ == Phase::kHolding) {
    // The exit did not come back through the listener (protocol not In,
    // or exit deferred): close the session; a late on_exit_cs finds an
    // idle session and is ignored.
    phase_ = Phase::kIdle;
    releasing_ = false;
    held_units_ = 0;
    ++serial_;
  }
}

void Client::set_reachable(bool up) {
  if (reachable_ == up) return;  // idempotent: repairs may re-report
  reachable_ = up;
  if (up) return;  // re-opened; the application re-acquires when ready
  switch (phase_) {
    case Phase::kWaiting:
      // The pending acquisition cannot complete on a detached node.
      phase_ = Phase::kIdle;
      deny(DenyReason::kUnreachable);
      return;
    case Phase::kHolding:
      // The lease's units were drained with the node; never lose it
      // silently -- on_revoked fires exactly once.
      revoke();
      return;
    case Phase::kIdle:
      return;
  }
}

void Client::resync() {
  proto::AppState app = port_.state_of(node_);
  switch (phase_) {
    case Phase::kWaiting:
      if (app == proto::AppState::kReq) return;  // still in flight
      if (app == proto::AppState::kIn) {
        // The grant happened but its event was lost to the fault.
        handle_enter(port_.need_of(node_));
        return;
      }
      // The request vanished (state corrupted back to Out).
      phase_ = Phase::kIdle;
      deny(DenyReason::kRevoked);
      return;
    case Phase::kHolding:
      if (app == proto::AppState::kIn) return;  // lease intact
      revoke();
      return;
    case Phase::kIdle:
      if (app == proto::AppState::kIn) {
        // Phantom critical section minted by the fault: adopt it so the
        // application can decide to release it.
        deliver_grant(port_.need_of(node_), /*expected=*/false);
      }
      return;
  }
}

// -- ClientPool ---------------------------------------------------------------

ClientPool::ClientPool(proto::RequestPort& port, int n, int k,
                       MisusePolicy policy, sim::Engine* engine)
    : k_(k), policy_(policy), engine_(engine) {
  KLEX_REQUIRE(n >= 0, "negative node count");
  if (engine_ != nullptr) deadline_handler_ = engine_->add_action_handler(this);
  clients_.reserve(static_cast<std::size_t>(n));
  for (proto::NodeId node = 0; node < n; ++node) {
    // Built without an engine (no handler of its own), then wired to the
    // pool's shared deadline handler.
    auto client = std::make_unique<Client>(port, node, k, policy);
    client->engine_ = engine_;
    client->deadline_handler_ = deadline_handler_;
    clients_.push_back(std::move(client));
  }
}

ClientPool::~ClientPool() {
  if (engine_ != nullptr) engine_->remove_action_handler(deadline_handler_);
}

void ClientPool::on_action(sim::NodeId node, std::uint8_t /*action*/,
                           std::uint64_t epoch) {
  clients_[static_cast<std::size_t>(node)]->handle_deadline(epoch);
}

Client& ClientPool::at(proto::NodeId node) {
  KLEX_REQUIRE(node >= 0 && node < size(), "bad node id ", node);
  return *clients_[static_cast<std::size_t>(node)];
}

const Client& ClientPool::at(proto::NodeId node) const {
  KLEX_REQUIRE(node >= 0 && node < size(), "bad node id ", node);
  return *clients_[static_cast<std::size_t>(node)];
}

void ClientPool::set_policy(MisusePolicy policy) {
  policy_ = policy;
  for (auto& client : clients_) client->set_policy(policy);
}

void ClientPool::resync() {
  for (auto& client : clients_) client->resync();
}

void ClientPool::set_reachable(proto::NodeId node, bool up) {
  KLEX_REQUIRE(node >= 0 && node < size(), "bad node id ", node);
  clients_[static_cast<std::size_t>(node)]->set_reachable(up);
}

void ClientPool::on_enter_cs(proto::NodeId node, int need,
                             sim::SimTime /*at*/) {
  if (node >= 0 && node < size()) {
    clients_[static_cast<std::size_t>(node)]->handle_enter(need);
  }
}

void ClientPool::on_exit_cs(proto::NodeId node, sim::SimTime /*at*/) {
  if (node >= 0 && node < size()) {
    clients_[static_cast<std::size_t>(node)]->handle_exit();
  }
}

}  // namespace klex
