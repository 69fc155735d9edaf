// Client / Lease session semantics over a scripted RequestPort: RAII
// release, move-only transfer, checked double release, denial and
// revocation delivery, and post-fault resync reconciliation.
#include "api/client.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace klex {
namespace {

using proto::AppState;
using proto::NodeId;

/// Scripted protocol: grants are driven by the test, not a simulation.
class FakePort : public proto::RequestPort {
 public:
  explicit FakePort(int n)
      : states(static_cast<std::size_t>(n), AppState::kOut),
        needs(static_cast<std::size_t>(n), 0) {}

  void request(NodeId node, int need) override {
    states[static_cast<std::size_t>(node)] = AppState::kReq;
    needs[static_cast<std::size_t>(node)] = need;
    ++requests;
  }

  void release(NodeId node) override {
    states[static_cast<std::size_t>(node)] = AppState::kOut;
    needs[static_cast<std::size_t>(node)] = 0;
    ++releases;
  }

  AppState state_of(NodeId node) const override {
    return states[static_cast<std::size_t>(node)];
  }

  int need_of(NodeId node) const override {
    return needs[static_cast<std::size_t>(node)];
  }

  /// Simulates the protocol granting node's request.
  void grant(NodeId node, ClientPool& pool) {
    states[static_cast<std::size_t>(node)] = AppState::kIn;
    pool.on_enter_cs(node, needs[static_cast<std::size_t>(node)], 0);
  }

  std::vector<AppState> states;
  std::vector<int> needs;
  int requests = 0;
  int releases = 0;
};

struct Harness {
  explicit Harness(MisusePolicy policy = MisusePolicy::kCheck, int n = 2,
                   int k = 3)
      : port(n), pool(port, n, k, policy) {}

  Client& client(NodeId node = 0) { return pool.at(node); }

  FakePort port;
  ClientPool pool;
};

TEST(Client, AcquireGrantDeliversLease) {
  Harness h;
  Lease held;
  h.client().acquire(2).on_granted(
      [&](Lease lease) { held = std::move(lease); });
  EXPECT_TRUE(h.client().waiting());
  EXPECT_EQ(h.port.requests, 1);
  h.port.grant(0, h.pool);
  ASSERT_TRUE(held.active());
  EXPECT_EQ(held.units(), 2);
  EXPECT_EQ(held.node(), 0);
  EXPECT_TRUE(h.client().holding());
}

TEST(Client, HandlerInstalledAfterSynchronousGrantStillFires) {
  Harness h;
  // The pool routes the grant before on_granted is installed (as a real
  // synchronous grant inside port.request would).
  PendingAcquire pending = h.client().acquire(1);
  h.port.grant(0, h.pool);
  Lease held;
  pending.on_granted([&](Lease lease) { held = std::move(lease); });
  EXPECT_TRUE(held.active());
  EXPECT_FALSE(pending.pending());
}

TEST(Lease, ReleasesOnDestruction) {
  Harness h;
  {
    Lease held;
    h.client().acquire(1).on_granted(
        [&](Lease lease) { held = std::move(lease); });
    h.port.grant(0, h.pool);
    ASSERT_TRUE(held.active());
  }  // ~Lease
  EXPECT_EQ(h.port.releases, 1);
  EXPECT_EQ(h.port.state_of(0), AppState::kOut);
  EXPECT_TRUE(h.client().idle());
}

TEST(Lease, MoveTransfersOwnership) {
  Harness h;
  Lease first;
  h.client().acquire(1).on_granted(
      [&](Lease lease) { first = std::move(lease); });
  h.port.grant(0, h.pool);
  Lease second = std::move(first);
  EXPECT_FALSE(first.active());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(second.active());
  first.release();  // moved-from: silent no-op
  EXPECT_EQ(h.port.releases, 0);
  second.release();
  EXPECT_EQ(h.port.releases, 1);
}

TEST(Lease, MoveAssignmentReleasesPreviousGrant) {
  Harness h;
  Lease slot;
  h.pool.at(0).acquire(1).on_granted(
      [&](Lease lease) { slot = std::move(lease); });
  h.port.grant(0, h.pool);
  ASSERT_TRUE(slot.active());
  Lease other;
  h.pool.at(1).acquire(1).on_granted(
      [&](Lease lease) { other = std::move(lease); });
  h.port.grant(1, h.pool);
  slot = std::move(other);  // node 0's grant must be returned
  EXPECT_EQ(h.port.releases, 1);
  EXPECT_EQ(h.port.state_of(0), AppState::kOut);
  EXPECT_TRUE(slot.active());
  EXPECT_EQ(slot.node(), 1);
}

TEST(Lease, DoubleReleaseThrowsUnderCheck) {
  Harness h(MisusePolicy::kCheck);
  Lease held;
  h.client().acquire(1).on_granted(
      [&](Lease lease) { held = std::move(lease); });
  h.port.grant(0, h.pool);
  held.release();
  EXPECT_THROW(held.release(), std::invalid_argument);
  EXPECT_EQ(h.port.releases, 1);
}

TEST(Lease, DoubleReleaseIsNoOpUnderClamp) {
  Harness h(MisusePolicy::kClamp);
  Lease held;
  h.client().acquire(1).on_granted(
      [&](Lease lease) { held = std::move(lease); });
  h.port.grant(0, h.pool);
  held.release();
  held.release();
  EXPECT_EQ(h.port.releases, 1);
}

TEST(Lease, DetachKeepsUnitsReserved) {
  Harness h;
  Lease held;
  h.client().acquire(2).on_granted(
      [&](Lease lease) { held = std::move(lease); });
  h.port.grant(0, h.pool);
  held.detach();
  EXPECT_FALSE(held.active());
  EXPECT_EQ(h.port.releases, 0);
  EXPECT_EQ(h.port.state_of(0), AppState::kIn);
}

TEST(Client, AcquireWhileWaitingThrowsUnderCheck) {
  Harness h(MisusePolicy::kCheck);
  h.client().acquire(1);
  EXPECT_THROW(h.client().acquire(1), std::invalid_argument);
}

TEST(Client, AcquireWhileWaitingDeniesUnderClamp) {
  Harness h(MisusePolicy::kClamp);
  h.client().acquire(1);
  std::optional<DenyReason> denied;
  h.client().acquire(1).on_denied([&](DenyReason r) { denied = r; });
  ASSERT_TRUE(denied.has_value());
  EXPECT_EQ(*denied, DenyReason::kWaiting);
  EXPECT_EQ(h.port.requests, 1);  // second request never reached the port
  EXPECT_TRUE(h.client().waiting());  // the first acquisition is intact
}

TEST(Client, AcquireWhileHoldingDenies) {
  Harness h(MisusePolicy::kIgnore);
  Lease held;
  h.client().acquire(1).on_granted(
      [&](Lease lease) { held = std::move(lease); });
  h.port.grant(0, h.pool);
  std::optional<DenyReason> denied;
  h.client().on_denied([&](DenyReason r) { denied = r; });
  h.client().acquire(1);
  ASSERT_TRUE(denied.has_value());
  EXPECT_EQ(*denied, DenyReason::kHolding);
}

TEST(Client, NeedOutsideRangeThrowsClampsOrDenies) {
  // kCheck: throws.
  Harness check(MisusePolicy::kCheck);
  EXPECT_THROW(check.client().acquire(0), std::invalid_argument);
  EXPECT_THROW(check.client().acquire(4), std::invalid_argument);
  // kClamp: coerces into 1..k and proceeds.
  Harness clamp(MisusePolicy::kClamp);
  clamp.client().acquire(99);
  EXPECT_EQ(clamp.port.needs[0], 3);  // k = 3
  // kIgnore: denies with kBadNeed.
  Harness ignore(MisusePolicy::kIgnore);
  std::optional<DenyReason> denied;
  ignore.client().acquire(0).on_denied([&](DenyReason r) { denied = r; });
  ASSERT_TRUE(denied.has_value());
  EXPECT_EQ(*denied, DenyReason::kBadNeed);
  EXPECT_EQ(ignore.port.requests, 0);
}

TEST(Client, ProtocolBusyIsDenialNotMisuse) {
  // An externally-issued raw request occupies the protocol; acquiring on
  // the idle session is a legal call that gets denied -- under kCheck too.
  Harness h(MisusePolicy::kCheck);
  h.port.request(0, 1);  // raw SPI, bypassing the session
  std::optional<DenyReason> denied;
  h.client().acquire(1).on_denied([&](DenyReason r) { denied = r; });
  ASSERT_TRUE(denied.has_value());
  EXPECT_EQ(*denied, DenyReason::kBusy);
  EXPECT_TRUE(h.client().idle());
}

TEST(Client, UnexpectedGrantIsAdoptable) {
  Harness h;
  Lease adopted;
  h.client().on_unexpected_grant(
      [&](Lease lease) { adopted = std::move(lease); });
  h.port.request(0, 2);    // raw request, no session involvement
  h.port.grant(0, h.pool); // protocol serves it
  ASSERT_TRUE(adopted.active());
  EXPECT_EQ(adopted.units(), 2);
  adopted.release();
  EXPECT_EQ(h.port.state_of(0), AppState::kOut);
}

TEST(Client, ProtocolExitUnderneathLeaseRevokes) {
  Harness h;
  Lease held;
  int revoked = 0;
  h.client().on_revoked([&] { ++revoked; });
  h.client().acquire(1).on_granted(
      [&](Lease lease) { held = std::move(lease); });
  h.port.grant(0, h.pool);
  // The protocol exits the CS on its own (corrupted ReleaseCS latch).
  h.port.states[0] = AppState::kOut;
  h.pool.on_exit_cs(0, 0);
  EXPECT_EQ(revoked, 1);
  EXPECT_FALSE(held.active());
  held.release();  // stale: must be a silent no-op, even under kCheck
  EXPECT_EQ(h.port.releases, 0);
}

TEST(Client, ResyncCancelsVanishedRequest) {
  Harness h(MisusePolicy::kClamp);
  std::optional<DenyReason> denied;
  h.client().on_denied([&](DenyReason r) { denied = r; });
  h.client().acquire(1);
  // Corruption flips the node back to Out; the request is gone.
  h.port.states[0] = AppState::kOut;
  h.client().resync();
  ASSERT_TRUE(denied.has_value());
  EXPECT_EQ(*denied, DenyReason::kRevoked);
  EXPECT_TRUE(h.client().idle());
}

TEST(Client, ResyncRevokesVanishedLease) {
  Harness h;
  Lease held;
  int revoked = 0;
  h.client().on_revoked([&] { ++revoked; });
  h.client().acquire(1).on_granted(
      [&](Lease lease) { held = std::move(lease); });
  h.port.grant(0, h.pool);
  h.port.states[0] = AppState::kReq;  // corrupted out from under the lease
  h.client().resync();
  EXPECT_EQ(revoked, 1);
  EXPECT_FALSE(held.active());
}

TEST(Client, ResyncAdoptsPhantomCriticalSection) {
  Harness h;
  Lease adopted;
  h.client().on_unexpected_grant(
      [&](Lease lease) { adopted = std::move(lease); });
  h.port.states[0] = AppState::kIn;  // fault minted a phantom CS
  h.port.needs[0] = 2;
  h.client().resync();
  ASSERT_TRUE(adopted.active());
  EXPECT_EQ(adopted.units(), 2);
}

TEST(Client, ResyncDeliversMissedGrant) {
  Harness h;
  Lease held;
  h.client().acquire(1).on_granted(
      [&](Lease lease) { held = std::move(lease); });
  // The fault ate the enter event but the node IS in its CS.
  h.port.states[0] = AppState::kIn;
  h.client().resync();
  EXPECT_TRUE(held.active());
}

TEST(ClientPool, PolicyPropagatesToClients) {
  Harness h(MisusePolicy::kCheck);
  h.pool.set_policy(MisusePolicy::kClamp);
  EXPECT_EQ(h.client().policy(), MisusePolicy::kClamp);
  h.client().acquire(99);  // would throw under kCheck
  EXPECT_EQ(h.port.needs[0], 3);
}

// -- acquire deadlines (typed engine actions) ---------------------------------

struct DeadlineHarness {
  DeadlineHarness()
      : port(1), pool(port, 1, 1, MisusePolicy::kCheck, &engine) {
    pool.at(0).on_denied(
        [this](DenyReason reason) { denials.push_back(reason); });
    pool.at(0).on_granted([this](Lease lease) { held = std::move(lease); });
  }

  sim::Engine engine;
  FakePort port;
  ClientPool pool;
  std::vector<DenyReason> denials;
  Lease held;
};

TEST(ClientDeadline, StaleDeadlineAfterAGrantIsANoOp) {
  DeadlineHarness h;
  Client& client = h.pool.at(0);
  client.acquire(1, /*deadline=*/10);
  EXPECT_EQ(h.engine.pending_callbacks(), 1u);
  h.engine.run_until(4);
  h.port.grant(0, h.pool);
  ASSERT_TRUE(client.holding());
  // The deadline comes due at t = 10 and finds its acquisition granted.
  h.engine.run_until(20);
  EXPECT_TRUE(client.holding());
  EXPECT_TRUE(h.held.active());
  EXPECT_TRUE(h.denials.empty());
  EXPECT_EQ(h.engine.pending_callbacks(), 0u);
}

TEST(ClientDeadline, EarlierAcquisitionsDeadlineSparesTheNextOne) {
  DeadlineHarness h;
  Client& client = h.pool.at(0);
  client.acquire(1, /*deadline=*/10);  // due at t = 10
  h.engine.run_until(2);
  h.port.grant(0, h.pool);
  h.held.release();
  ASSERT_TRUE(client.idle());
  client.acquire(1, /*deadline=*/100);  // due at t = 102
  h.engine.run_until(50);
  EXPECT_TRUE(client.waiting()) << "the first deadline must not abandon "
                                   "the second acquisition";
  EXPECT_TRUE(h.denials.empty());
  h.engine.run_until(102);
  EXPECT_TRUE(client.idle());
  ASSERT_EQ(h.denials.size(), 1u);
  EXPECT_EQ(h.denials.front(), DenyReason::kDeadlineExceeded);
  // Deadlines never take a callback slot.
  EXPECT_EQ(h.engine.stats().callbacks_scheduled, 2u);
  EXPECT_EQ(h.engine.stats().callback_slots_created, 0u);
}

TEST(ClientDeadline, StandaloneClientArmsItsOwnDeadlines) {
  sim::Engine engine;
  FakePort port(1);
  std::vector<DenyReason> denials;
  {
    Client client(port, 0, 1, MisusePolicy::kCheck, &engine);
    client.on_denied([&](DenyReason reason) { denials.push_back(reason); });
    client.acquire(1, /*deadline=*/5);
    engine.run_until(5);
    EXPECT_TRUE(client.idle());
    port.states[0] = AppState::kOut;  // the protocol dropped the request
    client.acquire(1, /*deadline=*/5);  // due at t = 10, after the client
  }
  ASSERT_EQ(denials.size(), 1u);
  EXPECT_EQ(denials.front(), DenyReason::kDeadlineExceeded);
  // The destroyed client's pending deadline retires as a no-op.
  engine.run_until(20);
  EXPECT_EQ(denials.size(), 1u);
  EXPECT_EQ(engine.pending_callbacks(), 0u);
}

}  // namespace
}  // namespace klex
