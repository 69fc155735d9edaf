// klex::Client / klex::Lease -- the lease-based client surface of the
// k-out-of-ℓ exclusion service.
//
// The paper's application interface is a closed loop: request(Need ≤ k),
// enter the critical section when the protocol grants, release. The raw
// proto::RequestPort transcribes exactly those verbs -- which leaves
// every caller responsible for never requesting while a request is
// outstanding, never releasing twice, and keeping Need in range. Client
// and Lease turn that discipline into objects (the resource-handle idiom
// of Hoepman's K=N ring work: every requester owns its grant):
//
//   klex::Client& c = system.clients().at(node);
//   c.acquire(2)
//       .on_granted([&](klex::Lease lease) {
//         // ... critical section; `lease` releases the 2 units on
//         // destruction, or explicitly via lease.release().
//       })
//       .on_denied([&](klex::DenyReason r) { /* retry later */ });
//
// A Client is a per-node session: at most one acquisition in flight and
// at most one Lease outstanding. Misuse -- double release, acquire while
// a request is pending or a lease is live, need outside 1..k -- is
// handled per MisusePolicy instead of silently desyncing harness
// bookkeeping:
//
//   kCheck  throw std::invalid_argument (the strict default);
//   kClamp  coerce what can be coerced (need into 1..k) and convert the
//           rest into on_denied callbacks / no-ops;
//   kIgnore deny / drop everything that is not a clean transition.
//
// Conditions the application cannot know about -- the protocol being
// busy with a (possibly corruption-induced) request, a transient fault
// revoking a grant -- are never "misuse": they surface as on_denied /
// on_revoked under every policy.
//
// Handlers are sticky: they stay installed across acquisitions (so a
// closed-loop driver pays no per-request allocation) and outcomes that
// arrive before a handler is installed are delivered on installation.
//
// An acquire deadline is a typed engine action (sim::ActionHandler), not
// a callback: the pool registers once with the engine and routes each
// deadline to its node's session; the acquire epoch rides in the event,
// so a deadline that outlived its acquisition is a no-op.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "proto/app.hpp"
#include "proto/workload.hpp"
#include "sim/engine.hpp"

namespace klex {

class Client;
class ClientPool;

enum class MisusePolicy { kCheck, kClamp, kIgnore };

const char* misuse_policy_name(MisusePolicy policy);

/// Tenant (protocol instance) a session belongs to in a multi-tenant
/// fleet (SystemConfig::tenants). Single systems are tenant 0.
using TenantId = std::int32_t;

enum class DenyReason {
  kBusy,     // protocol not in Out (external request or corruption)
  kWaiting,  // this session already has an acquisition in flight
  kHolding,  // this session already holds a lease
  kBadNeed,  // need outside 1..k (kIgnore only; kClamp coerces)
  kRevoked,  // a pending acquisition was cancelled by resync()
  kUnreachable,  // node crashed / partitioned by a topology fault; retryable
                 // once the topology heals (WorkloadDriver backs off on it)
  kDeadlineExceeded,  // acquire(need, deadline) not granted in time; the
                      // wait was abandoned (retryable)
  kOverloaded,  // refused by the system's AdmissionPolicy: the wait queue
                // or outstanding need is at its bound (retryable)
};

const char* deny_reason_name(DenyReason reason);

/// Alias of deny_reason_name for generic logging code (matches the
/// to_string(FaultKind) idiom in api/fault.hpp).
const char* to_string(DenyReason reason);

/// Number of DenyReason values (sizes per-reason stat counters).
inline constexpr int kDenyReasonCount = 8;

/// RAII grant handle: destruction (or release()) returns the units to
/// circulation. Move-only -- ownership of the grant transfers with the
/// object. A lease can outlive its grant (a transient fault may revoke
/// the units underneath it); releasing a revoked lease is a silent no-op,
/// releasing the same lease twice is misuse per the client's policy.
class Lease {
 public:
  Lease() = default;
  Lease(Lease&& other) noexcept;
  Lease& operator=(Lease&& other) noexcept;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease();

  /// True while this object still owns a live grant.
  bool active() const;
  /// Units granted (0 for an empty lease).
  int units() const { return units_; }
  proto::NodeId node() const;
  /// Tenant the granting session belongs to (-1 for an empty lease, 0
  /// outside fleets). An application juggling leases from several tenants
  /// routes each back to its pool by this id.
  TenantId tenant() const;

  /// Returns the units explicitly. Double release is misuse (policy);
  /// releasing an empty / moved-from / revoked lease is a no-op.
  void release();

  /// Drops ownership WITHOUT returning the units: the node stays in its
  /// critical section. This is the harness-teardown escape hatch (a
  /// destructor must not re-enter the protocol and its listener fan-out);
  /// WorkloadDriver uses it when it is destroyed mid-run.
  void detach();

 private:
  friend class Client;
  Lease(Client* client, std::uint64_t serial, int units);

  Client* client_ = nullptr;
  std::uint64_t serial_ = 0;
  int units_ = 0;
  bool released_ = false;
};

/// Chaining handle returned by Client::acquire(). The callbacks are
/// installed on the Client (sticky across acquisitions); installing a
/// handler delivers any outcome that already arrived.
class PendingAcquire {
 public:
  PendingAcquire& on_granted(std::function<void(Lease)> fn);
  PendingAcquire& on_denied(std::function<void(DenyReason)> fn);
  /// True while the acquisition is still undecided.
  bool pending() const;

 private:
  friend class Client;
  explicit PendingAcquire(Client* client) : client_(client) {}
  Client* client_;
};

/// Per-node session over a RequestPort. Obtain from
/// SystemBase::clients().at(node) (or construct directly over any
/// RequestPort for tests). Not copyable or movable: Leases and
/// PendingAcquires point back into it.
class Client final : private sim::ActionHandler {
 public:
  /// `engine` (optional) powers per-acquire deadlines; without one,
  /// acquire(need, deadline) issues normally but cannot arm the timer.
  /// A standalone client with an engine registers its own deadline
  /// action handler (the engine must outlive it); pool clients share
  /// the pool's.
  Client(proto::RequestPort& port, proto::NodeId node, int k,
         MisusePolicy policy, sim::Engine* engine = nullptr);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  proto::NodeId node() const { return node_; }
  int k() const { return k_; }
  MisusePolicy policy() const { return policy_; }
  void set_policy(MisusePolicy policy) { policy_ = policy; }

  /// Tenant this session belongs to (0 outside fleets). Stamped by the
  /// owning system (SystemBase::clients) at pool creation; leases carry
  /// it so cross-tenant applications can tell their grants apart.
  TenantId tenant() const { return tenant_; }
  void set_tenant(TenantId tenant) { tenant_ = tenant; }

  /// Session state.
  bool idle() const { return phase_ == Phase::kIdle; }
  bool waiting() const { return phase_ == Phase::kWaiting; }
  bool holding() const { return phase_ == Phase::kHolding; }
  /// Units held by the current lease (0 when not holding).
  int held_units() const { return holding() ? held_units_ : 0; }
  /// Whether the last acquire() actually issued a protocol request.
  bool last_acquire_issued() const { return last_acquire_issued_; }

  /// Requests `need` units (1..k). Grant/denial arrives through the
  /// sticky handlers -- possibly synchronously, before acquire returns.
  PendingAcquire acquire(int need);

  /// acquire(need) with a deadline (ticks; 0 = none): if the grant has
  /// not arrived within `deadline`, the *wait* is abandoned -- on_denied
  /// fires with kDeadlineExceeded and the session returns to idle. The
  /// protocol request itself stays pending (the paper's interface has no
  /// cancel verb); a grant arriving after the deadline is surfaced as an
  /// unexpected grant so the application can release it. Requires the
  /// pool/client to have been built with an engine.
  PendingAcquire acquire(int need, sim::SimTime deadline);

  /// Sticky handlers. on_granted/on_denied answer acquire();
  /// on_unexpected_grant adopts critical sections this session never
  /// requested (raw-port requests, corruption-induced entries);
  /// on_revoked reports a lease whose units vanished underneath it
  /// (protocol-side exit or transient fault).
  void on_granted(std::function<void(Lease)> fn);
  void on_denied(std::function<void(DenyReason)> fn);
  void on_unexpected_grant(std::function<void(Lease)> fn);
  void on_revoked(std::function<void()> fn);

  /// Reconciles the session with the (possibly corrupted) protocol
  /// state: cancels acquisitions whose request vanished (on_denied with
  /// kRevoked), revokes leases whose units vanished (on_revoked), and
  /// adopts critical sections the protocol entered on its own
  /// (on_granted / on_unexpected_grant).
  void resync();

  /// Whether the node is currently reachable (true until a topology
  /// fault detaches it). Unreachable sessions deny every acquire with
  /// kUnreachable instead of touching the protocol.
  bool reachable() const { return reachable_; }

  /// Graceful degradation on topology faults (GraphSystem repair calls
  /// this through ClientPool). Going down revokes an outstanding lease
  /// (on_revoked, exactly once) and denies a pending acquisition with
  /// kUnreachable; coming back up just re-opens the session. Idempotent.
  void set_reachable(bool up);

 private:
  friend class Lease;
  friend class PendingAcquire;
  friend class ClientPool;

  enum class Phase { kIdle, kWaiting, kHolding };

  /// The Event::action code of an acquire deadline.
  static constexpr std::uint8_t kDeadlineAction = 0;

  /// The deadline action (a standalone client's own handler).
  void on_action(sim::NodeId node, std::uint8_t action,
                 std::uint64_t epoch) override;

  [[noreturn]] void raise_misuse(const char* what);
  PendingAcquire deny(DenyReason reason);
  void deliver_grant(int need, bool expected);
  void revoke();
  /// Deadline timer body: abandons the wait iff the acquisition it was
  /// armed for is still the pending one (epoch + phase checked).
  void handle_deadline(std::uint64_t epoch);

  /// Protocol events, routed by the owning ClientPool.
  void handle_enter(int need);
  void handle_exit();

  /// Lease-side entry points.
  void release_lease(std::uint64_t serial);
  bool lease_current(std::uint64_t serial) const {
    return phase_ == Phase::kHolding && serial == serial_;
  }

  proto::RequestPort& port_;
  proto::NodeId node_;
  int k_;
  MisusePolicy policy_;
  sim::Engine* engine_ = nullptr;  // null = deadlines unavailable
  int deadline_handler_ = -1;      // engine action handler of deadlines
  bool owns_deadline_handler_ = false;  // registered by this client
  TenantId tenant_ = 0;

  Phase phase_ = Phase::kIdle;
  // Bumped on every acquisition-state transition; a deadline timer fires
  // only if the epoch it captured is still current (stale timers no-op).
  std::uint64_t acquire_epoch_ = 0;
  bool reachable_ = true;   // false while detached by a topology fault
  bool releasing_ = false;  // a lease release is driving the exit
  std::uint64_t serial_ = 0;
  int held_units_ = 0;
  bool last_acquire_issued_ = false;
  bool undelivered_grant_ = false;
  bool undelivered_unexpected_ = false;
  std::optional<DenyReason> undelivered_deny_;

  std::function<void(Lease)> granted_;
  std::function<void(DenyReason)> denied_;
  std::function<void(Lease)> unexpected_;
  std::function<void()> revoked_;
};

/// One Client per node, plus the Listener glue that routes protocol
/// grant/exit events to the right session. Register it once with the
/// harness (SystemBase::clients() does both steps).
class ClientPool final : public proto::Listener,
                         private sim::ActionHandler {
 public:
  /// `engine` (optional) is handed to every Client so acquire(need,
  /// deadline) can arm its timer; SystemBase::clients() always passes
  /// one, bare-port test pools may omit it. With an engine the pool is
  /// the one deadline action handler of all its sessions, so the engine
  /// must outlive the pool.
  ClientPool(proto::RequestPort& port, int n, int k, MisusePolicy policy,
             sim::Engine* engine = nullptr);
  ~ClientPool() override;

  Client& at(proto::NodeId node);
  const Client& at(proto::NodeId node) const;
  int size() const { return static_cast<int>(clients_.size()); }
  int k() const { return k_; }
  MisusePolicy policy() const { return policy_; }
  void set_policy(MisusePolicy policy);

  /// Client::resync() for every session (post-fault reconciliation).
  void resync();

  /// Client::set_reachable for one node (topology-repair degradation).
  void set_reachable(proto::NodeId node, bool up);

  // proto::Listener:
  void on_enter_cs(proto::NodeId node, int need, sim::SimTime at) override;
  void on_exit_cs(proto::NodeId node, sim::SimTime at) override;

 private:
  // sim::ActionHandler: a session's deadline came due.
  void on_action(sim::NodeId node, std::uint8_t action,
                 std::uint64_t epoch) override;

  int k_;
  MisusePolicy policy_;
  sim::Engine* engine_ = nullptr;
  int deadline_handler_ = -1;
  std::vector<std::unique_ptr<Client>> clients_;  // stable addresses
};

}  // namespace klex
