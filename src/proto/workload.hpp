// Workload description: the "application" side of the paper's interface.
//
// The paper's application issues requests (Out→Req with a Need in 1..k),
// runs its critical section for a finite but unbounded time, and
// releases. This header holds the *description* half of that loop:
//
//   * Dist           -- integer-valued distributions for times and needs;
//   * NodeBehavior   -- one node's closed-loop parameters;
//   * BehaviorClass  -- a named group of nodes sharing a behavior
//                       (explicit members, a count, or a fraction of n);
//   * WorkloadSpec   -- base behavior + classes, materialized into
//                       per-node behaviors deterministically per seed;
//   * RequestPort    -- the protocol-side SPI a harness exposes.
//
// Per-node behaviors cover the paper's experimental scenarios:
//   * inactive nodes (never request) -- non-requesters that just relay;
//   * hold_forever nodes -- the set I of the (k,ℓ)-liveness definition,
//     which enter the CS once and never leave;
//   * bounded request budgets -- one-shot scenarios such as Figure 2.
//
// The execution half -- klex::Client / klex::Lease sessions and the
// closed-loop klex::WorkloadDriver -- lives in src/api/ on top of the
// RequestPort SPI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proto/app.hpp"
#include "support/rng.hpp"

namespace klex::proto {

/// A non-negative integer-valued distribution for times and needs.
struct Dist {
  enum class Kind { kFixed, kUniform, kExponential };

  Kind kind = Kind::kFixed;
  double a = 0.0;  // fixed value / lower bound / mean
  double b = 0.0;  // upper bound (uniform only)

  static Dist fixed(double value) { return {Kind::kFixed, value, value}; }
  static Dist uniform(double lo, double hi) {
    return {Kind::kUniform, lo, hi};
  }
  static Dist exponential(double mean) {
    return {Kind::kExponential, mean, mean};
  }

  /// Samples and rounds to the nearest non-negative integer.
  std::uint64_t sample(support::Rng& rng) const;
};

/// Per-node workload behavior.
struct NodeBehavior {
  bool active = true;          // issues requests at all
  bool hold_forever = false;   // never releases once in CS (set I)
  Dist think = Dist::fixed(64);       // delay between exit and next request
  Dist cs_duration = Dist::fixed(32); // critical-section length
  Dist need = Dist::fixed(1);         // units per request (clamped to 1..k)
  std::int64_t max_requests = -1;     // -1 = unlimited
};

/// Uniform behavior helpers.
std::vector<NodeBehavior> uniform_behaviors(int n, const NodeBehavior& proto);

/// A named group of nodes sharing one behavior. Membership is given (in
/// priority order) by an explicit node list, an explicit count, or a
/// fraction of n; count/fraction members are drawn deterministically from
/// the not-yet-assigned nodes by the materialization rng.
struct BehaviorClass {
  std::string name = "class";
  std::vector<NodeId> nodes;  // explicit members (wins over count/fraction)
  int count = -1;             // explicit size (wins over fraction)
  double fraction = 0.0;      // rounded share of n
  NodeBehavior behavior;
  /// Multi-tenant fleets (materialize_fleet): members are drawn once
  /// and placed at the *same tenant-local ids in every tenant* -- one
  /// logical application holding sessions (and leases) across all
  /// tenants. Ignored by plain materialize().
  bool cross_tenant = false;

  /// The (k,ℓ)-liveness set I: members reserve `units` once and camp in
  /// their critical section forever.
  static BehaviorClass holders(std::string name, int count, int units);
  /// Pure relays: never request, only forward tokens.
  static BehaviorClass relays(std::string name, double fraction);
  /// One-shot / budgeted requesters (Figure 2 style).
  static BehaviorClass budgeted(std::string name, int count, int units,
                                std::int64_t budget);
  /// Cross-tenant sessions for fleets: `count` logical clients, each
  /// present at the same local id in every tenant, requesting `units`.
  static BehaviorClass cross_tenant_sessions(std::string name, int count,
                                             int units);

  /// Resolved member count for a system of n nodes.
  int size_for(int n) const;
};

/// A full heterogeneous workload: the base behavior every unassigned node
/// runs, plus any number of named classes.
struct WorkloadSpec {
  WorkloadSpec();  // base defaults: think exp(64), cs exp(32), need 1

  NodeBehavior base;
  std::vector<BehaviorClass> classes;
};

/// Per-node behaviors plus the class each node landed in (-1 = base).
struct MaterializedWorkload {
  std::vector<NodeBehavior> behaviors;
  std::vector<int> class_index;
};

/// Expands `spec` over n nodes. Explicit node lists are honored first;
/// count/fraction classes then claim nodes from a deterministic shuffle
/// of the remainder (one rng stream, so assignment is reproducible per
/// seed and independent of class order only up to the listed priority).
MaterializedWorkload materialize(const WorkloadSpec& spec, int n,
                                 support::Rng& rng);

/// Expands `spec` over a homogeneous fleet of `tenants` instances of
/// `n_per_tenant` nodes each, returning one global workload (behaviors
/// indexed by engine id = tenant * n_per_tenant + local id). Non-cross
/// classes materialize independently per tenant from tenant_rngs[t]
/// (identical to the standalone materialization with that rng -- the
/// fleet differential anchor); cross_tenant classes then draw their
/// member *local ids* once from `cross_rng` and overwrite the same slot
/// in every tenant, modelling one application spanning the fleet.
/// tenant_rngs.size() must equal `tenants`. For one tenant without
/// cross_tenant classes this is materialize(spec, n_per_tenant,
/// tenant_rngs[0]) verbatim, so SystemBuilder::build_session expands
/// every system's workload through it.
MaterializedWorkload materialize_fleet(const WorkloadSpec& spec, int tenants,
                                       int n_per_tenant,
                                       std::vector<support::Rng>& tenant_rngs,
                                       support::Rng& cross_rng);

/// Declarative client-side retry behavior under degraded conditions
/// (sustained lossy links, overload shedding, detached nodes). The
/// defaults reproduce the historical WorkloadDriver behavior exactly --
/// capped exponential backoff of 256 << min(e, 8) ticks against
/// kUnreachable, no jitter, no deadline, unlimited attempts -- so runs
/// without an explicit policy stay byte-identical.
struct RetryPolicy {
  /// First backoff step (ticks) after a retryable denial.
  sim::SimTime backoff_base = 256;
  /// Backoff doubles per consecutive retryable denial up to
  /// backoff_base << backoff_cap_exponent.
  int backoff_cap_exponent = 8;
  /// Max extra ticks of deterministic jitter added to each backoff,
  /// drawn uniformly from the driver's engine-stream-aligned seeded rng
  /// (0 = none). Decorrelates retry storms without losing replay.
  sim::SimTime jitter = 0;
  /// Consecutive denials before the current acquire cycle is abandoned
  /// and the node returns to a plain think cycle (-1 = never).
  std::int64_t max_attempts = -1;
  /// Lifetime budget of backoff retries per client; once spent, denied
  /// nodes stop reissuing so retry storms cannot amplify an overload
  /// (-1 = unlimited).
  std::int64_t retry_budget = -1;
  /// Per-acquire deadline (ticks; 0 = none): a request not granted
  /// within it is abandoned with DenyReason::kDeadlineExceeded.
  sim::SimTime deadline = 0;
};

/// Admission bounds enforced at the harness boundary (SystemBase):
/// requests that would exceed them fast-fail with
/// DenyReason::kOverloaded instead of growing the wait queue without
/// bound. Defaults admit everything.
struct AdmissionPolicy {
  /// Max nodes simultaneously waiting (State = Req); -1 = unlimited.
  int max_waiting = -1;
  /// Max total units requested-or-held across the system, counting the
  /// incoming request; -1 = unlimited.
  int max_outstanding_need = -1;

  bool enabled() const { return max_waiting >= 0 || max_outstanding_need >= 0; }
};

/// The surface a protocol harness exposes to the application layer.
/// This is the internal SPI: it transcribes the paper's interface
/// verbatim and performs no bookkeeping of its own. Application code
/// should prefer the session objects (klex::Client / klex::Lease) built
/// on top, which make the usage discipline explicit.
class RequestPort {
 public:
  virtual ~RequestPort() = default;
  virtual void request(NodeId node, int need) = 0;
  virtual void release(NodeId node) = 0;
  virtual AppState state_of(NodeId node) const = 0;
  /// Units currently requested/held by `node` (0 when unknown).
  virtual int need_of(NodeId node) const {
    (void)node;
    return 0;
  }
  /// Admission probe the session layer consults before issuing a
  /// request. Default: always admit. SystemBase overrides it with its
  /// AdmissionPolicy; a refusal surfaces as DenyReason::kOverloaded
  /// (retryable -- WorkloadDriver backs off on it).
  virtual bool admit(NodeId node, int need) const {
    (void)node;
    (void)need;
    return true;
  }
};

}  // namespace klex::proto
