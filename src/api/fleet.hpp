// klex::FleetSystem -- R independent k-out-of-ℓ instances on one engine.
//
// A fleet runs R protocol instances ("tenants") on one shared
// sim::Engine / ParallelEngine instead of R separate engines: one clock,
// one worker-lane pool, one census tracker -- but R causally independent
// protocols, each with its own pending-event queue. The sharing is what
// a multi-tenant deployment buys (shared threads, one clock, one
// management plane); the independence is what the layering below
// guarantees:
//
//   * node ids: tenant t owns the contiguous engine range
//     [node_begin(t), node_begin(t) + tenant_n(t)); local tree ids map to
//     engine ids by adding node_begin(t).
//   * channels and timers: wired strictly inside a tenant's range, so no
//     message or timeout ever crosses tenants.
//   * sequencing: tenant t is engine stream t (sim::Engine streams). Its
//     channels draw delays from rngs keyed by seed + t and the
//     tenant-relative channel index, and its per-channel, per-node and
//     callback seq slots keep their relative order -- byte-identical
//     sub-order to a standalone System built with seed + t, whatever the
//     other tenants do. That is
//     the differential anchor: fleet(1) == System(seed) bit for bit, and
//     every tenant of fleet(R) replays its standalone trace.
//   * execution: each tenant's events sit in the tenant's own queue, and
//     run_until runs the fleet tenant-major -- one tenant through the
//     horizon, then the next, in ascending tenant order over the tenants
//     with work before the horizon -- so a span works on one tenant's
//     queue and state at a time and walks the tenant-ordered arrays
//     forward. Tenant events may only schedule into their
//     own tenant (a checked engine contract). Observers and pending
//     global callbacks switch spans to the merged (at, seq) order (see
//     sim/engine.hpp).
//   * census: proto::CensusTracker grows a tenant axis -- per-tenant
//     expected populations, per-tenant O(1) legitimacy (correct_of reads
//     one stream's counters, never scanning the other R-1 tenants).
//     SystemBase::run_until_stabilized probes each tenant after each of
//     its own events, runs the tenants tenant-major too, and returns
//     exactly what the merged-order loop returns.
//   * faults / recovery: the tenant axis itself lives on SystemBase (a
//     plain system is tenant 0 of one), so the per-tenant fault, flood,
//     epoch cut, request validation and readout are the base's:
//     inject_transient_fault_tenant corrupts exactly one tenant's
//     processes and channel range, epoch_cut_recover_tenant drains and
//     re-boots one tenant in O(tenant size), and the fleet-wide calls
//     apply them to every tenant in order. A fault in tenant a leaves
//     every other tenant's census correct and its recovery count at zero.
//
// Lanes partition tenants (each tenant entirely on one lane --
// tenant-contiguous blocks balanced by node count), so the parallel
// engine's single-writer contract holds per stream with zero new
// synchronization.
//
// Construct directly from FleetConfig or through
// SystemBuilder::fleet(R).build() (homogeneous tenants); client sessions
// carry their TenantId so one application can hold leases across several
// tenants (see klex::Client::tenant).
#pragma once

#include <cstdint>
#include <vector>

#include "api/system_base.hpp"
#include "tree/tree.hpp"

namespace klex {

/// One tenant: a tree topology plus its protocol parameters. Tenants may
/// be heterogeneous (different shapes, k/ℓ, ladder rungs).
struct TenantSpec {
  tree::Tree tree = tree::line(2);
  int k = 1;
  int l = 1;
  proto::Features features = proto::Features::full();
};

struct FleetConfig {
  /// The tenants, in engine-id order (at least one).
  std::vector<TenantSpec> tenants;
  /// Shared harness knobs (every tenant sees the same network model).
  int cmax = 4;
  sim::DelayModel delays{};
  /// Root controller timeout; 0 derives each tenant's safe default from
  /// its own size.
  sim::SimTime timeout_period = 0;
  /// Tenant t draws its delays (and its workload, when built through the
  /// builder) from seed + t -- the standalone-equivalence seed.
  std::uint64_t seed = support::Rng::kDefaultSeed;
  /// Mint each tenant's legitimate population at startup (forced on for
  /// non-controller rungs, as in SystemConfig).
  bool seed_tokens = false;
  /// Seed each tenant's ℓ resources spread along its own Euler tour
  /// (see SystemConfig::spread_tokens).
  bool spread_tokens = false;
  /// Worker lanes; clamped to [1, min(R, Engine::kMaxLanes)] -- a tenant
  /// never spans lanes.
  int threads = 1;
};

class FleetSystem : public SystemBase {
 public:
  explicit FleetSystem(FleetConfig config);

  const FleetConfig& config() const { return config_; }

  const TenantSpec& tenant_spec(int tenant) const {
    return config_.tenants[static_cast<std::size_t>(tenant)];
  }
  /// Worker lane tenant `tenant` runs on.
  int tenant_lane(int tenant) const {
    return tenant_lane_[static_cast<std::size_t>(tenant)];
  }
  /// Engine id of tenant-local tree node `local`.
  NodeId global_id(int tenant, NodeId local) const {
    return node_begin(tenant) + local;
  }
  /// Tree-local id of engine node `node` within its tenant.
  NodeId local_id(NodeId node) const {
    return node - node_begin(tenant_of(node));
  }

  /// Chaos burst scoped to one tenant: the episode's adversarial config
  /// overrides the steady one on exactly that tenant's channels (they
  /// are engine-contiguous) for `duration` ticks. Other tenants' links
  /// keep their steady behavior -- the chaos isolation twin of the
  /// per-tenant fault entry points. Requires a ChaosModel
  /// (SystemBuilder::chaos or kChaosBurst plan events).
  void chaos_burst_tenant(int tenant, const sim::ChaosConfig& config,
                          sim::SimTime duration);

 private:
  FleetConfig config_;
  std::vector<int> tenant_lane_;
};

}  // namespace klex
