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
//   * faults / recovery: inject_transient_fault_tenant corrupts exactly
//     one tenant's processes and channel range;
//     epoch_cut_recover_tenant drains and re-boots one tenant in
//     O(tenant size). A fault in tenant a leaves every other tenant's
//     census correct and its recovery count at zero.
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

  // -- tenant geometry --------------------------------------------------------
  int tenant_count() const { return static_cast<int>(specs().size()); }
  int tenant_n(int tenant) const {
    return node_end(tenant) - node_begin(tenant);
  }
  NodeId node_begin(int tenant) const {
    return node_begin_[static_cast<std::size_t>(tenant)];
  }
  NodeId node_end(int tenant) const {
    return node_begin_[static_cast<std::size_t>(tenant) + 1];
  }
  /// Engine id of tenant-local tree node `local`.
  NodeId global_id(int tenant, NodeId local) const {
    return node_begin(tenant) + local;
  }
  /// Tenant owning engine node `node` (O(1): streams store it).
  int tenant_of(NodeId node) const { return engine().stream_of(node); }
  /// Tree-local id of engine node `node` within its tenant.
  NodeId local_id(NodeId node) const {
    return node - node_begin(tenant_of(node));
  }
  const TenantSpec& tenant_spec(int tenant) const {
    return specs()[static_cast<std::size_t>(tenant)];
  }
  const core::Params& tenant_params(int tenant) const {
    return tenant_params_[static_cast<std::size_t>(tenant)];
  }
  /// Worker lane tenant `tenant` runs on.
  int tenant_lane(int tenant) const {
    return tenant_lane_[static_cast<std::size_t>(tenant)];
  }

  // -- per-tenant observation -------------------------------------------------
  /// The live per-tenant legitimacy predicate, O(1) (never scans the
  /// other tenants).
  bool tenant_correct(int tenant) const {
    require_tenant(tenant);
    return census_tracker().correct_of(tenant);
  }
  /// When the tenant's current correct stretch began, as observed by the
  /// last run_until_stabilized loop (kTimeInfinity while incorrect).
  /// Meaningful after run_until_stabilized; tenant_correct is the
  /// always-live predicate.
  sim::SimTime tenant_stabilized_at(int tenant) const {
    require_tenant(tenant);
    return correct_since_[static_cast<std::size_t>(tenant)];
  }
  /// Events the engine executed on behalf of this tenant.
  std::uint64_t tenant_events_executed(int tenant) const {
    return engine().events_executed_in(tenant);
  }
  /// Epoch-cut recoveries performed for this tenant (fault isolation's
  /// observable: a fault in tenant a leaves every other tenant at 0).
  std::int64_t tenant_recovery_events(int tenant) const {
    require_tenant(tenant);
    return recoveries_[static_cast<std::size_t>(tenant)];
  }
  /// Messages of `type` sent on behalf of this tenant.
  std::uint64_t tenant_sent_of_type(int tenant, std::int32_t type) const {
    return engine().sent_of_type_in(tenant, type);
  }

  // -- per-tenant faults / recovery -------------------------------------------
  /// Transient fault scoped to one tenant: randomizes that tenant's
  /// process variables in-domain and replaces its channels' content with
  /// well-formed garbage (up to CMAX per channel when `garbage_per_channel`
  /// is -1). Every other tenant's processes, channels and census are
  /// untouched.
  void inject_transient_fault_tenant(int tenant, support::Rng& rng,
                                     int garbage_per_channel = -1);

  /// Epoch-cut drain for one tenant (requires its rung to have
  /// Features::epoch_cut): no-op returning false while the tenant's
  /// census is legitimate, else one O(tenant size) wipe-drain-reboot of
  /// exactly that tenant. Other tenants' tokens keep circulating.
  bool epoch_cut_recover_tenant(int tenant);

  /// SystemBase::epoch_cut_recover for fleets: recovers every tenant
  /// whose census is illegitimate (each in O(tenant size)); true if any
  /// tenant was drained.
  bool epoch_cut_recover() override;

  /// Chaos burst scoped to one tenant: the episode's adversarial config
  /// overrides the steady one on exactly that tenant's channels (they
  /// are engine-contiguous) for `duration` ticks. Other tenants' links
  /// keep their steady behavior -- the chaos isolation twin of the
  /// per-tenant fault entry points. Requires a ChaosModel
  /// (SystemBuilder::chaos or kChaosBurst plan events).
  void chaos_burst_tenant(int tenant, const sim::ChaosConfig& config,
                          sim::SimTime duration);

  /// The fleet-wide transient fault / garbage flood: the per-tenant
  /// variant applied to every tenant, so each tenant's garbage comes
  /// from its own message domains and census stream.
  void inject_transient_fault(support::Rng& rng,
                              int garbage_per_channel = -1) override;
  void flood_channels(support::Rng& rng, int garbage_per_channel) override;

  // -- proto::RequestPort -----------------------------------------------------
  /// Per-tenant need validation: `need` is checked against the owning
  /// tenant's k (the base class would check the fleet-wide max).
  void request(NodeId node, int need) override;
  /// Attributes any delta the release fires to the owning tenant's
  /// stream (client sessions release from outside event execution).
  void release(NodeId node) override;

 protected:
  /// Stamps each session with its tenant (Lease::tenant routes grants
  /// back per tenant in cross-tenant applications).
  void on_clients_created(ClientPool& pool) override;

  /// Fleet-wide fault helpers are only meaningful per tenant; the base
  /// message_domains (used by the *global* inject_transient_fault /
  /// flood_channels) gets tenant 0's domains, which is exact for
  /// homogeneous fleets. Heterogeneous fleets should use the per-tenant
  /// fault entry points.
  proto::MessageDomains message_domains() const override;

 private:
  const std::vector<TenantSpec>& specs() const { return config_.tenants; }
  void require_tenant(int tenant) const {
    KLEX_REQUIRE(tenant >= 0 && tenant < tenant_count(), "bad tenant ",
                 tenant);
  }
  proto::MessageDomains tenant_message_domains(int tenant) const;

  FleetConfig config_;
  std::vector<core::Params> tenant_params_;
  // Prefix-sum geometry: tenant t owns nodes [node_begin_[t],
  // node_begin_[t+1]), engine channels [chan_begin_[t], chan_begin_[t+1])
  // and out_channels_ entries [out_begin_[t], out_begin_[t+1]).
  std::vector<NodeId> node_begin_;
  std::vector<int> chan_begin_;
  std::vector<int> out_begin_;
  std::vector<int> tenant_lane_;
  std::vector<std::int64_t> recoveries_;
};

}  // namespace klex
