#include "api/fleet.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace klex {

namespace {

/// The base-class params for a fleet: the fleet-wide envelope. k is the
/// largest per-tenant bound (the ClientPool's clamp ceiling), ℓ the total
/// legitimate resource population (the tracker's tenant axis replaces it
/// with per-tenant expectations right after construction). Minting is
/// per-tenant (each tenant's own finalized params drive its root), so the
/// envelope never seeds tokens itself.
core::Params fleet_base_params(const FleetConfig& config) {
  KLEX_REQUIRE(!config.tenants.empty(), "a fleet needs at least one tenant");
  core::Params params;
  params.cmax = config.cmax;
  params.features = config.tenants.front().features;
  params.timeout_period = config.timeout_period;
  params.seed_tokens = false;
  params.k = 1;
  params.l = 0;
  for (const TenantSpec& spec : config.tenants) {
    params.k = std::max(params.k, spec.k);
    params.l += spec.l;
  }
  return params;
}

}  // namespace

FleetSystem::FleetSystem(FleetConfig config)
    : SystemBase(fleet_base_params(config), config.delays, config.seed),
      config_(std::move(config)) {
  const int tenants = static_cast<int>(config_.tenants.size());

  // One protocol instance per tenant, appended contiguously. Each tenant
  // finalizes its own params (timeout derived from its own size) exactly
  // like a standalone System would -- that is half of the standalone-
  // equivalence argument; the other half is the stream keying configured
  // below.
  for (int t = 0; t < tenants; ++t) {
    const TenantSpec& spec = tenant_spec(t);
    core::Params params;
    params.k = spec.k;
    params.l = spec.l;
    params.cmax = config_.cmax;
    params.features = spec.features;
    params.seed_tokens = config_.seed_tokens && !config_.spread_tokens;
    params.timeout_period = config_.timeout_period;
    params = finalize_params(
        params, config_.spread_tokens,
        core::default_timeout(spec.tree.size(), config_.delays.max_delay));
    open_tenant(params);
    build_tree_instance(spec.tree, params, node_begin(t));
  }
  const int total = n();

  // Lanes partition *tenants* (a tenant never spans lanes -- that is what
  // keeps every stream single-writer): contiguous tenant blocks balanced
  // by node count.
  const int lanes = std::clamp(config_.threads, 1,
                               std::min(tenants, sim::Engine::kMaxLanes));
  tenant_lane_.assign(static_cast<std::size_t>(tenants), 0);
  if (lanes > 1) {
    long long filled = 0;
    int lane = 0;
    for (int t = 0; t < tenants; ++t) {
      tenant_lane_[static_cast<std::size_t>(t)] = lane;
      filled += tenant_n(t);
      const int tenants_left = tenants - t - 1;
      const int lanes_left = lanes - lane - 1;
      // Advance when this lane reached its proportional share -- or when
      // every remaining lane needs one of the remaining tenants.
      if (lanes_left > 0 &&
          (filled * lanes >= static_cast<long long>(lane + 1) * total ||
           tenants_left == lanes_left)) {
        ++lane;
      }
    }
    std::vector<int> node_lane(static_cast<std::size_t>(total));
    for (int t = 0; t < tenants; ++t) {
      std::fill(node_lane.begin() + node_begin(t),
                node_lane.begin() + node_end(t),
                tenant_lane_[static_cast<std::size_t>(t)]);
    }
    engine().configure_lanes(node_lane, lanes);
  }

  // Tenant t == engine stream t, seeded seed + t: its delay draws and
  // (at, seq) sub-order replay a standalone System built with seed + t.
  std::vector<int> node_stream(static_cast<std::size_t>(total));
  std::vector<std::uint64_t> stream_seeds(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    std::fill(node_stream.begin() + node_begin(t),
              node_stream.begin() + node_end(t), t);
    stream_seeds[static_cast<std::size_t>(t)] =
        config_.seed + static_cast<std::uint64_t>(t);
  }
  engine().configure_streams(node_stream, stream_seeds);

  // Token placement draws delays, so it must follow configure_streams:
  // the injections are the first draws from each tenant's channel rngs,
  // exactly as they are the first draws of a standalone spread system.
  if (config_.spread_tokens) {
    for (int t = 0; t < tenants; ++t) {
      spread_seed_tokens(tenant_spec(t).tree, tenant_params(t), node_begin(t));
    }
  }

  std::vector<proto::CensusTracker::TenantExpectation> expected(
      static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    expected[static_cast<std::size_t>(t)].l = tenant_params(t).l;
    expected[static_cast<std::size_t>(t)].features =
        tenant_params(t).features;
  }
  tracker_.configure_tenants(std::move(expected));

  if (lanes > 1) {
    parallel_ = std::make_unique<sim::ParallelEngine>(engine());
  }
}

void FleetSystem::chaos_burst_tenant(int tenant,
                                     const sim::ChaosConfig& config,
                                     sim::SimTime duration) {
  require_tenant(tenant);
  engine().chaos_burst_channel_range(channel_begin(tenant),
                                     channel_end(tenant), config, duration);
}

}  // namespace klex
