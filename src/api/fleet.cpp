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
  const int tenants = tenant_count();
  tenant_params_.reserve(static_cast<std::size_t>(tenants));
  node_begin_.reserve(static_cast<std::size_t>(tenants) + 1);
  chan_begin_.reserve(static_cast<std::size_t>(tenants) + 1);
  out_begin_.reserve(static_cast<std::size_t>(tenants) + 1);
  node_begin_.push_back(0);
  chan_begin_.push_back(0);
  out_begin_.push_back(0);

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
    tenant_params_.push_back(params);

    build_tree_instance(spec.tree, params, node_begin_.back());
    node_begin_.push_back(engine().process_count());
    chan_begin_.push_back(engine().channel_count());
    out_begin_.push_back(static_cast<int>(out_channels_.size()));
  }
  const int total = node_begin_.back();

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

  size_stabilization_probe(tenants);
  recoveries_.assign(static_cast<std::size_t>(tenants), 0);

  if (lanes > 1) {
    parallel_ = std::make_unique<sim::ParallelEngine>(engine());
  }
}

void FleetSystem::on_clients_created(ClientPool& pool) {
  for (NodeId node = 0; node < pool.size(); ++node) {
    pool.at(node).set_tenant(tenant_of(node));
  }
}

proto::MessageDomains FleetSystem::tenant_message_domains(int tenant) const {
  proto::MessageDomains domains;
  domains.myc_modulus =
      core::myc_modulus(tenant_n(tenant), config_.cmax);
  domains.l = tenant_params(tenant).l;
  return domains;
}

proto::MessageDomains FleetSystem::message_domains() const {
  // Only reached through base-class paths; exact for homogeneous fleets
  // (the per-tenant fault entry points use tenant_message_domains).
  return tenant_message_domains(0);
}

void FleetSystem::inject_transient_fault_tenant(int tenant,
                                                support::Rng& rng,
                                                int garbage_per_channel) {
  require_tenant(tenant);
  // Deltas fired by corrupt() must be attributed to this tenant's stream
  // (we are outside event execution).
  sim::ScopedStream scope(tenant);
  engine().clear_channel_range(chan_begin_[static_cast<std::size_t>(tenant)],
                               chan_begin_[static_cast<std::size_t>(tenant) +
                                           1]);
  for (NodeId v = node_begin(tenant); v < node_end(tenant); ++v) {
    participants_[static_cast<std::size_t>(v)]->corrupt(rng);
  }
  const proto::MessageDomains domains = tenant_message_domains(tenant);
  const int out_end = out_begin_[static_cast<std::size_t>(tenant) + 1];
  for (int i = out_begin_[static_cast<std::size_t>(tenant)]; i < out_end;
       ++i) {
    const auto& [node, channel] = out_channels_[static_cast<std::size_t>(i)];
    int garbage = garbage_per_channel >= 0
                      ? garbage_per_channel
                      : static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(config_.cmax) + 1));
    for (int g = 0; g < garbage; ++g) {
      engine().inject_message(node, channel,
                              proto::random_message(domains, rng));
    }
  }
}

void FleetSystem::inject_transient_fault(support::Rng& rng,
                                         int garbage_per_channel) {
  // The fleet-wide transient fault is the per-tenant fault applied to
  // every tenant: each tenant's garbage comes from its own message
  // domains and lands in its own census stream.
  for (int t = 0; t < tenant_count(); ++t) {
    inject_transient_fault_tenant(t, rng, garbage_per_channel);
  }
}

void FleetSystem::flood_channels(support::Rng& rng, int garbage_per_channel) {
  KLEX_REQUIRE(garbage_per_channel >= 0, "need a garbage count");
  for (int t = 0; t < tenant_count(); ++t) {
    sim::ScopedStream scope(t);
    engine().clear_channel_range(chan_begin_[static_cast<std::size_t>(t)],
                                 chan_begin_[static_cast<std::size_t>(t) + 1]);
    const proto::MessageDomains domains = tenant_message_domains(t);
    const int out_end = out_begin_[static_cast<std::size_t>(t) + 1];
    for (int i = out_begin_[static_cast<std::size_t>(t)]; i < out_end; ++i) {
      const auto& [node, channel] =
          out_channels_[static_cast<std::size_t>(i)];
      for (int g = 0; g < garbage_per_channel; ++g) {
        engine().inject_message(node, channel,
                                proto::random_message(domains, rng));
      }
    }
  }
}

bool FleetSystem::epoch_cut_recover_tenant(int tenant) {
  require_tenant(tenant);
  KLEX_REQUIRE(tenant_params(tenant).features.epoch_cut,
               "epoch_cut_recover_tenant needs Features::epoch_cut on "
               "tenant ", tenant);
  if (census_tracker().correct_of(tenant)) return false;
  // One O(tenant size) wipe-drain-reboot scoped to this tenant's channel
  // and node ranges; every other tenant's tokens keep circulating and its
  // counters are never touched.
  sim::ScopedStream scope(tenant);
  engine().clear_channel_range(chan_begin_[static_cast<std::size_t>(tenant)],
                               chan_begin_[static_cast<std::size_t>(tenant) +
                                           1]);
  for (NodeId v = node_begin(tenant); v < node_end(tenant); ++v) {
    participants_[static_cast<std::size_t>(v)]->epoch_drain();
  }
  const bool restarted =
      participants_[static_cast<std::size_t>(node_begin(tenant))]
          ->epoch_restart();
  KLEX_CHECK(restarted, "tenant ", tenant,
             "'s first node must be its root (epoch_restart)");
  ++recoveries_[static_cast<std::size_t>(tenant)];
  return true;
}

void FleetSystem::chaos_burst_tenant(int tenant,
                                     const sim::ChaosConfig& config,
                                     sim::SimTime duration) {
  require_tenant(tenant);
  engine().chaos_burst_channel_range(
      chan_begin_[static_cast<std::size_t>(tenant)],
      chan_begin_[static_cast<std::size_t>(tenant) + 1], config, duration);
}

bool FleetSystem::epoch_cut_recover() {
  bool any = false;
  for (int t = 0; t < tenant_count(); ++t) {
    if (!census_tracker().correct_of(t)) {
      any = epoch_cut_recover_tenant(t) || any;
    }
  }
  return any;
}

void FleetSystem::request(NodeId node, int need) {
  KLEX_REQUIRE(node >= 0 && node < n(), "bad node id ", node);
  const int tenant = tenant_of(node);
  const int tenant_k = tenant_params(tenant).k;
  if (need < 0 || need > tenant_k) {
    switch (misuse_policy()) {
      case MisusePolicy::kCheck:
        KLEX_REQUIRE(false, "request() need must be in 0..", tenant_k,
                     " for tenant ", tenant, ", got ", need);
        return;
      case MisusePolicy::kClamp:
        need = std::clamp(need, 0, tenant_k);
        break;
      case MisusePolicy::kIgnore:
        return;
    }
  }
  // Any delta the request fires lands in the tenant's stream (client
  // sessions call the port from outside event execution too).
  sim::ScopedStream scope(tenant);
  SystemBase::request(node, need);
}

void FleetSystem::release(NodeId node) {
  KLEX_REQUIRE(node >= 0 && node < n(), "bad node id ", node);
  sim::ScopedStream scope(tenant_of(node));
  SystemBase::release(node);
}

}  // namespace klex
