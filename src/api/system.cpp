#include "api/system.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "stree/partition.hpp"
#include "support/check.hpp"

namespace klex {

namespace {

core::Params make_params(const SystemConfig& config) {
  KLEX_REQUIRE(config.tenants >= 1, "a system needs at least one tenant");
  core::Params params;
  params.k = config.k;
  params.l = config.l;
  params.cmax = config.cmax;
  params.features = config.features;
  params.seed_tokens = config.seed_tokens && !config.spread_tokens;
  params.literal_pusher_guard = config.literal_pusher_guard;
  params.omit_prio_wrap_count = config.omit_prio_wrap_count;
  params.timeout_period = config.timeout_period;
  // spread_tokens is manual placement from finalize_params' point of
  // view: the System ctor injects the population itself.
  return SystemBase::finalize_params(
      params, config.manual_tokens || config.spread_tokens,
      core::default_timeout(config.tree.size(), config.delays.max_delay));
}

}  // namespace

System::System(SystemConfig config)
    : SystemBase(make_params(config), config.delays, config.seed),
      config_(std::move(config)) {
  if (config_.tenants > 1) {
    build_fleet();
    return;
  }
  // One tenant: lanes partition the tree, and the engine has no explicit
  // streams.
  const int lanes =
      std::clamp(config_.threads, 1,
                 std::min(config_.tree.size(), sim::Engine::kMaxLanes));
  std::vector<int> node_lane;
  if (lanes > 1) node_lane = stree::partition_tree(config_.tree, lanes);
  nodes_ = build_tree_protocol(config_.tree, node_lane, lanes);
  if (config_.spread_tokens) spread_seed_tokens(config_.tree, 0);
}

void System::build_fleet() {
  const int tenants = config_.tenants;
  for (int t = 0; t < tenants; ++t) {
    if (t > 0) open_tenant();
    std::vector<core::KlProcessBase*> built =
        build_tree_instance(config_.tree, node_begin(t));
    nodes_.insert(nodes_.end(), built.begin(), built.end());
  }
  const int total = n();

  // Lanes partition tenants (a tenant never spans lanes, which keeps
  // every stream single-writer): tenant t runs on lane t * lanes / R,
  // the contiguous blocks that balance equal-sized tenants.
  const int lanes = std::clamp(config_.threads, 1,
                               std::min(tenants, sim::Engine::kMaxLanes));
  if (lanes > 1) {
    std::vector<int> node_lane(static_cast<std::size_t>(total));
    for (int t = 0; t < tenants; ++t) {
      std::fill(node_lane.begin() + node_begin(t),
                node_lane.begin() + node_end(t), t * lanes / tenants);
    }
    engine().configure_lanes(node_lane, lanes);
  }

  // Tenant t == engine stream t, seeded seed + t: its delay draws and
  // (at, seq) sub-order replay a one-tenant System built with seed + t.
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
  // exactly as they are the first draws of a one-tenant spread system.
  if (config_.spread_tokens) {
    for (int t = 0; t < tenants; ++t) {
      spread_seed_tokens(config_.tree, node_begin(t));
    }
  }
  tracker_.configure_tenants(tenants);
  if (lanes > 1) parallel_ = std::make_unique<sim::ParallelEngine>(engine());
}

core::KlProcessBase& System::node(NodeId id) {
  KLEX_REQUIRE(id >= 0 && id < n(), "bad node id ", id);
  return *nodes_[static_cast<std::size_t>(id)];
}

const core::KlProcessBase& System::node(NodeId id) const {
  KLEX_REQUIRE(id >= 0 && id < n(), "bad node id ", id);
  return *nodes_[static_cast<std::size_t>(id)];
}

core::RootProcess& System::root() {
  return static_cast<core::RootProcess&>(node(tree::kRoot));
}

}  // namespace klex
