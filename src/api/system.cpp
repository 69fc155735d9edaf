#include "api/system.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "stree/partition.hpp"
#include "support/check.hpp"

namespace klex {

namespace {

core::Params make_params(const SystemConfig& config) {
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

int clamp_threads(const SystemConfig& config) {
  return std::clamp(config.threads, 1,
                    std::min(config.tree.size(), sim::Engine::kMaxLanes));
}

}  // namespace

System::System(SystemConfig config)
    : SystemBase(make_params(config), config.delays, config.seed),
      config_(std::move(config)) {
  int lanes = clamp_threads(config_);
  std::vector<int> node_lane;
  if (lanes > 1) node_lane = stree::partition_tree(config_.tree, lanes);
  nodes_ = build_tree_protocol(config_.tree, node_lane, lanes);
  if (config_.spread_tokens) spread_seed_tokens(config_.tree, params(), 0);
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
