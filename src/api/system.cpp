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
  if (config_.spread_tokens) spread_seed_tokens();
}

void System::spread_seed_tokens() {
  const tree::Tree& tree = config_.tree;
  const int hops = 2 * (tree.size() - 1);
  // The virtual ring in token-forwarding order: from (v, ch) a token
  // crosses to w = neighbor(v, ch) and leaves on the channel after the
  // one it arrived on -- the Euler tour of the tree.
  std::vector<std::pair<NodeId, int>> tour;
  tour.reserve(static_cast<std::size_t>(hops));
  NodeId v = tree::kRoot;
  int ch = 0;
  for (int i = 0; i < hops; ++i) {
    tour.emplace_back(v, ch);
    NodeId w = tree.neighbor(v, ch);
    int in = tree.reverse_channel(v, ch);
    v = w;
    ch = (in + 1) % tree.degree(w);
  }
  KLEX_CHECK(v == tree::kRoot && ch == 0, "the Euler tour must close");
  // ℓ resources spread over the ring (instead of a convoy out of the
  // root's channel 0); the unique pusher / priority start at the root.
  for (int i = 0; i < params().l; ++i) {
    std::size_t pos = static_cast<std::size_t>(
        (static_cast<long long>(i) * hops) / params().l);
    const auto& [node, channel] = tour[pos];
    engine().inject_message(node, channel, proto::make_resource());
  }
  if (params().features.pusher) {
    engine().inject_message(tree::kRoot, 0, proto::make_pusher());
  }
  if (params().features.priority) {
    engine().inject_message(tree::kRoot, 0, proto::make_priority());
  }
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
