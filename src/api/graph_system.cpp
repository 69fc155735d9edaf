#include "api/graph_system.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "stree/partition.hpp"
#include "support/check.hpp"

namespace klex {

namespace {

core::Params make_params(const GraphSystemConfig& config) {
  core::Params params;
  params.k = config.k;
  params.l = config.l;
  params.cmax = config.cmax;
  params.features = config.features;
  params.seed_tokens = config.seed_tokens;
  params.timeout_period = config.timeout_period;
  return SystemBase::finalize_params(
      params, /*manual_tokens=*/false,
      core::default_timeout(config.graph.size(), config.delays.max_delay));
}

}  // namespace

tree::Tree GraphSystem::run_spanning_phase(const GraphSystemConfig& config,
                                           sim::SimTime& converged_at) {
  KLEX_REQUIRE(config.graph.size() >= 2, "the protocol requires n >= 2");
  stree::SpanningTreeSystem::Config stree_config;
  stree_config.graph = config.graph;
  stree_config.delays = config.delays;
  stree_config.beacon_period = config.beacon_period;
  // A derived stream: the exclusion engine reuses config.seed, and the two
  // phases must not share a delay sequence.
  stree_config.seed = support::Rng(config.seed).split(0x5742454eu)();
  stree::SpanningTreeSystem stree(std::move(stree_config));
  converged_at = stree.run_until_converged(config.spanning_tree_deadline);
  KLEX_REQUIRE(converged_at != sim::kTimeInfinity,
               "spanning tree did not converge before the deadline (",
               config.spanning_tree_deadline, " ticks)");
  auto extracted = stree.try_extract_tree();
  KLEX_CHECK(extracted.has_value(),
             "converged spanning tree must extract as an oriented tree");
  return *std::move(extracted);
}

GraphSystem::GraphSystem(GraphSystemConfig config)
    : SystemBase(make_params(config), config.delays, config.seed),
      config_(std::move(config)),
      overlay_(run_spanning_phase(config_, stree_converged_at_)) {
  if (config_.live_topology) {
    KLEX_REQUIRE(params_.features.epoch_cut,
                 "live topology repair re-mints through the epoch-cut "
                 "drain; enable Features::epoch_cut");
    live_ = true;
  }
  int lanes = std::clamp(config_.threads, 1,
                         std::min(overlay_.size(), sim::Engine::kMaxLanes));
  std::vector<int> node_lane;
  if (lanes > 1) node_lane = stree::partition_tree(overlay_, lanes);
  nodes_ = build_tree_protocol(overlay_, node_lane, lanes,
                               live_ ? &config_.graph : nullptr);
  if (live_) {
    const std::size_t count = static_cast<std::size_t>(n());
    node_alive_.assign(count, 1);
    attached_.assign(count, 1);
    link_up_.resize(count);
    current_parents_.resize(count);
    for (NodeId v = 0; v < n(); ++v) {
      link_up_[static_cast<std::size_t>(v)].assign(
          static_cast<std::size_t>(config_.graph.degree(v)), 1);
      current_parents_[static_cast<std::size_t>(v)] = overlay_.parent(v);
    }
  }
}

core::KlProcessBase& GraphSystem::node(NodeId id) {
  KLEX_REQUIRE(id >= 0 && id < n(), "bad node id ", id);
  return *nodes_[static_cast<std::size_t>(id)];
}

core::RootProcess& GraphSystem::root() {
  return static_cast<core::RootProcess&>(node(tree::kRoot));
}

bool GraphSystem::node_alive(NodeId v) const {
  KLEX_REQUIRE(live_, "live-topology mode only");
  KLEX_REQUIRE(v >= 0 && v < n(), "bad node id ", v);
  return node_alive_[static_cast<std::size_t>(v)] != 0;
}

bool GraphSystem::link_up(NodeId v, int channel) const {
  KLEX_REQUIRE(live_, "live-topology mode only");
  KLEX_REQUIRE(v >= 0 && v < n(), "bad node id ", v);
  KLEX_REQUIRE(channel >= 0 && channel < config_.graph.degree(v),
               "bad adjacency index ", channel);
  return link_up_[static_cast<std::size_t>(v)]
                 [static_cast<std::size_t>(channel)] != 0;
}

bool GraphSystem::attached(NodeId v) const {
  KLEX_REQUIRE(live_, "live-topology mode only");
  KLEX_REQUIRE(v >= 0 && v < n(), "bad node id ", v);
  return attached_[static_cast<std::size_t>(v)] != 0;
}

int GraphSystem::graph_channel(NodeId v, NodeId w) const {
  for (int c = 0; c < config_.graph.degree(v); ++c) {
    if (config_.graph.neighbor(v, c) == w) return c;
  }
  return -1;
}

std::vector<std::uint8_t> GraphSystem::compute_reachable() const {
  std::vector<std::uint8_t> reachable(static_cast<std::size_t>(n()), 0);
  std::vector<NodeId> frontier;
  reachable[tree::kRoot] = 1;
  frontier.push_back(tree::kRoot);
  while (!frontier.empty()) {
    NodeId v = frontier.back();
    frontier.pop_back();
    for (int c = 0; c < config_.graph.degree(v); ++c) {
      if (link_up_[static_cast<std::size_t>(v)]
                  [static_cast<std::size_t>(c)] == 0) {
        continue;
      }
      NodeId w = config_.graph.neighbor(v, c);
      std::size_t ws = static_cast<std::size_t>(w);
      if (node_alive_[ws] == 0 || reachable[ws] != 0) continue;
      reachable[ws] = 1;
      frontier.push_back(w);
    }
  }
  return reachable;
}

std::vector<NodeId> GraphSystem::surviving_ids() const {
  KLEX_REQUIRE(live_, "live-topology mode only");
  std::vector<std::uint8_t> reachable = compute_reachable();
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < n(); ++v) {
    if (reachable[static_cast<std::size_t>(v)] != 0) ids.push_back(v);
  }
  return ids;
}

stree::Graph GraphSystem::surviving_graph() const {
  KLEX_REQUIRE(live_, "live-topology mode only");
  std::vector<std::uint8_t> reachable = compute_reachable();
  std::vector<int> compact_of(static_cast<std::size_t>(n()), -1);
  int survivors = 0;
  for (NodeId v = 0; v < n(); ++v) {
    if (reachable[static_cast<std::size_t>(v)] != 0) {
      compact_of[static_cast<std::size_t>(v)] = survivors++;
    }
  }
  std::vector<std::pair<int, int>> edges;
  for (NodeId v = 0; v < n(); ++v) {
    if (reachable[static_cast<std::size_t>(v)] == 0) continue;
    for (int c = 0; c < config_.graph.degree(v); ++c) {
      NodeId w = config_.graph.neighbor(v, c);
      if (v < w && reachable[static_cast<std::size_t>(w)] != 0 &&
          link_up_[static_cast<std::size_t>(v)]
                  [static_cast<std::size_t>(c)] != 0) {
        edges.emplace_back(compact_of[static_cast<std::size_t>(v)],
                           compact_of[static_cast<std::size_t>(w)]);
      }
    }
  }
  return stree::Graph::from_edges(survivors, edges);
}

int GraphSystem::churn_links(const FaultEvent& event, support::Rng& rng) {
  const std::uint8_t up = event.restore ? 1 : 0;
  int changed = 0;
  auto flip = [&](NodeId a, int ca) -> bool {
    NodeId b = config_.graph.neighbor(a, ca);
    int cb = config_.graph.reverse_channel(a, ca);
    auto& fwd = link_up_[static_cast<std::size_t>(a)]
                        [static_cast<std::size_t>(ca)];
    if (fwd == up) return false;
    fwd = up;
    link_up_[static_cast<std::size_t>(b)][static_cast<std::size_t>(cb)] = up;
    return true;
  };
  if (!event.links.empty()) {
    for (const auto& [a, b] : event.links) {
      KLEX_REQUIRE(a >= 0 && a < n() && b >= 0 && b < n(),
                   "bad link endpoint ", a, "-", b);
      int ca = graph_channel(a, b);
      KLEX_REQUIRE(ca >= 0, "link ", a, "-", b, " is not a physical link");
      if (flip(a, ca)) ++changed;
    }
    return changed;
  }
  // Random churn: enumerate flippable links in canonical order (ascending
  // node id, ascending adjacency index, each undirected link once at its
  // lower endpoint) and draw without replacement -- the rng sequence, and
  // therefore the whole trajectory, is a pure function of the seed.
  std::vector<std::pair<NodeId, int>> candidates;
  for (NodeId v = 0; v < n(); ++v) {
    for (int c = 0; c < config_.graph.degree(v); ++c) {
      if (v < config_.graph.neighbor(v, c) &&
          link_up_[static_cast<std::size_t>(v)]
                  [static_cast<std::size_t>(c)] != up) {
        candidates.emplace_back(v, c);
      }
    }
  }
  std::size_t want = std::min(static_cast<std::size_t>(std::max(event.count, 0)),
                              candidates.size());
  for (std::size_t i = 0; i < want; ++i) {
    std::size_t j = i + static_cast<std::size_t>(
                            rng.next_below(candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
    if (flip(candidates[i].first, candidates[i].second)) ++changed;
  }
  return changed;
}

int GraphSystem::churn_nodes(const FaultEvent& event, support::Rng& rng) {
  const std::uint8_t alive = event.restore ? 1 : 0;
  int changed = 0;
  auto flip = [&](NodeId v) -> bool {
    KLEX_REQUIRE(v != tree::kRoot,
                 "the distinguished root (node 0) cannot crash");
    auto& cell = node_alive_[static_cast<std::size_t>(v)];
    if (cell == alive) return false;
    cell = alive;
    return true;
  };
  if (!event.nodes.empty()) {
    for (NodeId v : event.nodes) {
      KLEX_REQUIRE(v >= 0 && v < n(), "bad node id ", v);
      if (flip(v)) ++changed;
    }
    return changed;
  }
  std::vector<NodeId> candidates;
  for (NodeId v = 1; v < n(); ++v) {
    if (node_alive_[static_cast<std::size_t>(v)] != alive) {
      candidates.push_back(v);
    }
  }
  std::size_t want = std::min(static_cast<std::size_t>(std::max(event.count, 0)),
                              candidates.size());
  for (std::size_t i = 0; i < want; ++i) {
    std::size_t j = i + static_cast<std::size_t>(
                            rng.next_below(candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
    if (flip(candidates[i])) ++changed;
  }
  return changed;
}

TopologyFaultResult GraphSystem::apply_topology_fault(const FaultEvent& event,
                                                      support::Rng& rng) {
  KLEX_REQUIRE(live_,
               "apply_topology_fault needs GraphSystemConfig::live_topology");
  TopologyFaultResult result;

  // 1. Mutate the physical topology.
  switch (event.kind) {
    case FaultKind::kLinkChurn:
      result.links_changed = churn_links(event, rng);
      break;
    case FaultKind::kNodeCrash:
      result.nodes_changed = churn_nodes(event, rng);
      break;
    default:
      KLEX_REQUIRE(false, "not a topology fault kind: ",
                   to_string(event.kind));
  }

  // 2. The surviving component (root-reachable over up links).
  std::vector<std::uint8_t> reachable = compute_reachable();
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < n(); ++v) {
    if (reachable[static_cast<std::size_t>(v)] != 0) ids.push_back(v);
  }
  KLEX_REQUIRE(static_cast<int>(ids.size()) >= 2,
               "topology fault left fewer than 2 nodes reachable from the "
               "root; the protocol requires n >= 2");
  result.attached_nodes = static_cast<int>(ids.size());

  // 3. Re-run the spanning-tree construction over the survivors. A fresh
  //    derived seed per repair keeps successive repairs independent and
  //    lets tests replay this exact construction offline.
  stree::SpanningTreeSystem::Config stree_config;
  stree_config.graph = surviving_graph();
  stree_config.delays = config_.delays;
  stree_config.beacon_period = config_.beacon_period;
  stree_config.seed =
      support::Rng(config_.seed)
          .split(0x52455041u + static_cast<std::uint64_t>(repair_count_))();
  result.repair_seed = stree_config.seed;
  stree::SpanningTreeSystem stree(std::move(stree_config));
  sim::SimTime converged =
      stree.run_until_converged(config_.spanning_tree_deadline);
  KLEX_REQUIRE(converged != sim::kTimeInfinity,
               "online spanning-tree repair did not converge before the "
               "deadline (", config_.spanning_tree_deadline, " ticks)");
  auto extracted = stree.try_extract_tree();
  KLEX_CHECK(extracted.has_value(),
             "converged repair tree must extract as an oriented tree");
  result.stree_time = converged;
  result.stree_events = stree.engine().events_executed();

  // 4. Map the compact tree back to original ids and diff parent sets.
  std::vector<tree::NodeId> new_parents(static_cast<std::size_t>(n()),
                                        tree::kNoParent);
  for (std::size_t cv = 0; cv < ids.size(); ++cv) {
    tree::NodeId parent = extracted->parent(static_cast<tree::NodeId>(cv));
    if (parent != tree::kNoParent) {
      new_parents[static_cast<std::size_t>(ids[cv])] =
          ids[static_cast<std::size_t>(parent)];
    }
  }
  std::vector<std::vector<NodeId>> children(static_cast<std::size_t>(n()));
  for (NodeId v = 0; v < n(); ++v) {
    NodeId p = new_parents[static_cast<std::size_t>(v)];
    if (p != tree::kNoParent) children[static_cast<std::size_t>(p)].push_back(v);
  }

  // 5. The repair barrier: wipe every channel, drain every stored token
  //    (epoch-cut: attached survivors keep their application state, a
  //    node In CS stays in CS), migrate state views to the new overlay,
  //    detach the lost nodes, then re-mint from the root. This is
  //    epoch_cut_recover() with the rebind spliced between drain and
  //    restart.
  engine_.clear_channels();
  for (proto::ExclusionParticipant* participant : participants_) {
    participant->epoch_drain();
  }
  for (NodeId v = 0; v < n(); ++v) {
    const std::size_t vs = static_cast<std::size_t>(v);
    const bool was_attached = attached_[vs] != 0;
    const bool now_attached = reachable[vs] != 0;
    if (now_attached) {
      if (!was_attached) {
        ++result.reattached;
      } else if (v != tree::kRoot &&
                 new_parents[vs] != current_parents_[vs]) {
        ++result.parent_changes;
      }
      // Overlay channels in tree convention: 0 = parent (non-root),
      // children ascending by id.
      std::vector<NodeId> overlay_neighbors;
      if (v != tree::kRoot) overlay_neighbors.push_back(new_parents[vs]);
      overlay_neighbors.insert(overlay_neighbors.end(), children[vs].begin(),
                               children[vs].end());
      std::vector<int> phys_of(overlay_neighbors.size());
      std::vector<int> logical_of(
          static_cast<std::size_t>(config_.graph.degree(v)), -1);
      for (std::size_t lc = 0; lc < overlay_neighbors.size(); ++lc) {
        int pc = graph_channel(v, overlay_neighbors[lc]);
        KLEX_CHECK(pc >= 0, "repaired overlay edge must be a physical link");
        phys_of[lc] = pc;
        logical_of[static_cast<std::size_t>(pc)] = static_cast<int>(lc);
      }
      nodes_[vs]->rebind_topology(static_cast<int>(overlay_neighbors.size()),
                                  std::move(phys_of), std::move(logical_of));
    } else {
      if (was_attached) ++result.detached;
      nodes_[vs]->set_detached(true);
    }
    attached_[vs] = now_attached ? 1 : 0;
    current_parents_[vs] = now_attached ? new_parents[vs] : tree::kNoParent;
  }

  // 6. Degrade / restore client sessions before the new epoch starts:
  //    leases on detached nodes are revoked (on_revoked fires exactly
  //    once), pending acquires there are denied retryably, survivors
  //    come back acquirable.
  if (clients_ != nullptr) {
    for (NodeId v = 0; v < n(); ++v) {
      clients_->set_reachable(v, attached_[static_cast<std::size_t>(v)] != 0);
    }
  }

  // 7. The expected token population is topology-independent (ℓ, pusher,
  //    priority do not shrink with n); re-assert it so the stabilization
  //    predicate keeps meaning "legitimate" over the new population.
  tracker_.set_expected_population(params_.l, params_.features);

  // 8. Re-mint the legitimate population from the root of the repaired
  //    overlay (node 0 is pinned as the root and cannot crash).
  const bool restarted = participants_[tree::kRoot]->epoch_restart();
  KLEX_CHECK(restarted, "participant 0 must be the root (epoch_restart)");

  ++repair_count_;
  last_repair_ = result;
  return result;
}

}  // namespace klex
