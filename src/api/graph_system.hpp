// klex::GraphSystem -- k-out-of-ℓ exclusion on an arbitrary connected
// rooted network (the paper's Section 5 extension).
//
// "Solutions on the oriented tree can be directly mapped to solutions for
//  arbitrary rooted networks by composing the protocol with a spanning
//  tree construction." -- paper, Section 5.
//
// GraphSystem performs that composition behind the SystemBase interface:
//   1. it runs the self-stabilizing BFS spanning-tree layer (src/stree/)
//      over the input graph until the tree converges,
//   2. it extracts the oriented tree and runs Algorithms 1 & 2 over it --
//      every tree edge is a graph edge, so the simulated channels
//      correspond one-to-one to physical links of the network.
// Node ids are graph node ids throughout (node 0 is the root).
#pragma once

#include <cstdint>

#include "api/system_base.hpp"
#include "stree/graph.hpp"
#include "stree/spanning_tree.hpp"
#include "tree/tree.hpp"

namespace klex {

struct GraphSystemConfig {
  /// The arbitrary connected network; node 0 is the distinguished root.
  stree::Graph graph = stree::cycle_graph(3);
  int k = 1;
  int l = 1;
  proto::Features features = proto::Features::full();
  int cmax = 4;
  sim::DelayModel delays{};
  sim::SimTime timeout_period = 0;  // 0 derives a safe default
  std::uint64_t seed = support::Rng::kDefaultSeed;
  bool seed_tokens = false;


  /// Spanning-tree construction phase (its own engine, derived seed).
  sim::SimTime beacon_period = 256;
  sim::SimTime spanning_tree_deadline = 4'000'000;

  /// Worker lanes for the exclusion phase, cut over the *extracted*
  /// overlay tree's DFS preorder (see SystemConfig::threads). The
  /// spanning-tree phase itself stays serial.
  int threads = 1;

  /// Live-topology mode: wire the engine over every physical graph link
  /// (the protocol keeps logical tree channels behind per-node
  /// translation maps) so apply_topology_fault can fail/restore links and
  /// crash/revive nodes at runtime and repair the overlay online. Off by
  /// default -- the live wiring registers out-channels in graph-adjacency
  /// order, which changes fault-injection rng draw sequences, so static
  /// baselines stay bit-identical. Requires Features::epoch_cut.
  bool live_topology = false;
};

class GraphSystem : public SystemBase {
 public:
  explicit GraphSystem(GraphSystemConfig config);

  const stree::Graph& graph() const { return config_.graph; }

  /// The BFS spanning tree the protocol runs over.
  const tree::Tree& overlay_tree() const { return overlay_; }

  /// Convergence time of the spanning-tree phase (its own clock).
  sim::SimTime spanning_tree_converged_at() const {
    return stree_converged_at_;
  }

  core::KlProcessBase& node(NodeId id);
  core::RootProcess& root();

  // -- live topology (online spanning-tree repair) ---------------------------
  /// Whether the system was built in live-topology mode.
  bool live() const { return live_; }

  /// Runtime link / node state (tests + offline verification).
  bool node_alive(NodeId v) const;
  bool link_up(NodeId v, int channel) const;

  /// Whether `v` currently participates in the protocol (alive and
  /// reachable from the root over up links at the last repair).
  bool attached(NodeId v) const;

  /// Current overlay parent per node, in original node ids (kNoParent
  /// for the root and for detached nodes).
  const std::vector<tree::NodeId>& current_parents() const {
    return current_parents_;
  }

  /// The surviving component compacted to dense ids by ascending original
  /// id (the root stays id 0), exactly as a repair sees it -- so a test
  /// can re-run the spanning-tree construction offline with
  /// last_repair().repair_seed and compare parent sets.
  stree::Graph surviving_graph() const;
  std::vector<NodeId> surviving_ids() const;

  int repair_count() const { return repair_count_; }
  const TopologyFaultResult& last_repair() const { return last_repair_; }

  /// Mutates the physical topology per `event`, then repairs: BFS-checks
  /// reachability from the root, re-runs the stree construction over the
  /// surviving graph, diffs parent sets, drains orphaned tokens
  /// (epoch-cut), rebinds every surviving process to its new overlay
  /// channels, detaches lost nodes (revoking their client leases) and
  /// re-mints from the root.
  TopologyFaultResult apply_topology_fault(const FaultEvent& event,
                                           support::Rng& rng) override;

 private:
  /// Runs the spanning-tree phase; records the convergence time.
  static tree::Tree run_spanning_phase(const GraphSystemConfig& config,
                                       sim::SimTime& converged_at);

  /// Adjacency index of physical link v->w, or -1 if not a link.
  int graph_channel(NodeId v, NodeId w) const;

  /// Fails (or restores, per event.restore) links / nodes; returns how
  /// many actually changed state. Random picks draw from the candidates
  /// in canonical order (ascending node id, ascending adjacency index).
  int churn_links(const FaultEvent& event, support::Rng& rng);
  int churn_nodes(const FaultEvent& event, support::Rng& rng);

  /// Nodes reachable from the root over alive nodes and up links.
  std::vector<std::uint8_t> compute_reachable() const;

  GraphSystemConfig config_;
  sim::SimTime stree_converged_at_ = 0;
  tree::Tree overlay_;  // initialized after stree_converged_at_
  std::vector<core::KlProcessBase*> nodes_;  // owned by engine

  // Live-topology state (empty unless config_.live_topology).
  bool live_ = false;
  std::vector<std::uint8_t> node_alive_;
  std::vector<std::vector<std::uint8_t>> link_up_;  // [v][adjacency index]
  std::vector<std::uint8_t> attached_;
  std::vector<tree::NodeId> current_parents_;
  int repair_count_ = 0;
  TopologyFaultResult last_repair_{};
};

}  // namespace klex
