// Fault vocabulary shared by the builder, the harnesses and the
// experiment layer: what can break, when, and what a topology repair
// reports back.
//
// FaultKind / FaultEvent / FaultPlan live in their own header (not
// builder.hpp) because SystemBase::apply_topology_fault consumes
// FaultEvent while builder.hpp includes system_base.hpp -- the fault
// vocabulary is below both.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/chaos.hpp"
#include "sim/time.hpp"

namespace klex {

/// Fault kinds a plan (or the legacy single post-measurement fault) can
/// inject.
///   kTransient    -- the paper's transient fault: every process variable
///                    randomized in-domain, channels wiped then preloaded
///                    with garbage messages (up to CMAX each by default;
///                    SystemBuilder::fault_garbage pins an exact count).
///                    Recovery is protocol-dominated (surplus tokens must
///                    drain through a reset).
///   kChannelWipe  -- pure deficit fault: all in-flight messages lost,
///                    process state intact. Recovery is detection-
///                    dominated (idle wait for the root timeout, one
///                    circulation, a mint).
///   kGarbageFlood -- pure surplus fault: channels wiped then preloaded
///                    with exactly fault_garbage random messages each,
///                    process memory intact (the CMAX-violation ablation:
///                    the flood may exceed the CMAX the protocol's myC
///                    domain was sized for).
///   kLinkChurn    -- topology fault: physical links fail (or are
///                    restored); the live GraphSystem re-runs the BFS
///                    spanning-tree construction over the surviving graph
///                    and migrates protocol state onto the new tree.
///   kNodeCrash    -- topology fault: whole nodes crash (or revive); the
///                    root (node 0) cannot crash. Same repair pipeline as
///                    kLinkChurn; crashed and partitioned nodes detach
///                    until a later restore reconnects them.
///   kChaosBurst   -- adversarial-channel episode: the event's chaos
///                    config (drop/duplicate/reorder/jitter) overrides
///                    the steady sim::ChaosModel config on all links (or
///                    the event's explicit `links`) for `duration`
///                    ticks, then expires on its own. Damage is
///                    in-model (lost and duplicated tokens), so
///                    recovery runs through the protocol itself -- or
///                    through a deferred epoch cut at burst end on the
///                    full+cut rung.
enum class FaultKind {
  kNone,
  kTransient,
  kChannelWipe,
  kGarbageFlood,
  kLinkChurn,
  kNodeCrash,
  kChaosBurst,
};

/// Stable lowercase name ("none", "transient", "channel_wipe",
/// "garbage_flood", "link_churn", "node_crash", "chaos_burst") -- the
/// spelling used in BENCH_*.json artifacts and bench_diff.py keys.
const char* to_string(FaultKind kind);

/// One timed fault in a staged plan. `at` is an offset from the start of
/// the fault phase (the runner materializes the absolute timestamps into
/// the artifact, so any churn incident is reproducible from it alone).
struct FaultEvent {
  sim::SimTime at = 0;
  FaultKind kind = FaultKind::kNone;

  /// kLinkChurn: explicit undirected endpoints to fail/restore. Empty =
  /// draw `count` random eligible links (up links when failing, down
  /// links when restoring) from the fault rng.
  /// kChaosBurst: explicit undirected endpoints the burst is scoped to
  /// (both directed channels each). Empty = every link (of the target
  /// tenant, for a burst aimed at one; its endpoints are then
  /// tenant-local ids, see Session::apply_fault_event).
  std::vector<std::pair<int, int>> links;

  /// kNodeCrash: explicit node ids to crash/revive (node 0 forbidden).
  /// Empty = draw `count` random eligible nodes.
  int count = 1;
  std::vector<int> nodes;

  /// Topology kinds: true restores previously failed links / crashed
  /// nodes instead of failing fresh ones.
  bool restore = false;

  /// kTransient / kGarbageFlood: garbage messages per channel
  /// (-1 = the kind's default, as in SystemBuilder::fault_garbage).
  int garbage = -1;

  /// kChaosBurst: the episode's adversarial-channel intensity and its
  /// length in ticks. The burst is applied at `at` and expires lazily at
  /// `at` + duration; a system whose fault plan schedules bursts gets a
  /// ChaosModel attached at build time even when the steady config is
  /// all-zero.
  sim::ChaosConfig chaos{};
  sim::SimTime duration = 0;
};

/// A schedule of timed fault events; generalizes the single
/// post-measurement FaultKind.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// True when any event needs the live-topology machinery.
  bool has_topology_events() const {
    for (const FaultEvent& event : events) {
      if (event.kind == FaultKind::kLinkChurn ||
          event.kind == FaultKind::kNodeCrash) {
        return true;
      }
    }
    return false;
  }

  /// True when any event needs a sim::ChaosModel attached (the builder
  /// then attaches one even with an all-zero steady config).
  bool has_chaos_events() const {
    for (const FaultEvent& event : events) {
      if (event.kind == FaultKind::kChaosBurst) return true;
    }
    return false;
  }
};

/// What one online spanning-tree repair did (returned by
/// SystemBase::apply_topology_fault; recorded per event in the runner's
/// artifact to pin re-stabilization cost per churn event).
struct TopologyFaultResult {
  /// Undirected links / nodes whose up/alive state this event flipped.
  int links_changed = 0;
  int nodes_changed = 0;
  /// Nodes that left / rejoined the protocol population in this repair.
  int detached = 0;
  int reattached = 0;
  /// Population actually running the protocol after the repair.
  int attached_nodes = 0;
  /// Surviving non-root nodes whose overlay parent moved.
  int parent_changes = 0;
  /// Cost of the online spanning-tree reconstruction (its own engine).
  std::uint64_t stree_events = 0;
  sim::SimTime stree_time = 0;
  /// Derived seed of the reconstruction, exposed so an offline re-run of
  /// the same construction reproduces the repair bit for bit.
  std::uint64_t repair_seed = 0;
};

}  // namespace klex
