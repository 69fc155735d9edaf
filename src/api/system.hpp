// klex::System -- the tree-topology entry point.
//
// Wires an oriented tree and the protocol processes (Algorithms 1 & 2 at
// the configured ladder rung) over the shared SystemBase runtime (engine,
// listener fan-out, census, fault injection, run loops). Typical use (see
// examples/quickstart.cpp):
//
//   klex::SystemConfig config;
//   config.tree = klex::tree::balanced(2, 3);
//   config.k = 2; config.l = 5;
//   klex::System system(config);
//   system.request(3, 2);          // node 3 asks for 2 units
//   system.run_until(100000);
//
// A fleet is the same system with SystemConfig::tenants = R > 1: R
// identical copies ("tenants") of the tree, each with the config's k, ℓ,
// rung and knobs, run as R causally independent protocol instances on
// one engine (one clock, one worker-lane pool, one census tracker):
//
//   * node ids: tenant t owns the contiguous engine range
//     [node_begin(t), node_end(t)); tree node v of tenant t is engine
//     node node_begin(t) + v. Channels and timers stay inside a tenant.
//   * sequencing: tenant t is engine stream t, seeded seed + t. Its delay
//     draws and (at, seq) sub-order replay the one-tenant System built
//     with seed + t, whatever the other tenants do -- the differential
//     anchor (tests/integration/fleet_differential_test.cpp).
//   * execution: run_until runs the due tenants tenant-major, in
//     ascending tenant order; an attached observer switches it to the
//     merged (at, seq) order (see sim/engine.hpp).
//   * census: the tracker's tenant axis gives each tenant an O(1)
//     legitimacy predicate (tenant_correct) against ℓ and the rung;
//     l() is the system-wide bound ℓ·R.
//   * lanes partition tenants (a tenant never spans lanes): contiguous
//     tenant blocks, at most min(R, Engine::kMaxLanes) lanes.
//
// The tenant-scoped fault, flood, epoch cut, chaos burst and readouts
// are SystemBase's (a one-tenant system is tenant 0 of one).
#pragma once

#include <cstdint>
#include <vector>

#include "api/system_base.hpp"
#include "core/member_process.hpp"
#include "core/params.hpp"
#include "core/root_process.hpp"
#include "tree/tree.hpp"

namespace klex {

struct SystemConfig {
  /// The oriented tree (n >= 2); node 0 is the root.
  tree::Tree tree = tree::line(2);
  /// Per-request bound k and total units ℓ (1 <= k <= ℓ), per tenant.
  int k = 1;
  int l = 1;
  /// Ladder rung; Features::full() is the paper's protocol.
  proto::Features features = proto::Features::full();
  /// Bound on initial arbitrary messages per channel.
  int cmax = 4;
  /// Channel delay model.
  sim::DelayModel delays{};
  /// Root controller timeout; 0 derives a safe default.
  sim::SimTime timeout_period = 0;
  /// RNG seed (drives delays and fault injection reproducibly). Tenant t
  /// of a fleet is seeded seed + t.
  std::uint64_t seed = support::Rng::kDefaultSeed;
  /// Mint the legitimate token population at startup. Forced on for
  /// non-controller rungs (nothing else would create tokens) unless
  /// manual_tokens is set.
  bool seed_tokens = false;
  /// The caller will place tokens by hand (Engine::inject_message) --
  /// suppress the automatic seeding of non-controller rungs. Used by
  /// scenario reconstructions such as the Figure 3 livelock cycle.
  bool manual_tokens = false;
  /// Fidelity ablations -- see core::Params.
  bool literal_pusher_guard = false;
  bool omit_prio_wrap_count = false;
  /// Worker lanes for the conservative-window parallel engine (see
  /// sim/parallel_engine.hpp); 1 = the serial engine, bit for bit. One
  /// tenant: the tree is cut into `threads` contiguous DFS-preorder
  /// chunks, clamped to [1, min(n, Engine::kMaxLanes)]. A fleet: lanes
  /// take contiguous tenant blocks, clamped to [1, min(R, kMaxLanes)].
  int threads = 1;
  /// Seed the ℓ resource tokens evenly spaced along the virtual ring
  /// (the Euler tour) instead of minting them all into the root's
  /// channel 0. Breaks the boot-time convoy so parallel lanes have
  /// independent work from tick 0; the population is the same legitimate
  /// ℓ + pusher + priority, so the controller census confirms it as-is.
  /// Implies manual seeding (seed_tokens is ignored).
  bool spread_tokens = false;
  /// Copies of the tree on the engine (see the file comment); 1 is the
  /// plain system.
  int tenants = 1;
};

class System : public SystemBase {
 public:
  explicit System(SystemConfig config);

  /// One tenant's tree.
  const tree::Tree& topology() const { return config_.tree; }
  const SystemConfig& config() const { return config_; }

  core::KlProcessBase& node(NodeId id);
  const core::KlProcessBase& node(NodeId id) const;
  /// Tenant 0's root.
  core::RootProcess& root();

 private:
  /// Builds R > 1 tenants: instances, lanes, streams, tokens, census.
  void build_fleet();

  SystemConfig config_;
  std::vector<core::KlProcessBase*> nodes_;  // owned by engine
};

}  // namespace klex
