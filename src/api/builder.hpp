// klex::SystemBuilder -- the one declarative construction path.
//
// Every scenario in this repository is a point in the same space:
// a topology (tree / ring / arbitrary graph), the protocol parameters
// (k, ℓ, ladder rung, CMAX, delays, seed), a workload (base behavior +
// named behavior classes), and a fault plan. SystemBuilder names each
// axis once and materializes the whole point:
//
//   auto system = klex::SystemBuilder()
//                     .topology(klex::TopologySpec::tree_balanced(2, 3))
//                     .kl(2, 5)
//                     .seed(42)
//                     .build();
//
//   klex::Session session = klex::SystemBuilder()
//                               .topology(klex::TopologySpec::ring(16))
//                               .kl(2, 3)
//                               .workload(spec)   // classes → NodeBehaviors
//                               .fault(klex::FaultKind::kTransient)
//                               .build_session();
//
// The exp::ExperimentRunner, every bench and every example construct
// systems exclusively through this builder; SystemConfig /
// GraphSystemConfig / ring::RingConfig remain as the topology-specific
// spellings underneath it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "api/client.hpp"
#include "api/fault.hpp"
#include "api/system_base.hpp"
#include "api/topology.hpp"
#include "api/workload_driver.hpp"
#include "proto/workload.hpp"
#include "stree/graph.hpp"
#include "tree/tree.hpp"

namespace klex {

// FaultKind, FaultEvent and FaultPlan live in api/fault.hpp (shared with
// SystemBase); the spellings klex::FaultKind / klex::FaultPlan used
// throughout the harnesses are unchanged.

/// A built system together with its materialized workload: the driver is
/// wired over the system's Client sessions but not yet started (call
/// begin_workload() once the measurement should begin).
struct Session {
  std::unique_ptr<SystemBase> system;
  proto::MaterializedWorkload workload;
  std::unique_ptr<WorkloadDriver> driver;  // null without a workload()
  /// Fault schedule: SystemBuilder::fault_plan, or the single
  /// SystemBuilder::fault folded into a one-event plan at offset 0. The
  /// session does not time the events itself -- the experiment loop (or
  /// any caller) advances the engine to each event's time and calls
  /// apply_fault_event; `at` is carried here so the schedule travels with
  /// the session.
  FaultPlan fault_plan;

  void begin_workload();

  /// Executes one fault event, the only path that applies faults.
  /// Without a `tenant` it hits every tenant through the whole-system
  /// calls. With tenant t it hits t alone through t's primitives: the
  /// tenant-scoped transient fault, flood, channel wipe and chaos burst
  /// (whose explicit `links` then name tenant-local endpoints), t's epoch
  /// cut and a resync of t's driver sessions; a target that covers every
  /// tenant (tenant 0 of a one-tenant system) is the whole-system call.
  /// Transient, channel-wipe and garbage-flood events are followed --
  /// when the system runs the epoch-cut rung (Features::epoch_cut) and
  /// the fault left a targeted tenant illegitimate -- by the batched
  /// epoch-cut recovery drain (the O(1) census detects the fault the
  /// moment it is injected; the drain models the management plane
  /// reacting to that detection). Topology kinds (kLinkChurn /
  /// kNodeCrash) run the live GraphSystem's online repair and return its
  /// cost breakdown; kChaosBurst opens the adversarial episode (on the
  /// epoch-cut rung each targeted tenant's cut is deferred to burst end,
  /// as a callback in that tenant's stream). The driver's sessions are
  /// resynced whenever protocol or topology state changed. No-op for
  /// FaultKind::kNone.
  TopologyFaultResult apply_fault_event(const FaultEvent& event,
                                        support::Rng& rng,
                                        std::optional<int> tenant = {});
};

class SystemBuilder {
 public:
  // -- topology (exactly one) --------------------------------------------------
  SystemBuilder& topology(const TopologySpec& spec);
  /// An explicit oriented tree (shapes outside the TopologySpec families,
  /// e.g. tree::random_tree_bounded_degree).
  SystemBuilder& tree(tree::Tree t);
  /// An explicit connected graph, run over its BFS spanning tree.
  SystemBuilder& graph(stree::Graph g);

  // -- protocol parameters -----------------------------------------------------
  SystemBuilder& kl(int k, int l);
  SystemBuilder& features(proto::Features f);
  SystemBuilder& cmax(int c);
  SystemBuilder& delays(sim::DelayModel d);
  SystemBuilder& timeout_period(sim::SimTime t);
  SystemBuilder& seed(std::uint64_t s);
  SystemBuilder& seed_tokens(bool on = true);
  /// Worker lanes for the conservative-window parallel engine (1 =
  /// serial; clamped to the topology size and Engine::kMaxLanes).
  SystemBuilder& threads(int count);
  /// Tree topologies only: seed the ℓ resources evenly spaced along the
  /// Euler tour instead of as a convoy out of the root (see
  /// SystemConfig::spread_tokens).
  SystemBuilder& spread_tokens(bool on = true);
  /// Multi-tenant fleet (SystemConfig::tenants): build() returns a System
  /// running `tenants` identical copies of the configured tree topology,
  /// with every configured knob, on one shared engine; tenant t is
  /// seeded seed + t, so its trajectory replays the one-tenant system
  /// built with that seed. Tree topologies only; fleet(1) is the plain
  /// system.
  SystemBuilder& fleet(int tenants);
  SystemBuilder& manual_tokens(bool on = true);
  SystemBuilder& literal_pusher_guard(bool on = true);
  SystemBuilder& omit_prio_wrap_count(bool on = true);
  SystemBuilder& misuse_policy(MisusePolicy policy);
  /// Steady-state adversarial-channel behavior (sim::ChaosModel): every
  /// link drops / duplicates / reorders / jitters per `config` for the
  /// whole run. The model is attached only when the config is non-trivial
  /// or the fault plan schedules kChaosBurst events; otherwise the build
  /// is bit-identical to one that never mentioned chaos.
  SystemBuilder& chaos(const sim::ChaosConfig& config);
  /// Degraded-mode client policy: denial backoff / jitter / attempt cap /
  /// retry budget / per-acquire deadline applied by the session driver
  /// (build_session only). The default reproduces the historical
  /// behavior exactly.
  SystemBuilder& retry_policy(const proto::RetryPolicy& policy);
  /// Degraded-mode admission bounds enforced at SystemBase::request:
  /// requests beyond them fast-fail with DenyReason::kOverloaded.
  SystemBuilder& admission_policy(const proto::AdmissionPolicy& policy);

  // -- graph-composition phase -------------------------------------------------
  SystemBuilder& beacon_period(sim::SimTime t);
  SystemBuilder& spanning_tree_deadline(sim::SimTime t);

  // -- workload / fault plan (build_session only) ------------------------------
  SystemBuilder& workload(proto::WorkloadSpec spec);
  /// The single post-measurement fault (transient, channel wipe or
  /// garbage flood): build_session folds it into a one-event fault plan
  /// at offset 0 (Session::fault_plan).
  SystemBuilder& fault(FaultKind kind);
  /// Garbage messages per channel for fault() (FaultEvent::garbage).
  SystemBuilder& fault_garbage(int per_channel);
  /// Staged schedule of timed fault events (generalizes the single
  /// post-measurement fault(); the two are mutually exclusive). A plan
  /// containing topology events (kLinkChurn / kNodeCrash) implies
  /// live_topology().
  SystemBuilder& fault_plan(FaultPlan plan);
  /// Builds the graph topology in live mode: the engine is wired over
  /// every physical link so topology faults can be applied and repaired
  /// at runtime (graph topologies only; see GraphSystemConfig).
  SystemBuilder& live_topology(bool on = true);

  /// Materializes the system alone.
  std::unique_ptr<SystemBase> build() const;

  /// Materializes the system plus its workload: behaviors are expanded
  /// from the workload spec (deterministically from the seed), and a
  /// WorkloadDriver is wired over the system's Client sessions.
  Session build_session() const;

 private:
  enum class TopoKind { kUnset, kSpec, kTree, kGraph };

  /// Attaches the ChaosModel when the steady config is non-trivial or
  /// the fault plan schedules kChaosBurst events (no-op otherwise).
  void attach_chaos(SystemBase& system) const;

  TopoKind topo_kind_ = TopoKind::kUnset;
  TopologySpec spec_{};
  std::optional<tree::Tree> tree_;
  std::optional<stree::Graph> graph_;

  int k_ = 1;
  int l_ = 1;
  proto::Features features_ = proto::Features::full();
  int cmax_ = 4;
  sim::DelayModel delays_{};
  sim::SimTime timeout_period_ = 0;
  std::uint64_t seed_ = support::Rng::kDefaultSeed;
  bool seed_tokens_ = false;
  int threads_ = 1;
  int tenants_ = 1;
  bool spread_tokens_ = false;
  bool manual_tokens_ = false;
  bool literal_pusher_guard_ = false;
  bool omit_prio_wrap_count_ = false;
  MisusePolicy misuse_policy_ = MisusePolicy::kCheck;
  proto::RetryPolicy retry_policy_{};
  proto::AdmissionPolicy admission_policy_{};
  sim::ChaosConfig chaos_{};
  sim::SimTime beacon_period_ = 256;
  sim::SimTime spanning_tree_deadline_ = 4'000'000;

  std::optional<proto::WorkloadSpec> workload_;
  FaultKind fault_ = FaultKind::kNone;
  int fault_garbage_ = -1;
  FaultPlan fault_plan_{};
  bool live_topology_ = false;
};

}  // namespace klex
