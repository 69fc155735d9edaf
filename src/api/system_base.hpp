// klex::SystemBase -- the topology-generic exclusion runtime.
//
// Every harness in this repository (the tree protocol, the ring baseline,
// the spanning-tree composition on arbitrary graphs and the multi-tenant
// fleet) wires the same machinery around a protocol: a deterministic
// engine, a listener fan-out, the global token census, transient-fault
// injection and the run / stabilize loops. SystemBase owns all of that
// once; a concrete system only builds its processes and channels (the
// ring also answers message_domains() for garbage injection).
//
// The paper's transient fault and legitimacy predicate are defined per
// protocol instance, so the base carries the instance axis itself: every
// system is a list of tenants, each owning a contiguous range of engine
// nodes, channels and out-channels and its own recovery counter, and all
// sharing params(). A plain system is tenant 0 of one over everything it
// builds; a tree System with SystemConfig::tenants = R opens R identical
// tenants. Faults, the epoch-cut drain, chaos bursts and the per-tenant
// readout are written once against a tenant, and the system-wide calls
// loop over the tenants in order.
//
// Everything a workload, monitor or experiment needs is on this base, so
// the exp::ExperimentRunner (and anything else) can drive any topology
// through one pointer type.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "api/client.hpp"
#include "api/fault.hpp"
#include "core/member_process.hpp"
#include "core/params.hpp"
#include "core/root_process.hpp"
#include "core/state_arena.hpp"
#include "proto/app.hpp"
#include "proto/census.hpp"
#include "proto/messages.hpp"
#include "proto/workload.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"
#include "support/check.hpp"
#include "tree/tree.hpp"

namespace klex::stree {
class Graph;
}  // namespace klex::stree

namespace klex {

using NodeId = proto::NodeId;

class SystemBase : public proto::RequestPort {
 public:
  ~SystemBase() override = default;

  // Non-copyable (processes hold pointers into the system).
  SystemBase(const SystemBase&) = delete;
  SystemBase& operator=(const SystemBase&) = delete;

  // -- accessors --------------------------------------------------------------
  sim::Engine& engine() { return engine_; }
  const sim::Engine& engine() const { return engine_; }

  /// Worker lanes the engine was partitioned into (1 = serial).
  int threads() const { return engine_.lane_count(); }

  /// The window executor driving run_until when threads() > 1; null for
  /// serial systems.
  sim::ParallelEngine* parallel_engine() { return parallel_.get(); }

  /// The SoA arena holding the protocol's hot per-node state; null for
  /// topologies that keep per-process storage (the ring baseline). Fleets
  /// build one arena per tenant; this returns the first.
  const core::ProcessStateArena* state_arena() const {
    return arenas_.empty() ? nullptr : arenas_.front().get();
  }

  int n() const { return static_cast<int>(participants_.size()); }
  int k() const { return params_.k; }
  /// The system-wide resource bound: ℓ per tenant, times the tenants.
  int l() const { return params_.l * tenant_count(); }
  /// Every tenant's finalized params.
  const core::Params& params() const { return params_; }

  /// Registers a protocol listener (may be called at any time).
  void add_listener(proto::Listener* listener);

  /// Registers a simulator observer (message sends/deliveries).
  void add_observer(sim::SimObserver* observer);

  // -- tenants (protocol instances; a plain system is tenant 0 of one) --------
  int tenant_count() const { return static_cast<int>(tenants_.size()); }
  /// Tenant t owns the contiguous engine ids [node_begin(t), node_end(t)).
  NodeId node_begin(int tenant) const { return slot(tenant).node_begin; }
  NodeId node_end(int tenant) const {
    require_tenant(tenant);
    return tenant + 1 < tenant_count() ? node_begin(tenant + 1) : n();
  }
  int tenant_n(int tenant) const {
    return node_end(tenant) - node_begin(tenant);
  }
  /// Tenant t owns engine channels [channel_begin(t), channel_end(t)).
  int channel_begin(int tenant) const { return slot(tenant).chan_begin; }
  int channel_end(int tenant) const {
    require_tenant(tenant);
    return tenant + 1 < tenant_count() ? channel_begin(tenant + 1)
                                       : engine_.channel_count();
  }
  /// Tenant owning engine node `node` (O(1): streams store it).
  int tenant_of(NodeId node) const { return engine_.stream_of(node); }

  /// The live per-tenant legitimacy predicate, O(1) (never scans the
  /// other tenants).
  bool tenant_correct(int tenant) const;
  /// When the tenant's current correct stretch began, as observed by the
  /// last run_until_stabilized loop (kTimeInfinity while incorrect).
  /// Meaningful after run_until_stabilized; tenant_correct is the
  /// always-live predicate.
  sim::SimTime tenant_stabilized_at(int tenant) const {
    require_tenant(tenant);
    return correct_since_[static_cast<std::size_t>(tenant)];
  }
  /// Events the engine executed on behalf of this tenant.
  std::uint64_t tenant_events_executed(int tenant) const {
    return engine_.events_executed_in(tenant);
  }
  /// Epoch-cut recoveries performed for this tenant (fault isolation's
  /// observable: a fault in tenant a leaves every other tenant at 0).
  std::int64_t tenant_recovery_events(int tenant) const {
    require_tenant(tenant);
    return slot(tenant).recoveries;
  }
  /// Messages of `type` sent on behalf of this tenant.
  std::uint64_t tenant_sent_of_type(int tenant, std::int32_t type) const {
    return engine_.sent_of_type_in(tenant, type);
  }

  /// Chaos burst scoped to one tenant: the episode's adversarial config
  /// overrides the steady one on exactly that tenant's channels (they
  /// are engine-contiguous) for `duration` ticks; other tenants' links
  /// keep their steady behavior. Requires a ChaosModel
  /// (SystemBuilder::chaos or kChaosBurst plan events).
  void chaos_burst_tenant(int tenant, const sim::ChaosConfig& config,
                          sim::SimTime duration);

  // -- client sessions ---------------------------------------------------------
  /// The per-node Client sessions (lazily created and wired into the
  /// listener fan-out on first use). This is the intended application
  /// surface; the raw RequestPort below is the internal SPI.
  ClientPool& clients();

  /// How RequestPort misuse (request while not Out, release while not
  /// In, need out of range) and Client misuse are handled. kCheck (the
  /// default) throws; kClamp coerces what it can and drops the rest;
  /// kIgnore drops silently. Applies to the existing pool too.
  void set_misuse_policy(MisusePolicy policy);
  MisusePolicy misuse_policy() const { return misuse_policy_; }

  /// Admission bounds enforced at the request boundary: requests that
  /// would exceed them are refused -- Client::acquire surfaces the
  /// refusal as DenyReason::kOverloaded, raw request() drops it -- so a
  /// degraded system sheds load instead of growing its wait queue
  /// without bound. Default: admit everything.
  void set_admission_policy(const proto::AdmissionPolicy& policy) {
    admission_policy_ = policy;
  }
  const proto::AdmissionPolicy& admission_policy() const {
    return admission_policy_;
  }

  // -- proto::RequestPort ------------------------------------------------------
  void request(NodeId node, int need) override;
  void release(NodeId node) override;
  proto::AppState state_of(NodeId node) const override;
  int need_of(NodeId node) const override;
  bool admit(NodeId node, int need) const override;

  // -- execution ---------------------------------------------------------------
  void run_until(sim::SimTime t);
  bool run_until_message_quiescence(std::uint64_t max_events);

  /// Runs the simulation until the token population has been correct for a
  /// confirmation window of `poll * consecutive` ticks, or `deadline`
  /// passes. Detection is event-driven over the incremental census: the
  /// correct/incorrect edge is re-evaluated (a few integer compares, no
  /// walk) after every event, and the returned time is the exact simulated
  /// time of the census transition that started the confirmed-correct
  /// stretch -- not a poll-grid rounding of it. Returns kTimeInfinity if
  /// the window cannot complete by `deadline` (the clock is still advanced
  /// to the deadline, like the historical poll loop).
  ///
  /// The (poll, consecutive) pair is kept from the polling era so existing
  /// call sites confirm over the same ~poll*consecutive horizon they
  /// always did; they no longer quantize the reported time.
  ///
  /// The loop advances in rounds: wherever the engine runs spans
  /// (Engine::runs_spans) it runs every tenant through a horizon the
  /// merged (at, seq) loop is certain to pass, probes each tenant after
  /// each of its events, and replays the recorded edges in (at, seq)
  /// order. A one-tenant system is probed by the global predicate, a
  /// fleet's tenants by CensusTracker::correct_of. The tick
  /// where the loop may stop after any single event, and every advance of
  /// an engine that runs merged, is one step(). Either way the result,
  /// clock and executed events are those of the merged loop.
  sim::SimTime run_until_stabilized(sim::SimTime deadline,
                                    sim::SimTime poll = 64,
                                    int consecutive = 3);

  // -- observation / faults ------------------------------------------------------
  /// O(1): assembled from the incrementally maintained tracker.
  proto::TokenCensus census() const;
  /// O(channels + n) full-walk oracle; tests cross-check it against
  /// census(), production loops should never need it.
  proto::TokenCensus census_oracle() const;
  bool token_counts_correct() const;
  const proto::CensusTracker& census_tracker() const { return tracker_; }

  /// Transient fault: randomizes every process's protocol variables
  /// in-domain and replaces every channel's content with arbitrary
  /// well-formed messages -- up to CMAX per channel (drawn uniformly)
  /// when `garbage_per_channel` is the default -1, or exactly
  /// `garbage_per_channel` each otherwise (the CMAX-violation ablation).
  /// The tenant-scoped fault applied to every tenant in order, so each
  /// tenant's garbage comes from its own message domains.
  void inject_transient_fault(support::Rng& rng, int garbage_per_channel = -1);

  /// Transient fault scoped to one tenant: randomizes that tenant's
  /// process variables in-domain and replaces its channels' content with
  /// well-formed garbage (up to CMAX per channel when `garbage_per_channel`
  /// is -1). Every other tenant's processes, channels and census are
  /// untouched.
  void inject_transient_fault_tenant(int tenant, support::Rng& rng,
                                     int garbage_per_channel = -1);

  /// Pure channel-garbage fault: wipes every channel, then preloads each
  /// with exactly `garbage_per_channel` random well-formed messages, tenant
  /// by tenant. Process memory is untouched (contrast
  /// inject_transient_fault).
  void flood_channels(support::Rng& rng, int garbage_per_channel);

  /// The flood scoped to one tenant: wipes and preloads only that
  /// tenant's channels.
  void flood_channels_tenant(int tenant, support::Rng& rng,
                             int garbage_per_channel);

  /// Epoch-cut batched recovery drain (requires Features::epoch_cut; see
  /// the Features comment), applied to every tenant whose census is
  /// illegitimate; false when every tenant already is legitimate.
  bool epoch_cut_recover();

  /// Epoch-cut drain for one tenant (requires its rung to have
  /// Features::epoch_cut). If the tenant's census already is legitimate
  /// this is a no-op returning false. Otherwise it performs the one
  /// batched O(tenant size) pass -- wipe the tenant's channels, drain
  /// its processes' stored tokens, re-boot its root (fresh census
  /// machinery, fresh token mint, restarted controller) -- and returns
  /// true. The garbage population is absorbed in O(n) work instead of
  /// circulating for Θ(n) ticks through the protocol's own reset; other
  /// tenants' tokens keep circulating.
  bool epoch_cut_recover_tenant(int tenant);

  /// Applies a topology fault (FaultKind::kLinkChurn / kNodeCrash) and
  /// runs the online spanning-tree repair: rebuild the overlay over the
  /// surviving graph, migrate per-node state, drain orphaned tokens and
  /// re-mint from the root. Only a live GraphSystem implements it; every
  /// other topology refuses (the wiring is the tree, there is nothing to
  /// reroute over).
  virtual TopologyFaultResult apply_topology_fault(const FaultEvent& event,
                                                   support::Rng& rng);

  /// Applies the harness-side parameter defaults shared by every topology:
  /// derives the controller timeout when unset and forces token seeding for
  /// non-controller rungs (nothing else would mint tokens) unless the
  /// caller wants to place tokens by hand.
  static core::Params finalize_params(core::Params params, bool manual_tokens,
                                      sim::SimTime derived_timeout);

 protected:
  SystemBase(core::Params params, sim::DelayModel delays, std::uint64_t seed);

  /// Registers a process that participates in the exclusion protocol; the
  /// engine id is the registration index. Returns a raw pointer (the
  /// engine owns the process).
  template <typename ProcessT>
  ProcessT* add_node(std::unique_ptr<ProcessT> process) {
    ProcessT* raw = process.get();
    participants_.push_back(raw);
    census_participants_.push_back(raw);
    // Pristine at registration (empty RSet, Prio = ⊥), so the tracker's
    // zero-initialized aggregate is exact from the first delta on.
    raw->attach_deltas(&tracker_);
    engine_.add_process(std::move(process));
    return raw;
  }

  /// connect() plus out-channel bookkeeping for fault injection: garbage
  /// is later injected per out-channel in registration order, which keeps
  /// the rng draw order identical to the historical per-topology loops.
  void connect_nodes(NodeId from, int from_channel, NodeId to, int to_channel);

  /// Builds the paper's tree protocol (Algorithms 1 & 2) over `tree` and
  /// wires every channel; shared by the tree system and the spanning-tree
  /// composition. Engine ids equal tree node ids. The per-node protocol
  /// state lands in the shared SoA arena (state_arena.hpp); `node_lane`
  /// (empty = serial) partitions both the engine and the arena slots, and
  /// `lane_count` > 1 attaches the conservative-window ParallelEngine.
  ///
  /// When `physical` is non-null (the live-topology mode) the engine is
  /// wired over every *physical* graph link (engine channel c = graph
  /// adjacency index c) while the protocol keeps logical tree channels;
  /// each process gets the logical<->physical translation maps and its
  /// arena slot is sized for the physical degree, so a later repair can
  /// rebind any overlay the surviving graph supports without moving
  /// storage. `physical` must have the same node ids as `tree` and
  /// contain every tree edge.
  std::vector<core::KlProcessBase*> build_tree_protocol(
      const tree::Tree& tree, const std::vector<int>& node_lane = {},
      int lane_count = 1, const stree::Graph* physical = nullptr);

  /// Tenant-capable variant: builds one protocol instance over `tree`
  /// at engine ids `id_base .. id_base + tree.size() - 1` (id_base must
  /// equal the current process count, so instances append contiguously).
  /// Each call owns a fresh arena. The plain overload above is
  /// `build_tree_instance(tree, 0, ...)` with lane plumbing; a fleet calls
  /// this once per tenant and wires lanes and streams afterwards.
  std::vector<core::KlProcessBase*> build_tree_instance(
      const tree::Tree& tree, NodeId id_base,
      const std::vector<int>& node_lane = {},
      const stree::Graph* physical = nullptr);

  /// Injects the legitimate population of the protocol instance over
  /// `tree` at engine ids id_base + v: the ℓ resource tokens evenly spaced
  /// along the tree's virtual ring (its Euler tour), then the pusher and
  /// the priority token on the root's channel 0 where the rung circulates
  /// them. The injections are the first draws of each channel rng, so
  /// their order is part of the trajectory.
  void spread_seed_tokens(const tree::Tree& tree, NodeId id_base);

  /// Opens tenant tenant_count() at the current end of the node, channel
  /// and out-channel lists. The constructor opens tenant 0 over the empty
  /// lists.
  void open_tenant();

  void require_tenant(int tenant) const {
    KLEX_REQUIRE(tenant >= 0 && tenant < tenant_count(), "bad tenant ",
                 tenant);
  }

  /// Domains for random_message() during transient-fault injection into
  /// `tenant`. The default covers the tree-protocol topologies (myC domain
  /// of 2(n−1)(CMAX+1)+1 values over the tenant's n); the ring overrides
  /// with its n(CMAX+1)+1 domain.
  virtual proto::MessageDomains message_domains(int tenant) const;

  core::Params params_;
  proto::ListenerSet listeners_;
  // SoA protocol state, one arena per protocol instance (single systems:
  // exactly one); declared before engine_ (which owns the process objects
  // holding references into the arenas) so it is destroyed last.
  std::vector<std::unique_ptr<core::ProcessStateArena>> arenas_;
  sim::Engine engine_;
  // Window executor for threads() > 1; declared after engine_ so its
  // worker threads join before the engine is torn down.
  std::unique_ptr<sim::ParallelEngine> parallel_;
  // Incremental census (engine per-type counters + participant deltas);
  // declared after engine_ so it can hold a pointer to it at construction.
  proto::CensusTracker tracker_;
  std::vector<proto::ExclusionParticipant*> participants_;
  // The same pointers as const, prebuilt for the full-walk census oracle.
  std::vector<const proto::ExclusionParticipant*> census_participants_;
  std::vector<std::pair<sim::NodeId, int>> out_channels_;
  MisusePolicy misuse_policy_ = MisusePolicy::kCheck;
  proto::AdmissionPolicy admission_policy_;  // default: admit everything
  std::unique_ptr<ClientPool> clients_;  // lazily created by clients()

  // run_until_stabilized's probe state, one entry per tenant: the last
  // probed legitimacy flag and the start of the tenant's current correct
  // stretch (kTimeInfinity while incorrect).
  std::vector<char> tenant_ok_;
  int incorrect_tenants_ = 0;
  std::vector<sim::SimTime> correct_since_;

 private:
  /// One protocol instance: where its node, channel and out-channel
  /// ranges begin (each ends where the next tenant's begins, the last
  /// tenant's at the current totals) and its drain count.
  struct Tenant {
    NodeId node_begin = 0;
    int chan_begin = 0;
    int out_begin = 0;
    std::int64_t recoveries = 0;
  };

  /// Every tenant accessor goes through here, so a bad tenant throws
  /// instead of reading past tenants_.
  const Tenant& slot(int tenant) const {
    require_tenant(tenant);
    return tenants_[static_cast<std::size_t>(tenant)];
  }
  int out_end(int tenant) const {
    require_tenant(tenant);
    return tenant + 1 < tenant_count() ? slot(tenant + 1).out_begin
                                       : static_cast<int>(out_channels_.size());
  }

  /// Preloads each of the tenant's out-channels with `garbage_per_channel`
  /// random well-formed messages of its domains (-1: up to CMAX each,
  /// drawn uniformly).
  void inject_garbage(int tenant, support::Rng& rng, int garbage_per_channel);

  /// One tenant's census edge seen by a stabilization round.
  struct Edge {
    sim::SimTime at = 0;
    std::uint64_t seq = 0;
    int tenant = -1;
    bool correct = false;
  };

  /// run_until_stabilized with its per-event probe (tenant -> legitimate)
  /// fixed for the whole call.
  template <typename Probe>
  sim::SimTime stabilize(sim::SimTime deadline, sim::SimTime window,
                         Probe probe);

  /// Applies the edges one advance of stabilize recorded, in (at, seq)
  /// order, to the fleet-wide stretch (`correct`, `since`). True when the
  /// merged loop gives up at one of them (a correct stretch that cannot
  /// be confirmed by `deadline`); the flags of the edges after it are
  /// rolled back, as the merged loop would never have probed them.
  bool replay_edges(sim::SimTime deadline, sim::SimTime window, bool* correct,
                    sim::SimTime* since);

  std::vector<Tenant> tenants_;
  std::vector<Edge> edges_;  // recorded by one advance of stabilize
};

}  // namespace klex
