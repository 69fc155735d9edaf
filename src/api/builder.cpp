#include "api/builder.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "api/graph_system.hpp"
#include "api/system.hpp"
#include "ring/ring_system.hpp"
#include "support/check.hpp"

namespace klex {

namespace {

// Derived rng streams: the system seed drives delays and faults; the
// workload materialization and the driver must not share its sequence.
constexpr std::uint64_t kClassSalt = 0xC1A55ull;
constexpr std::uint64_t kDriverSalt = 0xABCDull;
// Cross-tenant class membership (materialize_fleet) draws from its own
// stream so adding a cross class never perturbs per-tenant assignment.
constexpr std::uint64_t kCrossTenantSalt = 0xC705ull;

/// The tree a tree-kind spec names; nullopt for ring and graph kinds.
std::optional<tree::Tree> spec_tree(const TopologySpec& spec) {
  using Kind = TopologySpec::Kind;
  switch (spec.kind) {
    case Kind::kTreeLine: return tree::line(spec.n);
    case Kind::kTreeStar: return tree::star(spec.n);
    case Kind::kTreeBalanced: return tree::balanced(spec.a, spec.b);
    case Kind::kTreeCaterpillar: return tree::caterpillar(spec.a, spec.b);
    case Kind::kTreeRandom: {
      support::Rng topo_rng(static_cast<std::uint64_t>(spec.a));
      return tree::random_tree(spec.n, topo_rng);
    }
    case Kind::kTreeFigure1: return tree::figure1_tree();
    default: return std::nullopt;
  }
}

}  // namespace

void Session::begin_workload() {
  KLEX_REQUIRE(driver != nullptr,
               "session has no workload (SystemBuilder::workload not set)");
  driver->begin();
}

TopologyFaultResult Session::apply_fault_event(const FaultEvent& event,
                                               support::Rng& rng,
                                               std::optional<int> tenant) {
  SystemBase& sys = *system;
  // The targeted tenants [first, last); each tenant-scoped call below
  // checks them (topology faults repair the one-tenant live graph system
  // as a whole). The system-wide transient fault, flood and epoch cut
  // are these same per-tenant calls in tenant order, and a channel range
  // over every tenant is clear_channels().
  const int first = tenant.value_or(0);
  const int last = tenant ? first + 1 : sys.tenant_count();
  const bool whole = first == 0 && last == sys.tenant_count();
  TopologyFaultResult result;
  bool state_changed = false;
  switch (event.kind) {
    case FaultKind::kNone:
      return result;
    case FaultKind::kTransient:
      for (int t = first; t < last; ++t) {
        sys.inject_transient_fault_tenant(t, rng, event.garbage);
      }
      state_changed = true;
      break;
    case FaultKind::kChannelWipe:
      sys.engine().clear_channel_range(sys.channel_begin(first),
                                       sys.channel_end(last - 1));
      break;
    case FaultKind::kGarbageFlood:
      KLEX_REQUIRE(event.garbage >= 0,
                   "kGarbageFlood events need an explicit garbage count");
      for (int t = first; t < last; ++t) {
        sys.flood_channels_tenant(t, rng, event.garbage);
      }
      break;
    case FaultKind::kLinkChurn:
    case FaultKind::kNodeCrash:
      // The repair performs its own epoch-cut (drain + re-mint) with the
      // state migration spliced in between; do not cut again on top.
      result = sys.apply_topology_fault(event, rng);
      if (driver != nullptr) driver->resync();
      return result;
    case FaultKind::kChaosBurst: {
      sim::Engine& engine = sys.engine();
      KLEX_REQUIRE(engine.has_chaos(),
                   "kChaosBurst event on a system without a ChaosModel "
                   "(build this session through SystemBuilder with the "
                   "burst in its fault_plan)");
      if (!event.links.empty()) {
        // A targeted burst names tenant-local endpoints.
        const NodeId base = sys.node_begin(first);
        std::vector<std::pair<int, int>> links = event.links;
        for (auto& link : links) link = {link.first + base, link.second + base};
        engine.chaos_burst_links(links, event.chaos, event.duration);
      } else if (whole) {
        engine.chaos_burst(event.chaos, event.duration);
      } else {
        sys.chaos_burst_tenant(first, event.chaos, event.duration);
      }
      // The burst's damage is in-model and accumulates over the episode,
      // so an immediate epoch cut would fire before anything is wrong.
      // On the full+cut rung, defer each tenant's cut to burst end, in
      // that tenant's stream: by then every drop/duplication has landed
      // in the census, and the drain erases whatever imbalance the
      // episode minted. Raw pointers are safe -- the Session outlives
      // the run that executes the callbacks.
      if (sys.params().features.epoch_cut && event.duration > 0) {
        SystemBase* raw_system = system.get();
        WorkloadDriver* raw_driver = driver.get();
        for (int t = first; t < last; ++t) {
          engine.schedule_in_stream(t, event.duration, [=] {
            if (raw_system->epoch_cut_recover_tenant(t) &&
                raw_driver != nullptr) {
              raw_driver->resync(raw_system->node_begin(t),
                                 raw_system->node_end(t));
            }
          });
        }
      }
      // No immediate cut and no resync: protocol state is untouched at
      // injection time.
      return result;
    }
  }
  if (sys.params().features.epoch_cut) {
    for (int t = first; t < last; ++t) {
      state_changed = sys.epoch_cut_recover_tenant(t) || state_changed;
    }
  }
  if (driver != nullptr && state_changed) {
    driver->resync(sys.node_begin(first), sys.node_end(last - 1));
  }
  return result;
}

SystemBuilder& SystemBuilder::topology(const TopologySpec& spec) {
  KLEX_REQUIRE(topo_kind_ == TopoKind::kUnset, "topology already set");
  topo_kind_ = TopoKind::kSpec;
  spec_ = spec;
  return *this;
}

SystemBuilder& SystemBuilder::tree(tree::Tree t) {
  KLEX_REQUIRE(topo_kind_ == TopoKind::kUnset, "topology already set");
  topo_kind_ = TopoKind::kTree;
  tree_ = std::move(t);
  return *this;
}

SystemBuilder& SystemBuilder::graph(stree::Graph g) {
  KLEX_REQUIRE(topo_kind_ == TopoKind::kUnset, "topology already set");
  topo_kind_ = TopoKind::kGraph;
  graph_ = std::move(g);
  return *this;
}

SystemBuilder& SystemBuilder::kl(int k, int l) {
  k_ = k;
  l_ = l;
  return *this;
}

SystemBuilder& SystemBuilder::features(proto::Features f) {
  features_ = f;
  return *this;
}

SystemBuilder& SystemBuilder::cmax(int c) {
  cmax_ = c;
  return *this;
}

SystemBuilder& SystemBuilder::delays(sim::DelayModel d) {
  delays_ = d;
  return *this;
}

SystemBuilder& SystemBuilder::timeout_period(sim::SimTime t) {
  timeout_period_ = t;
  return *this;
}

SystemBuilder& SystemBuilder::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

SystemBuilder& SystemBuilder::seed_tokens(bool on) {
  seed_tokens_ = on;
  return *this;
}

SystemBuilder& SystemBuilder::threads(int count) {
  KLEX_REQUIRE(count >= 1, "need at least one thread");
  threads_ = count;
  return *this;
}

SystemBuilder& SystemBuilder::spread_tokens(bool on) {
  spread_tokens_ = on;
  return *this;
}

SystemBuilder& SystemBuilder::fleet(int tenants) {
  KLEX_REQUIRE(tenants >= 1, "a fleet needs at least one tenant");
  tenants_ = tenants;
  return *this;
}

SystemBuilder& SystemBuilder::manual_tokens(bool on) {
  manual_tokens_ = on;
  return *this;
}

SystemBuilder& SystemBuilder::literal_pusher_guard(bool on) {
  literal_pusher_guard_ = on;
  return *this;
}

SystemBuilder& SystemBuilder::omit_prio_wrap_count(bool on) {
  omit_prio_wrap_count_ = on;
  return *this;
}

SystemBuilder& SystemBuilder::misuse_policy(MisusePolicy policy) {
  misuse_policy_ = policy;
  return *this;
}

SystemBuilder& SystemBuilder::chaos(const sim::ChaosConfig& config) {
  // Validate at the setter even though a disabled config is never
  // attached: a typo'd negative probability has enabled() == false and
  // would otherwise silently build a chaos-free system.
  sim::validate_chaos(config);
  chaos_ = config;
  return *this;
}

SystemBuilder& SystemBuilder::retry_policy(const proto::RetryPolicy& policy) {
  retry_policy_ = policy;
  return *this;
}

SystemBuilder& SystemBuilder::admission_policy(
    const proto::AdmissionPolicy& policy) {
  admission_policy_ = policy;
  return *this;
}

SystemBuilder& SystemBuilder::beacon_period(sim::SimTime t) {
  beacon_period_ = t;
  return *this;
}

SystemBuilder& SystemBuilder::spanning_tree_deadline(sim::SimTime t) {
  spanning_tree_deadline_ = t;
  return *this;
}

SystemBuilder& SystemBuilder::workload(proto::WorkloadSpec spec) {
  workload_ = std::move(spec);
  return *this;
}

SystemBuilder& SystemBuilder::fault(FaultKind kind) {
  fault_ = kind;
  return *this;
}

SystemBuilder& SystemBuilder::fault_garbage(int per_channel) {
  fault_garbage_ = per_channel;
  return *this;
}

SystemBuilder& SystemBuilder::fault_plan(FaultPlan plan) {
  fault_plan_ = std::move(plan);
  return *this;
}

SystemBuilder& SystemBuilder::live_topology(bool on) {
  live_topology_ = on;
  return *this;
}

std::unique_ptr<SystemBase> SystemBuilder::build() const {
  KLEX_REQUIRE(topo_kind_ != TopoKind::kUnset,
               "SystemBuilder needs a topology");

  // A plan with topology events needs the physical wiring even if the
  // caller never said live_topology() -- the repair cannot reroute over
  // channels that were never connected.
  const bool live = live_topology_ || fault_plan_.has_topology_events();

  // The knobs every topology's config shares; new builder knobs belong
  // here once, not in each per-topology block.
  auto apply_common = [this](auto& config) {
    config.k = k_;
    config.l = l_;
    config.features = features_;
    config.cmax = cmax_;
    config.delays = delays_;
    config.timeout_period = timeout_period_;
    config.seed = seed_;
    config.seed_tokens = seed_tokens_;
    config.threads = threads_;
  };
  auto make_tree_system =
      [&, this](tree::Tree t) -> std::unique_ptr<SystemBase> {
    KLEX_REQUIRE(!live,
                 "topology churn requires a graph topology (a tree has no "
                 "redundant links to reroute over)");
    SystemConfig config;
    config.tree = std::move(t);
    apply_common(config);
    config.tenants = tenants_;
    config.spread_tokens = spread_tokens_;
    config.manual_tokens = manual_tokens_;
    config.literal_pusher_guard = literal_pusher_guard_;
    config.omit_prio_wrap_count = omit_prio_wrap_count_;
    return std::make_unique<System>(std::move(config));
  };
  // Tenants are copies of a tree; ring and graph systems have one.
  auto require_one_tenant = [this] {
    KLEX_REQUIRE(tenants_ == 1,
                 "fleet() needs a tree topology (ring / graph fleets are "
                 "not supported)");
  };
  auto make_graph_system =
      [&, this](stree::Graph g) -> std::unique_ptr<SystemBase> {
    require_one_tenant();
    KLEX_REQUIRE(!spread_tokens_,
                 "spread_tokens() is tree-topology only (the overlay tour "
                 "is not known to the builder)");
    GraphSystemConfig config;
    config.graph = std::move(g);
    apply_common(config);
    config.beacon_period = beacon_period_;
    config.spanning_tree_deadline = spanning_tree_deadline_;
    config.live_topology = live;
    return std::make_unique<GraphSystem>(std::move(config));
  };
  auto make_ring_system = [&](int n) -> std::unique_ptr<SystemBase> {
    require_one_tenant();
    KLEX_REQUIRE(!spread_tokens_, "spread_tokens() is tree-topology only");
    KLEX_REQUIRE(!live,
                 "topology churn requires a graph topology (the ring "
                 "baseline has no spanning-tree layer to repair)");
    ring::RingConfig config;
    config.n = n;
    apply_common(config);
    return std::make_unique<ring::RingSystem>(config);
  };

  std::unique_ptr<SystemBase> system;
  switch (topo_kind_) {
    case TopoKind::kUnset:
      KLEX_CHECK(false, "unreachable");
      break;
    case TopoKind::kTree:
      system = make_tree_system(*tree_);
      break;
    case TopoKind::kGraph:
      system = make_graph_system(*graph_);
      break;
    case TopoKind::kSpec: {
      if (std::optional<tree::Tree> t = spec_tree(spec_)) {
        system = make_tree_system(*std::move(t));
        break;
      }
      using Kind = TopologySpec::Kind;
      switch (spec_.kind) {
        case Kind::kRing:
          system = make_ring_system(spec_.n);
          break;
        case Kind::kGraphGrid:
          system = make_graph_system(stree::grid(spec_.a, spec_.b));
          break;
        case Kind::kGraphCycle:
          system = make_graph_system(stree::cycle_graph(spec_.n));
          break;
        case Kind::kGraphRandom: {
          support::Rng topo_rng(static_cast<std::uint64_t>(spec_.b));
          system = make_graph_system(
              stree::random_connected(spec_.n, spec_.a, topo_rng));
          break;
        }
        case Kind::kGraphComplete:
          system = make_graph_system(stree::complete_graph(spec_.n));
          break;
        default:  // the tree kinds, handled above
          break;
      }
      break;
    }
  }
  KLEX_CHECK(system != nullptr, "builder produced no system");
  system->set_misuse_policy(misuse_policy_);
  system->set_admission_policy(admission_policy_);
  attach_chaos(*system);
  return system;
}

void SystemBuilder::attach_chaos(SystemBase& system) const {
  // Attach only when something will actually use the model: a non-trivial
  // steady config, or a plan that schedules bursts (which may ride on an
  // all-zero steady config; the model must exist before start). A
  // zero-config model changes no trajectory -- it only adds the decision
  // checks to every send -- so builds that mention neither skip it.
  if (!chaos_.enabled() && !fault_plan_.has_chaos_events()) return;
  system.engine().configure_chaos(chaos_);
}

Session SystemBuilder::build_session() const {
  KLEX_REQUIRE(fault_ != FaultKind::kGarbageFlood || fault_garbage_ >= 0,
               "FaultKind::kGarbageFlood needs fault_garbage(count) -- the "
               "flood size has no default");
  KLEX_REQUIRE(fault_ == FaultKind::kNone || fault_plan_.empty(),
               "fault() and fault_plan() are mutually exclusive (put the "
               "single fault into the plan)");
  KLEX_REQUIRE(fault_ == FaultKind::kNone || fault_ == FaultKind::kTransient ||
                   fault_ == FaultKind::kChannelWipe ||
                   fault_ == FaultKind::kGarbageFlood,
               "FaultKind ", to_string(fault_),
               " needs a fault_plan() event, not fault() (its links, "
               "nodes, chaos config or duration live on the FaultEvent)");
  Session session;
  session.system = build();
  session.fault_plan = fault_plan_;
  if (fault_ != FaultKind::kNone) {
    FaultEvent event;
    event.kind = fault_;
    event.garbage = fault_garbage_;
    session.fault_plan.events.push_back(event);
  }
  if (workload_.has_value()) {
    // Per-tenant derived streams: tenant t's workload materializes and
    // drives from (seed + t)-salted rngs -- the exact rngs a one-tenant
    // build_session with seed + t uses, which is what pins every tenant's
    // workload trajectory to its standalone twin.
    const int tenants = session.system->tenant_count();
    std::vector<support::Rng> class_rngs;
    std::vector<support::Rng> driver_rngs;
    class_rngs.reserve(static_cast<std::size_t>(tenants));
    driver_rngs.reserve(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
      const std::uint64_t tenant_seed = seed_ + static_cast<std::uint64_t>(t);
      class_rngs.emplace_back(tenant_seed ^ kClassSalt);
      driver_rngs.emplace_back(tenant_seed ^ kDriverSalt);
    }
    support::Rng cross_rng(seed_ ^ kClassSalt ^ kCrossTenantSalt);
    session.workload =
        proto::materialize_fleet(*workload_, tenants,
                                 session.system->tenant_n(0), class_rngs,
                                 cross_rng);
    session.driver = std::make_unique<WorkloadDriver>(
        session.system->engine(), session.system->clients(),
        session.workload.behaviors, std::move(driver_rngs));
    session.driver->set_retry_policy(retry_policy_);
  }
  return session;
}

}  // namespace klex
