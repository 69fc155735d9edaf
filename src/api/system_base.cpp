#include "api/system_base.hpp"

#include <algorithm>

#include "stree/graph.hpp"
#include "support/check.hpp"
#include "tree/virtual_ring.hpp"

namespace klex {

SystemBase::SystemBase(core::Params params, sim::DelayModel delays,
                       std::uint64_t seed)
    : params_(params),
      engine_(delays, seed),
      tracker_(&engine_, params.l, params.features) {
  KLEX_REQUIRE(params_.k >= 1 && params_.k <= params_.l,
               "need 1 <= k <= l");
  open_tenant();
}

void SystemBase::open_tenant() {
  tenants_.push_back(Tenant{n(), engine_.channel_count(),
                            static_cast<int>(out_channels_.size()), 0});
  // run_until_stabilized's probe state; its resync probes every tenant.
  tenant_ok_.push_back(0);
  correct_since_.push_back(sim::kTimeInfinity);
}

core::Params SystemBase::finalize_params(core::Params params,
                                         bool manual_tokens,
                                         sim::SimTime derived_timeout) {
  if (params.timeout_period == 0) params.timeout_period = derived_timeout;
  if (!params.features.controller && !manual_tokens) {
    // Without the controller nothing else mints tokens.
    params.seed_tokens = true;
  }
  if (manual_tokens) params.seed_tokens = false;
  return params;
}

void SystemBase::connect_nodes(NodeId from, int from_channel, NodeId to,
                               int to_channel) {
  engine_.connect(from, from_channel, to, to_channel);
  out_channels_.emplace_back(from, from_channel);
}

std::vector<core::KlProcessBase*> SystemBase::build_tree_protocol(
    const tree::Tree& tree, const std::vector<int>& node_lane,
    int lane_count, const stree::Graph* physical) {
  std::vector<core::KlProcessBase*> nodes =
      build_tree_instance(tree, 0, node_lane, physical);
  if (lane_count > 1) {
    engine_.configure_lanes(node_lane, lane_count);
    parallel_ = std::make_unique<sim::ParallelEngine>(engine_);
  }
  return nodes;
}

std::vector<core::KlProcessBase*> SystemBase::build_tree_instance(
    const tree::Tree& tree, NodeId id_base, const std::vector<int>& node_lane,
    const stree::Graph* physical) {
  KLEX_REQUIRE(tree.size() >= 2,
               "the protocol requires n >= 2 (see DESIGN.md)");
  KLEX_REQUIRE(!params_.features.controller ||
                   (params_.features.pusher && params_.features.priority),
               "the self-stabilizing rung requires pusher and priority");
  KLEX_REQUIRE(id_base == engine_.process_count(),
               "protocol instances append contiguously (id_base must be "
               "the current process count)");
  KLEX_REQUIRE(physical == nullptr || physical->size() == tree.size(),
               "live wiring needs graph and tree over the same node ids");
  KLEX_REQUIRE(physical == nullptr || id_base == 0,
               "live wiring is single-instance");

  // Live mode sizes every slot by the node's physical degree so any later
  // overlay fits without moving storage; the process constructors narrow
  // their RSet view to the current tree degree.
  std::vector<int> degrees(static_cast<std::size_t>(tree.size()));
  for (tree::NodeId v = 0; v < tree.size(); ++v) {
    degrees[static_cast<std::size_t>(v)] =
        physical != nullptr ? physical->degree(v) : tree.degree(v);
  }
  arenas_.push_back(std::make_unique<core::ProcessStateArena>(
      degrees, params_.k, node_lane));
  core::ProcessStateArena& arena = *arenas_.back();

  std::vector<core::KlProcessBase*> nodes;
  std::int32_t modulus = core::myc_modulus(tree.size(), params_.cmax);
  for (tree::NodeId v = 0; v < tree.size(); ++v) {
    std::unique_ptr<core::KlProcessBase> process;
    int slot = arena.slot_of(v);
    if (v == tree::kRoot) {
      process = std::make_unique<core::RootProcess>(
          params_, tree.degree(v), modulus, &listeners_, arena, slot);
    } else {
      process = std::make_unique<core::MemberProcess>(
          params_, tree.degree(v), modulus, &listeners_, arena, slot);
    }
    nodes.push_back(add_node(std::move(process)));
    KLEX_CHECK(nodes.back()->id() == id_base + v,
               "engine ids must match tree ids plus the instance base");
  }
  if (physical == nullptr) {
    for (tree::NodeId v = 0; v < tree.size(); ++v) {
      for (int c = 0; c < tree.degree(v); ++c) {
        connect_nodes(id_base + v, c, id_base + tree.neighbor(v, c),
                      tree.reverse_channel(v, c));
      }
    }
  } else {
    // Live wiring: engine channel c of node v IS graph adjacency index c.
    // Every physical link exists from boot, so a repair only swaps the
    // per-node translation maps -- the engine is never rewired.
    for (tree::NodeId v = 0; v < physical->size(); ++v) {
      for (int c = 0; c < physical->degree(v); ++c) {
        connect_nodes(v, c, physical->neighbor(v, c),
                      physical->reverse_channel(v, c));
      }
    }
    for (tree::NodeId v = 0; v < tree.size(); ++v) {
      std::vector<int> phys_of(static_cast<std::size_t>(tree.degree(v)));
      std::vector<int> logical_of(
          static_cast<std::size_t>(physical->degree(v)), -1);
      for (int c = 0; c < tree.degree(v); ++c) {
        tree::NodeId w = tree.neighbor(v, c);
        int pc = -1;
        for (int q = 0; q < physical->degree(v); ++q) {
          if (physical->neighbor(v, q) == w) {
            pc = q;
            break;
          }
        }
        KLEX_CHECK(pc >= 0, "overlay edge ", v, "-", w,
                   " is not a physical link");
        phys_of[static_cast<std::size_t>(c)] = pc;
        logical_of[static_cast<std::size_t>(pc)] = c;
      }
      nodes[static_cast<std::size_t>(v)]->bind_channel_map(
          std::move(phys_of), std::move(logical_of));
    }
  }
  return nodes;
}

void SystemBase::add_listener(proto::Listener* listener) {
  listeners_.add(listener);
}

void SystemBase::add_observer(sim::SimObserver* observer) {
  engine_.add_observer(observer);
}

ClientPool& SystemBase::clients() {
  if (clients_ == nullptr) {
    clients_ = std::make_unique<ClientPool>(*this, n(), params_.k,
                                            misuse_policy_, &engine_);
    add_listener(clients_.get());
    // Lease::tenant routes grants back per tenant in cross-tenant
    // applications.
    for (NodeId node = 0; node < n(); ++node) {
      clients_->at(node).set_tenant(tenant_of(node));
    }
  }
  return *clients_;
}

void SystemBase::set_misuse_policy(MisusePolicy policy) {
  misuse_policy_ = policy;
  if (clients_ != nullptr) clients_->set_policy(policy);
}

void SystemBase::request(NodeId node, int need) {
  KLEX_REQUIRE(node >= 0 && node < n(), "bad node id ", node);
  proto::ExclusionParticipant* participant =
      participants_[static_cast<std::size_t>(node)];
  // Historically a wrong-state request either threw out of the caller or
  // -- worse -- desynced workload bookkeeping that assumed it took
  // effect; route both misuse axes through the policy instead.
  if (participant->app_state() != proto::AppState::kOut) {
    KLEX_REQUIRE(misuse_policy_ != MisusePolicy::kCheck,
                 "request() on node ", node, " requires State = Out (is ",
                 proto::app_state_name(participant->app_state()),
                 "); see MisusePolicy");
    return;  // kClamp / kIgnore: drop
  }
  const int k = params_.k;
  if (need < 0 || need > k) {
    switch (misuse_policy_) {
      case MisusePolicy::kCheck:
        KLEX_REQUIRE(false, "request() need must be in 0..", k, ", got ",
                     need);
        return;
      case MisusePolicy::kClamp:
        need = std::clamp(need, 0, k);
        break;
      case MisusePolicy::kIgnore:
        return;
    }
  }
  if (!admit(node, need)) return;  // admission shed (not misuse): drop
  // Any delta the request fires lands in the tenant's census stream
  // (client sessions call the port from outside event execution too).
  sim::ScopedStream scope(tenant_of(node));
  participant->request(need);
}

void SystemBase::release(NodeId node) {
  KLEX_REQUIRE(node >= 0 && node < n(), "bad node id ", node);
  proto::ExclusionParticipant* participant =
      participants_[static_cast<std::size_t>(node)];
  if (participant->app_state() != proto::AppState::kIn) {
    KLEX_REQUIRE(misuse_policy_ != MisusePolicy::kCheck,
                 "release() on node ", node, " requires State = In (is ",
                 proto::app_state_name(participant->app_state()),
                 "); see MisusePolicy");
    return;  // kClamp / kIgnore: drop
  }
  sim::ScopedStream scope(tenant_of(node));
  participant->release();
}

proto::AppState SystemBase::state_of(NodeId node) const {
  KLEX_REQUIRE(node >= 0 && node < n(), "bad node id ", node);
  return participants_[static_cast<std::size_t>(node)]->app_state();
}

int SystemBase::need_of(NodeId node) const {
  KLEX_REQUIRE(node >= 0 && node < n(), "bad node id ", node);
  return participants_[static_cast<std::size_t>(node)]->need();
}

bool SystemBase::admit(NodeId /*node*/, int need) const {
  if (!admission_policy_.enabled()) return true;
  // O(n) census of the wait queue; only paid when a policy is set.
  int waiting = 0;
  std::int64_t outstanding_need = 0;
  for (const proto::ExclusionParticipant* participant : census_participants_) {
    switch (participant->app_state()) {
      case proto::AppState::kReq:
        ++waiting;
        outstanding_need += participant->need();
        break;
      case proto::AppState::kIn:
        outstanding_need += participant->need();
        break;
      case proto::AppState::kOut:
        break;
    }
  }
  if (admission_policy_.max_waiting >= 0 &&
      waiting >= admission_policy_.max_waiting) {
    return false;
  }
  if (admission_policy_.max_outstanding_need >= 0 &&
      outstanding_need + need > admission_policy_.max_outstanding_need) {
    return false;
  }
  return true;
}

void SystemBase::run_until(sim::SimTime t) {
  // The window executor falls back to the trajectory-identical
  // merged-serial loop on its own when callbacks or blocking observers
  // are live,
  // so dispatching here never changes what happens -- only on how many
  // threads.
  if (parallel_ != nullptr) {
    parallel_->run_until(t);
  } else {
    engine_.run_until(t);
  }
}

bool SystemBase::run_until_message_quiescence(std::uint64_t max_events) {
  return engine_.run_until_message_quiescence(max_events);
}

sim::SimTime SystemBase::run_until_stabilized(sim::SimTime deadline,
                                              sim::SimTime poll,
                                              int consecutive) {
  KLEX_REQUIRE(poll > 0, "confirmation granularity must be positive");
  KLEX_REQUIRE(consecutive >= 1, "need a non-empty confirmation window");
  const sim::SimTime window = poll * static_cast<sim::SimTime>(consecutive);
  engine_.start();  // on_start() may mint tokens; count them before probing
  if (tracker_.tenant_mode()) {
    return stabilize(deadline, window,
                     [this](int t) { return tracker_.correct_of(t); });
  }
  return stabilize(deadline, window, [this](int) { return tracker_.correct(); });
}

template <typename Probe>
sim::SimTime SystemBase::stabilize(sim::SimTime deadline, sim::SimTime window,
                                   Probe probe) {
  // Event-driven detection: every event that could move the census goes
  // through the engine's per-type counters or a participant delta, so
  // probing the O(1) predicate after every event observes every
  // correct<->incorrect edge at its exact simulated time. Every event
  // belongs to one tenant and moves only that tenant (tenants are
  // causally independent), so the probe re-checks that tenant alone.
  // `since` is the start of the current fleet-wide correct stretch; a
  // stretch that survives `window` ticks is confirmed and reported at its
  // transition edge.
  //
  // Resync: boot, a fault or a recovery drain may have moved any tenant,
  // so rebuild the flags with one scan of O(1) probes.
  const sim::SimTime start = engine_.now();
  incorrect_tenants_ = 0;
  for (std::size_t t = 0; t < tenant_ok_.size(); ++t) {
    const bool ok = probe(static_cast<int>(t));
    if (ok && !tenant_ok_[t]) correct_since_[t] = start;
    if (!ok) {
      correct_since_[t] = sim::kTimeInfinity;
      ++incorrect_tenants_;
    }
    tenant_ok_[t] = ok ? 1 : 0;
  }
  bool correct = incorrect_tenants_ == 0;
  sim::SimTime since = correct ? start : sim::kTimeInfinity;
  // The per-event probe: tenant t's flag follows its predicate, and each
  // flip is recorded as an edge for replay_edges.
  auto record = [this, probe](int t, sim::SimTime at, std::uint64_t seq) {
    const bool ok = probe(t);
    char& flag = tenant_ok_[static_cast<std::size_t>(t)];
    if (ok != (flag != 0)) {
      flag = ok ? 1 : 0;
      edges_.push_back(Edge{at, seq, t, ok});
    }
  };
  for (;;) {
    if (correct) {
      if (engine_.now() >= since + window) return since;
      if (since + window > deadline) break;  // cannot confirm in time
    }
    // The one peek of the iteration (it may scan the queue, which the
    // scheduler counters see, so the two exits above take none).
    const sim::SimTime next = engine_.next_event_time();
    if (correct && next > since + window) {
      // Nothing is scheduled inside the window, so nothing can break it:
      // advance the clock to the confirmation point without stepping.
      engine_.run_until(since + window);
      return since;
    }
    if (!correct && (next > deadline || engine_.now() >= deadline)) {
      break;  // queue drained (or idle) past the deadline, still incorrect
    }
    // The merged loop runs every event before `stop`: a correct stretch
    // confirms at since + window at the earliest, and one that has not
    // begun can begin no earlier than the next event (an incorrect system
    // gets here only with next <= deadline, so this cannot overflow).
    const sim::SimTime stop =
        correct ? since + window : next + std::min(window, deadline - next);
    edges_.clear();
    if (engine_.runs_spans() && next < stop) {
      // A round: each tenant runs through stop - 1 on its own.
      engine_.run_streams_until(stop - 1,
                                [&record](int t, const sim::Event& e) {
                                  record(t, e.at, e.seq);
                                });
    } else {
      // The tick where the loop may stop after any single event, or an
      // engine that runs merged: one step.
      engine_.step();
      record(engine_.last_stream(), engine_.now(), 0);
    }
    if (replay_edges(deadline, window, &correct, &since)) break;
  }
  // Failure: leave the clock at the deadline like the poll loop did, so
  // callers that retry with a later deadline resume from a known point.
  if (engine_.now() < deadline) engine_.run_until(deadline);
  return sim::kTimeInfinity;
}

bool SystemBase::replay_edges(sim::SimTime deadline, sim::SimTime window,
                              bool* correct, sim::SimTime* since) {
  // Replay the edges in the merged order to follow the fleet-wide
  // predicate. Inside a round the merged loop can only give up: a
  // stretch that begins there confirms beyond the round.
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  std::size_t applied = 0;
  bool gave_up = false;
  while (applied < edges_.size() && !gave_up) {
    const Edge& edge = edges_[applied++];
    incorrect_tenants_ += edge.correct ? -1 : 1;
    correct_since_[static_cast<std::size_t>(edge.tenant)] =
        edge.correct ? edge.at : sim::kTimeInfinity;
    const bool now_correct = incorrect_tenants_ == 0;
    if (now_correct && !*correct) *since = edge.at;
    *correct = now_correct;
    gave_up = *correct && *since + window > deadline;
  }
  // The merged loop probes nothing after giving up: undo the later edges'
  // flags so the next resync probe starts from the same state.
  for (std::size_t i = applied; i < edges_.size(); ++i) {
    char& flag = tenant_ok_[static_cast<std::size_t>(edges_[i].tenant)];
    flag = flag != 0 ? 0 : 1;
  }
  return gave_up;
}

void SystemBase::spread_seed_tokens(const tree::Tree& tree, NodeId id_base) {
  // ℓ resources spread over the ring (instead of a convoy out of the
  // root's channel 0); the unique pusher / priority start at the root.
  const tree::VirtualRing ring(tree);
  const std::vector<tree::RingHop>& hops = ring.hops();
  const long long length = ring.length();
  for (int i = 0; i < params_.l; ++i) {
    const tree::RingHop& hop =
        hops[static_cast<std::size_t>(i * length / params_.l)];
    engine_.inject_message(id_base + hop.from, hop.out_channel,
                           proto::make_resource());
  }
  if (params_.features.pusher) {
    engine_.inject_message(id_base + tree::kRoot, 0, proto::make_pusher());
  }
  if (params_.features.priority) {
    engine_.inject_message(id_base + tree::kRoot, 0, proto::make_priority());
  }
}

proto::TokenCensus SystemBase::census() const { return tracker_.counts(); }

proto::TokenCensus SystemBase::census_oracle() const {
  return proto::take_census(engine_, census_participants_);
}

proto::MessageDomains SystemBase::message_domains(int tenant) const {
  proto::MessageDomains domains;
  domains.myc_modulus = core::myc_modulus(tenant_n(tenant), params_.cmax);
  domains.l = params_.l;
  return domains;
}

bool SystemBase::token_counts_correct() const { return tracker_.correct(); }

bool SystemBase::tenant_correct(int tenant) const {
  require_tenant(tenant);
  return tracker_.tenant_mode() ? tracker_.correct_of(tenant)
                                : tracker_.correct();
}

void SystemBase::inject_garbage(int tenant, support::Rng& rng,
                                int garbage_per_channel) {
  const proto::MessageDomains domains = message_domains(tenant);
  const int cmax = params_.cmax;
  const int end = out_end(tenant);
  for (int i = slot(tenant).out_begin; i < end; ++i) {
    const auto& [node, channel] = out_channels_[static_cast<std::size_t>(i)];
    // Default: up to CMAX arbitrary messages per channel (the paper's
    // bound); an explicit count overrides it -- possibly beyond CMAX,
    // which is exactly what the CMAX-violation ablation measures.
    const int garbage =
        garbage_per_channel >= 0
            ? garbage_per_channel
            : static_cast<int>(
                  rng.next_below(static_cast<std::uint64_t>(cmax) + 1));
    for (int g = 0; g < garbage; ++g) {
      engine_.inject_message(node, channel,
                             proto::random_message(domains, rng));
    }
  }
}

void SystemBase::inject_transient_fault(support::Rng& rng,
                                        int garbage_per_channel) {
  for (int t = 0; t < tenant_count(); ++t) {
    inject_transient_fault_tenant(t, rng, garbage_per_channel);
  }
}

void SystemBase::inject_transient_fault_tenant(int tenant, support::Rng& rng,
                                               int garbage_per_channel) {
  require_tenant(tenant);
  // Deltas fired by corrupt() must be attributed to this tenant's census
  // stream (we are outside event execution).
  sim::ScopedStream scope(tenant);
  engine_.clear_channel_range(channel_begin(tenant), channel_end(tenant));
  for (NodeId v = node_begin(tenant); v < node_end(tenant); ++v) {
    participants_[static_cast<std::size_t>(v)]->corrupt(rng);
  }
  inject_garbage(tenant, rng, garbage_per_channel);
}

void SystemBase::flood_channels(support::Rng& rng, int garbage_per_channel) {
  for (int t = 0; t < tenant_count(); ++t) {
    flood_channels_tenant(t, rng, garbage_per_channel);
  }
}

void SystemBase::flood_channels_tenant(int tenant, support::Rng& rng,
                                       int garbage_per_channel) {
  KLEX_REQUIRE(garbage_per_channel >= 0, "need a garbage count");
  sim::ScopedStream scope(tenant);
  engine_.clear_channel_range(channel_begin(tenant), channel_end(tenant));
  inject_garbage(tenant, rng, garbage_per_channel);
}

bool SystemBase::epoch_cut_recover() {
  bool any = false;
  for (int t = 0; t < tenant_count(); ++t) {
    if (!tenant_correct(t)) any = epoch_cut_recover_tenant(t) || any;
  }
  return any;
}

bool SystemBase::epoch_cut_recover_tenant(int tenant) {
  require_tenant(tenant);
  KLEX_REQUIRE(params_.features.epoch_cut,
               "epoch_cut_recover() needs Features::epoch_cut (the drain is "
               "an opt-in rung, not part of the paper's protocol)");
  if (tenant_correct(tenant)) return false;
  // One batched drain pass, O(tenant channels + tenant n): every
  // in-flight message of the tenant (garbage and legitimate tokens alike)
  // is dropped via the channel epoch bump, every stored token is erased
  // through the delta-reporting drain hook, and the root re-mints the
  // legitimate population. The incremental census tracks all of it, so
  // the cut is visible to run_until_stabilized at its exact timestamp;
  // other tenants' tokens and counters are never touched.
  sim::ScopedStream scope(tenant);
  engine_.clear_channel_range(channel_begin(tenant), channel_end(tenant));
  for (NodeId v = node_begin(tenant); v < node_end(tenant); ++v) {
    participants_[static_cast<std::size_t>(v)]->epoch_drain();
  }
  // A tenant's first node is its distinguished root in every topology
  // this repository builds (tree, spanning-tree overlay, ring, fleet).
  const bool restarted =
      participants_[static_cast<std::size_t>(node_begin(tenant))]
          ->epoch_restart();
  KLEX_CHECK(restarted, "tenant ", tenant,
             "'s first node must be its root (epoch_restart)");
  ++tenants_[static_cast<std::size_t>(tenant)].recoveries;
  return true;
}

void SystemBase::chaos_burst_tenant(int tenant, const sim::ChaosConfig& config,
                                    sim::SimTime duration) {
  engine_.chaos_burst_channel_range(channel_begin(tenant), channel_end(tenant),
                                    config, duration);
}

TopologyFaultResult SystemBase::apply_topology_fault(const FaultEvent&,
                                                     support::Rng&) {
  KLEX_REQUIRE(false,
               "topology faults need a live GraphSystem: use a graph "
               "topology and SystemBuilder::live_topology() (a fault plan "
               "with kLinkChurn / kNodeCrash events enables it "
               "automatically)");
  return {};
}

}  // namespace klex
