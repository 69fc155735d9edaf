#include "ring/ring_system.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "proto/messages.hpp"
#include "stree/partition.hpp"
#include "support/check.hpp"

namespace klex::ring {

namespace {

core::Params make_params(const RingConfig& config) {
  core::Params params;
  params.k = config.k;
  params.l = config.l;
  params.cmax = config.cmax;
  params.features = config.features;
  params.seed_tokens = config.seed_tokens;
  params.timeout_period = config.timeout_period;
  return klex::SystemBase::finalize_params(
      params, /*manual_tokens=*/false,
      4 * static_cast<sim::SimTime>(config.n) * config.delays.max_delay + 64);
}

}  // namespace

RingSystem::RingSystem(RingConfig config)
    : SystemBase(make_params(config), config.delays, config.seed),
      config_(config) {
  KLEX_REQUIRE(config_.n >= 2, "ring needs n >= 2");

  std::int32_t modulus = ring_myc_modulus(config_.n, config_.cmax);
  for (int v = 0; v < config_.n; ++v) {
    std::unique_ptr<RingProcessBase> process;
    if (v == 0) {
      process = std::make_unique<RingRootProcess>(params_, modulus,
                                                  &listeners_);
    } else {
      process = std::make_unique<RingMemberProcess>(params_, modulus,
                                                    &listeners_);
    }
    nodes_.push_back(add_node(std::move(process)));
  }
  for (int v = 0; v < config_.n; ++v) {
    connect_nodes(v, 0, (v + 1) % config_.n, 0);
  }
  int lanes = std::clamp(config_.threads, 1,
                         std::min(config_.n, sim::Engine::kMaxLanes));
  if (lanes > 1) {
    engine_.configure_lanes(stree::partition_range(config_.n, lanes), lanes);
    parallel_ = std::make_unique<sim::ParallelEngine>(engine_);
  }
}

RingProcessBase& RingSystem::node(proto::NodeId id) {
  KLEX_REQUIRE(id >= 0 && id < config_.n, "bad node id ", id);
  return *nodes_[static_cast<std::size_t>(id)];
}

const RingProcessBase& RingSystem::node(proto::NodeId id) const {
  KLEX_REQUIRE(id >= 0 && id < config_.n, "bad node id ", id);
  return *nodes_[static_cast<std::size_t>(id)];
}

proto::MessageDomains RingSystem::message_domains(int /*tenant*/) const {
  proto::MessageDomains domains;
  domains.myc_modulus = ring_myc_modulus(config_.n, config_.cmax);
  domains.l = config_.l;
  return domains;
}

}  // namespace klex::ring
