// RingSystem: harness for the ring baseline, built on the shared
// SystemBase runtime so workloads, monitors, benchmarks and the
// experiment runner can drive either protocol through the same
// RequestPort / Listener interfaces.
#pragma once

#include <cstdint>
#include <vector>

#include "api/system_base.hpp"
#include "ring/ring_process.hpp"

namespace klex::ring {

struct RingConfig {
  int n = 2;  // ring size (node 0 is the root)
  int k = 1;
  int l = 1;
  proto::Features features = proto::Features::full();
  int cmax = 4;
  sim::DelayModel delays{};
  sim::SimTime timeout_period = 0;  // 0 = derived (n hops per loop)
  std::uint64_t seed = support::Rng::kDefaultSeed;
  bool seed_tokens = false;
  /// Worker lanes (contiguous node-id arcs; see SystemConfig::threads).
  int threads = 1;
};

class RingSystem : public SystemBase {
 public:
  explicit RingSystem(RingConfig config);

  RingProcessBase& node(proto::NodeId id);
  const RingProcessBase& node(proto::NodeId id) const;

 protected:
  proto::MessageDomains message_domains(int tenant) const override;

 private:
  RingConfig config_;
  std::vector<RingProcessBase*> nodes_;  // owned by engine
};

}  // namespace klex::ring
