// Engines for client-layer tests that run without a protocol: the
// clients' typed actions must name nodes the engine has registered.
#pragma once

#include <memory>

#include "sim/engine.hpp"

namespace klex {

/// A node that ignores every message and timer.
class IdleNode : public sim::Process {
 public:
  void on_message(int, const sim::Message&) override {}
};

/// Registers `n` idle nodes on `engine` and returns n.
inline int add_idle_nodes(sim::Engine& engine, int n) {
  for (int v = 0; v < n; ++v) engine.add_process(std::make_unique<IdleNode>());
  return n;
}

}  // namespace klex
