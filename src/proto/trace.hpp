// Token movement tracing (used to regenerate Figure 1: the DFS
// circulation path of a token through the oriented tree).
//
// TokenTrace records, for a chosen token type, the sequence of
// (node, channel) delivery events. On a network carrying a single token
// of that type, the recorded node sequence IS the token's path, which
// tests compare against the Euler tour of tree::VirtualRing.
#pragma once

#include <vector>

#include "proto/messages.hpp"
#include "sim/engine.hpp"

namespace klex::proto {

class TokenTrace : public sim::SimObserver {
 public:
  /// Records deliveries of messages whose type equals `type`.
  explicit TokenTrace(TokenType type) : type_(type) {}

  void on_deliver(sim::SimTime at, sim::NodeId to, int channel,
                  const sim::Message& msg) override {
    if (is_protocol_message(msg) && type_of(msg) == type_) {
      Visit visit;
      visit.at = at;
      visit.node = to;
      visit.channel = channel;
      visits_.push_back(visit);
    }
  }

  struct Visit {
    sim::SimTime at = 0;
    sim::NodeId node = 0;
    int channel = 0;
  };

  const std::vector<Visit>& visits() const { return visits_; }

  /// Just the node sequence.
  std::vector<sim::NodeId> node_sequence() const {
    std::vector<sim::NodeId> nodes;
    nodes.reserve(visits_.size());
    for (const Visit& visit : visits_) nodes.push_back(visit.node);
    return nodes;
  }

  void clear() { visits_.clear(); }

 private:
  TokenType type_;
  std::vector<Visit> visits_;
};

}  // namespace klex::proto
