// Algorithm 2: a non-root process p.
//
// Non-root processes relay tokens along the virtual ring and validate the
// controller with Varghese counter flushing: a ctrl message is valid when
// it arrives (1) from the parent (channel 0) carrying a flag value
// different from myC -- the start of a new visit -- or (2) from the
// DFS successor Succ with a matching flag value -- the return from a
// subtree. Valid ctrl messages marked R erase local tokens (reset).
// Invalid ctrl messages from the parent are still retransmitted "to
// prevent deadlock"; all other invalid messages are ignored.
#pragma once

#include "core/process_base.hpp"

namespace klex::core {

class MemberProcess : public KlProcessBase {
 public:
  MemberProcess(Params params, int degree, std::int32_t modulus,
                proto::Listener* listener);
  MemberProcess(Params params, int degree, std::int32_t modulus,
                proto::Listener* listener, ProcessStateArena& arena,
                int slot);

  /// Drains the stored tokens and sets myC to -1, outside the flag
  /// domain [0, modulus): the first controller visit after the root's
  /// epoch_restart is fresh whatever value it carries, so it resets Succ
  /// (case (1) below). A corrupted myC equal to the root's next flag
  /// would make that visit look stale, keep a corrupted Succ, let the
  /// circulation skip a subtree and the root's top-up mint twice.
  void epoch_drain() override;

 protected:
  void handle_control(int channel, const proto::CtrlFields& f) override;
};

}  // namespace klex::core
