#include "core/member_process.hpp"

#include <algorithm>

namespace klex::core {

MemberProcess::MemberProcess(Params params, int degree, std::int32_t modulus,
                             proto::Listener* listener)
    : KlProcessBase(params, degree, modulus, listener) {}

MemberProcess::MemberProcess(Params params, int degree, std::int32_t modulus,
                             proto::Listener* listener,
                             ProcessStateArena& arena, int slot)
    : KlProcessBase(params, degree, modulus, listener, arena, slot) {}

void MemberProcess::epoch_drain() {
  KlProcessBase::epoch_drain();
  myc_ = -1;
}

void MemberProcess::handle_control(int channel, const proto::CtrlFields& f) {
  // Alg. 2 lines 32-59.
  bool ok = false;

  // Case (2): returned from the subtree rooted at Succ.
  if (channel == succ_ && myc_ == f.c && succ_ != 0) {
    succ_ = next_channel(succ_);
    ok = true;
    if (f.r) erase_local_tokens();
  }

  // Case (1): from the parent. A fresh flag value starts a new visit; a
  // stale one is retransmitted anyway (deadlock prevention) and -- per the
  // pseudocode -- still contributes the local reserved-token count.
  if (channel == 0) {
    ok = true;
    if (myc_ != f.c) {
      succ_ = std::min(1, degree_ - 1);  // leaf: stays 0 (back to parent)
      if (f.r) erase_local_tokens();
    }
    myc_ = f.c;
  }

  if (ok) {
    std::int32_t pt = sat_add(f.pt, rset_.count(channel), params_.l + 1);
    std::int32_t ppr = f.ppr;
    if (prio_ == channel) {
      ppr = sat_add(ppr, 1, 2);
    }
    send(succ_, proto::make_ctrl(proto::CtrlFields{myc_, f.r, pt, ppr}));
  }
  // All other receptions are invalid: the message is ignored (absorbed).
}

}  // namespace klex::core
