#include "verify/safety_monitor.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace klex::verify {

SafetyMonitor::SafetyMonitor(int n, int k, int l) : k_(k), l_(l) {
  KLEX_REQUIRE(n >= 1, "bad n");
  KLEX_REQUIRE(k >= 1 && k <= l, "need 1 <= k <= l");
  usage_.assign(static_cast<std::size_t>(n), 0);
  pending_since_.assign(static_cast<std::size_t>(n), sim::kTimeInfinity);
  stall_flagged_.assign(static_cast<std::size_t>(n), 0);
  lane_records_.resize(static_cast<std::size_t>(sim::Engine::kMaxLanes));
}

void SafetyMonitor::record(sim::SimTime at, std::string what) {
  last_violation_ = at;
  ++violation_count_;
  // Cap stored violations: convergence runs can violate safety freely
  // before stabilizing, and we only need existence + last time.
  if (violations_.size() < 1024) {
    violations_.push_back(Violation{at, std::move(what)});
  }
}

void SafetyMonitor::buffer(RecordKind kind, proto::NodeId node, int need,
                           sim::SimTime at) {
  std::size_t lane = static_cast<std::size_t>(sim::Engine::current_lane());
  KLEX_CHECK(lane < lane_records_.size(), "bad lane ", lane);
  lane_records_[lane].push_back(
      Record{at, sim::Engine::current_event_seq(), kind, node, need});
}

void SafetyMonitor::on_request(proto::NodeId node, int /*need*/,
                               sim::SimTime at) {
  if (buffering()) {
    buffer(RecordKind::kRequest, node, 0, at);
    return;
  }
  apply_request(node, at);
}

void SafetyMonitor::apply_request(proto::NodeId node, sim::SimTime at) {
  std::size_t index = static_cast<std::size_t>(node);
  KLEX_CHECK(index < pending_since_.size(), "unknown node ", node);
  // Keep the earliest outstanding request: a re-request while waiting
  // must not reset the stall clock.
  if (pending_since_[index] == sim::kTimeInfinity) {
    pending_since_[index] = at;
    stall_flagged_[index] = 0;
    ++pending_requests_;
  }
}

void SafetyMonitor::on_enter_cs(proto::NodeId node, int need,
                                sim::SimTime at) {
  if (buffering()) {
    buffer(RecordKind::kEnter, node, need, at);
    return;
  }
  apply_enter(node, need, at);
}

void SafetyMonitor::apply_enter(proto::NodeId node, int need,
                                sim::SimTime at) {
  std::size_t index = static_cast<std::size_t>(node);
  KLEX_CHECK(index < usage_.size(), "unknown node ", node);
  ++total_entries_;
  if (pending_since_[index] != sim::kTimeInfinity) {
    pending_since_[index] = sim::kTimeInfinity;
    stall_flagged_[index] = 0;
    --pending_requests_;
  }
  if (usage_[index] != 0) {
    std::ostringstream what;
    what << "node " << node << " entered CS while already in CS";
    record(at, what.str());
    units_in_use_ -= usage_[index];  // replace, do not double-count
  }
  usage_[index] = need;
  units_in_use_ += need;
  if (need > k_) {
    std::ostringstream what;
    what << "node " << node << " uses " << need << " > k = " << k_;
    record(at, what.str());
  }
  if (units_in_use_ > l_) {
    std::ostringstream what;
    what << "total units in use " << units_in_use_ << " > l = " << l_;
    record(at, what.str());
  }
}

void SafetyMonitor::on_exit_cs(proto::NodeId node, sim::SimTime at) {
  if (buffering()) {
    buffer(RecordKind::kExit, node, 0, at);
    return;
  }
  apply_exit(node);
}

void SafetyMonitor::apply_exit(proto::NodeId node) {
  std::size_t index = static_cast<std::size_t>(node);
  KLEX_CHECK(index < usage_.size(), "unknown node ", node);
  units_in_use_ -= usage_[index];
  usage_[index] = 0;
}

void SafetyMonitor::forget() {
  for (int& units : usage_) units = 0;
  units_in_use_ = 0;
}

int SafetyMonitor::in_cs_count() const {
  int count = 0;
  for (int units : usage_) {
    if (units > 0) ++count;
  }
  return count;
}

int SafetyMonitor::check_stalls(sim::SimTime now) {
  if (stall_threshold_ == 0 || pending_requests_ == 0) return 0;
  int flagged = 0;
  for (std::size_t index = 0; index < pending_since_.size(); ++index) {
    if (pending_since_[index] == sim::kTimeInfinity) continue;
    if (stall_flagged_[index]) continue;
    if (now < pending_since_[index] ||
        now - pending_since_[index] <= stall_threshold_) {
      continue;
    }
    stall_flagged_[index] = 1;
    ++stall_count_;
    ++flagged;
    if (stalls_.size() < 1024) {
      stalls_.push_back(Stall{static_cast<proto::NodeId>(index),
                              pending_since_[index], now});
    }
  }
  return flagged;
}

void SafetyMonitor::on_deliver(sim::SimTime at, sim::NodeId /*to*/,
                               int /*channel*/, const sim::Message& /*msg*/) {
  // With the watchdog disabled deliveries are pure no-ops; skip the
  // buffer entirely (keeps windowed memory proportional to protocol
  // activity, not raw traffic).
  if (stall_threshold_ == 0) return;
  if (buffering()) {
    buffer(RecordKind::kDeliver, -1, 0, at);
    return;
  }
  apply_deliver(at);
}

void SafetyMonitor::apply_deliver(sim::SimTime at) {
  if (stall_threshold_ == 0 || at < next_stall_check_) return;
  // Heartbeat at most every threshold/4 ticks: stall flagging stays
  // continuous (timestamped within a quarter threshold of the earliest
  // observable moment) without an O(n) scan per delivery.
  next_stall_check_ = at + stall_threshold_ / 4 + 1;
  check_stalls(at);
}

void SafetyMonitor::on_window_merge() {
  // Lane buffers in lane order, stably sorted by (at, seq). (at, seq) is
  // unique per event and one event's records are consecutive in one
  // lane's buffer, so this is the merged-serial observation order -- also
  // when a lane ran its tenants one after another and its own buffer is
  // not in (at, seq) order.
  merged_.clear();
  for (const std::vector<Record>& records : lane_records_) {
    merged_.insert(merged_.end(), records.begin(), records.end());
  }
  std::stable_sort(merged_.begin(), merged_.end(),
                   [](const Record& a, const Record& b) {
                     return a.at != b.at ? a.at < b.at : a.seq < b.seq;
                   });
  for (const Record& next : merged_) {
    switch (next.kind) {
      case RecordKind::kRequest:
        apply_request(next.node, next.at);
        break;
      case RecordKind::kEnter:
        apply_enter(next.node, next.need, next.at);
        break;
      case RecordKind::kExit:
        apply_exit(next.node);
        break;
      case RecordKind::kDeliver:
        apply_deliver(next.at);
        break;
    }
  }
  for (std::vector<Record>& records : lane_records_) records.clear();
}

}  // namespace klex::verify
