// DenyReason vocabulary tests, plus the per-reason deny counters for
// the degraded-mode reasons.
//
// to_string(DenyReason) is the spelling experiment artifacts and logs
// key on: it must stay stable, unique per reason and exhaustive (a new
// enumerator falling through to "?" would label distinct denial classes
// identically in every artifact). The counter tests pin that the two
// degraded-mode reasons -- kOverloaded from the admission probe and
// kDeadlineExceeded from an abandoned wait -- land in their own
// WorkloadDriver::deny_count slots.
#include "api/client.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/workload_driver.hpp"
#include "sim/engine.hpp"

namespace klex {
namespace {

using proto::AppState;
using proto::Dist;
using proto::NodeId;

const std::vector<std::pair<DenyReason, std::string>>& all_reasons() {
  // Exhaustive by construction: update together with the enum (the
  // count check below fails loudly if a new reason is missing here).
  static const std::vector<std::pair<DenyReason, std::string>> reasons = {
      {DenyReason::kBusy, "busy"},
      {DenyReason::kWaiting, "waiting"},
      {DenyReason::kHolding, "holding"},
      {DenyReason::kBadNeed, "bad_need"},
      {DenyReason::kRevoked, "revoked"},
      {DenyReason::kUnreachable, "unreachable"},
      {DenyReason::kDeadlineExceeded, "deadline_exceeded"},
      {DenyReason::kOverloaded, "overloaded"},
  };
  return reasons;
}

TEST(DenyReasonNames, EveryReasonHasItsPinnedSpelling) {
  for (const auto& [reason, name] : all_reasons()) {
    EXPECT_EQ(to_string(reason), name);
    EXPECT_STREQ(deny_reason_name(reason), to_string(reason));
  }
}

TEST(DenyReasonNames, NamesAreUniqueAndRoundTrip) {
  std::set<std::string> seen;
  for (const auto& [reason, name] : all_reasons()) {
    EXPECT_TRUE(seen.insert(to_string(reason)).second)
        << "duplicate deny-reason name '" << to_string(reason)
        << "': logs and artifacts would merge distinct denial classes";
  }
  // Reverse direction of the round trip: each pinned name maps back to
  // exactly one reason.
  for (const auto& [reason, name] : all_reasons()) {
    int matches = 0;
    DenyReason matched = DenyReason::kBusy;
    for (const auto& [other, other_name] : all_reasons()) {
      if (to_string(other) == name) {
        ++matches;
        matched = other;
      }
    }
    EXPECT_EQ(matches, 1) << name;
    EXPECT_EQ(matched, reason) << name;
  }
}

TEST(DenyReasonNames, TableIsExhaustive) {
  // kOverloaded is the last enumerator; the table and the counter-array
  // size must cover the whole closed range. A new enumerator appended
  // to the enum fails here until the table, to_string and
  // kDenyReasonCount all learn about it.
  EXPECT_EQ(static_cast<int>(all_reasons().size()), kDenyReasonCount);
  EXPECT_EQ(static_cast<int>(DenyReason::kOverloaded) + 1, kDenyReasonCount);
}

/// Port that accepts requests but never grants, with a scriptable
/// admission answer (the SystemBase::admit override, distilled).
class StalledPort : public proto::RequestPort {
 public:
  explicit StalledPort(int n)
      : states(static_cast<std::size_t>(n), AppState::kOut),
        needs(static_cast<std::size_t>(n), 0) {}

  void request(NodeId node, int need) override {
    states[static_cast<std::size_t>(node)] = AppState::kReq;
    needs[static_cast<std::size_t>(node)] = need;
    ++requests;
  }

  void release(NodeId node) override {
    states[static_cast<std::size_t>(node)] = AppState::kOut;
  }

  AppState state_of(NodeId node) const override {
    return states[static_cast<std::size_t>(node)];
  }

  int need_of(NodeId node) const override {
    return needs[static_cast<std::size_t>(node)];
  }

  bool admit(NodeId, int) const override { return admit_all; }

  std::vector<AppState> states;
  std::vector<int> needs;
  bool admit_all = true;
  int requests = 0;
};

TEST(DenyCounters, AdmissionRefusalCountsAsOverloaded) {
  sim::Engine engine;
  StalledPort port(1);
  port.admit_all = false;
  ClientPool pool(port, 1, 1, MisusePolicy::kClamp, &engine);
  proto::NodeBehavior behavior;
  behavior.think = Dist::fixed(1);
  WorkloadDriver driver(engine, pool, {behavior}, support::Rng(3));
  driver.begin();
  engine.run_until(2'000);
  // Shed at the boundary: the denial is counted under kOverloaded and
  // ONLY there, and the protocol never saw a request. The default
  // backoff (256 << e) keeps the refused node from spinning, so the
  // count stays small over the horizon.
  EXPECT_GE(driver.deny_count(DenyReason::kOverloaded), 2);
  EXPECT_EQ(driver.total_denials(),
            driver.deny_count(DenyReason::kOverloaded));
  EXPECT_EQ(port.requests, 0);
}

TEST(DenyCounters, AbandonedWaitCountsAsDeadlineExceeded) {
  sim::Engine engine;
  StalledPort port(1);
  ClientPool pool(port, 1, 1, MisusePolicy::kClamp, &engine);
  proto::NodeBehavior behavior;
  behavior.think = Dist::fixed(1);
  WorkloadDriver driver(engine, pool, {behavior}, support::Rng(4));
  proto::RetryPolicy policy;
  policy.deadline = 10;
  driver.set_retry_policy(policy);
  int latency_samples = 0;
  driver.set_latency_recorder(
      [&](NodeId, sim::SimTime) { ++latency_samples; });
  driver.begin();
  engine.run_until(12);
  // The request reached the (never-granting) protocol, the wait was
  // abandoned at the deadline, and the abandoned acquisition recorded
  // no grant-latency sample (the SLO view must not count censored
  // waits as grants).
  EXPECT_EQ(port.requests, 1);
  EXPECT_EQ(driver.deny_count(DenyReason::kDeadlineExceeded), 1);
  EXPECT_EQ(driver.total_denials(),
            driver.deny_count(DenyReason::kDeadlineExceeded));
  EXPECT_EQ(latency_samples, 0);
}

}  // namespace
}  // namespace klex
