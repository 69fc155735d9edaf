#include "stats/waiting_time.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/check.hpp"

namespace klex::stats {

WaitingTimeTracker::WaitingTimeTracker(int n)
    : WaitingTimeTracker(
          std::vector<int>(static_cast<std::size_t>(std::max(n, 0)), 0)) {}

WaitingTimeTracker::WaitingTimeTracker(std::vector<int> scope_of_node)
    : scope_of_node_(std::move(scope_of_node)) {
  KLEX_REQUIRE(!scope_of_node_.empty(), "bad n");
  KLEX_REQUIRE(*std::min_element(scope_of_node_.begin(),
                                 scope_of_node_.end()) >= 0,
               "negative waiting-time scope");
  const int scopes =
      *std::max_element(scope_of_node_.begin(), scope_of_node_.end()) + 1;
  entries_.assign(static_cast<std::size_t>(scopes), 0);
  waits_.resize(static_cast<std::size_t>(scopes));
  snapshot_at_request_.assign(scope_of_node_.size(), kNone);
}

void WaitingTimeTracker::on_request(proto::NodeId node, int /*need*/,
                                    sim::SimTime /*at*/) {
  std::size_t index = static_cast<std::size_t>(node);
  KLEX_CHECK(index < snapshot_at_request_.size(), "unknown node ", node);
  snapshot_at_request_[index] =
      entries_[static_cast<std::size_t>(scope_of_node_[index])];
}

void WaitingTimeTracker::on_enter_cs(proto::NodeId node, int /*need*/,
                                     sim::SimTime /*at*/) {
  std::size_t index = static_cast<std::size_t>(node);
  KLEX_CHECK(index < snapshot_at_request_.size(), "unknown node ", node);
  const std::size_t scope = static_cast<std::size_t>(scope_of_node_[index]);
  if (snapshot_at_request_[index] != kNone) {
    waits_[scope].add(
        static_cast<double>(entries_[scope] - snapshot_at_request_[index]));
    snapshot_at_request_[index] = kNone;
  }
  ++entries_[scope];
}

void WaitingTimeTracker::reset_samples() {
  for (support::Histogram& waits : waits_) waits = support::Histogram{};
}

std::int64_t WaitingTimeTracker::global_entries() const {
  return std::accumulate(entries_.begin(), entries_.end(), std::int64_t{0});
}

std::int64_t theorem2_bound(int n, int l) {
  KLEX_REQUIRE(n >= 2, "bad n");
  KLEX_REQUIRE(l >= 1, "bad l");
  std::int64_t span = 2 * static_cast<std::int64_t>(n) - 3;
  return static_cast<std::int64_t>(l) * span * span;
}

}  // namespace klex::stats
