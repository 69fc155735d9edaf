// The paper's waiting-time metric (Section 2):
//
//   "The waiting time is the maximum number of times that all processes
//    can enter the critical section before some process p, starting from
//    the moment p requests the critical section."
//
// WaitingTimeTracker keeps a CS-entry counter per scope; a request
// snapshots its scope's counter, and the grant records how many entries
// (by any process of that scope -- the requester cannot enter meanwhile)
// happened in between. A plain system is one scope. A fleet of
// independent protocol instances is one scope per tenant, so "all
// processes" means the requester's own tenant and a tenant's samples
// equal those of its standalone twin. Theorem 2 bounds this by ℓ(2n−3)²
// after stabilization; bench_thm2_waiting_time sweeps the measured
// maximum against that bound.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/app.hpp"
#include "support/histogram.hpp"

namespace klex::stats {

class WaitingTimeTracker : public proto::Listener {
 public:
  /// One scope over nodes 0 .. n-1.
  explicit WaitingTimeTracker(int n);
  /// Node v counts in scope scope_of_node[v]; scopes are 0 .. max.
  explicit WaitingTimeTracker(std::vector<int> scope_of_node);

  void on_request(proto::NodeId node, int need, sim::SimTime at) override;
  void on_enter_cs(proto::NodeId node, int need, sim::SimTime at) override;

  int scope_count() const { return static_cast<int>(waits_.size()); }

  /// Waiting times of the scope's requesters in "CS entries by other
  /// processes of the scope" (the paper's unit).
  const support::Histogram& waits(int scope = 0) const {
    return waits_[static_cast<std::size_t>(scope)];
  }

  /// Discards samples collected so far (e.g. from a warmup phase) but
  /// keeps the entry counters and outstanding snapshots coherent.
  void reset_samples();

  /// CS entries over all scopes.
  std::int64_t global_entries() const;

 private:
  static constexpr std::int64_t kNone = -1;

  std::vector<int> scope_of_node_;
  std::vector<std::int64_t> entries_;  // per scope
  std::vector<std::int64_t> snapshot_at_request_;
  std::vector<support::Histogram> waits_;  // per scope
};

/// Theorem 2's worst-case bound, ℓ(2n−3)².
std::int64_t theorem2_bound(int n, int l);

}  // namespace klex::stats
