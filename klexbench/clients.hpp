// The client models the benchmark drives the k-out-of-l service with, on
// top of the library's public Client / Lease sessions.
//
//   GrantLatency -- request -> grant latency at the protocol boundary, for
//                   the closed-loop (WorkloadDriver) and epoch clients;
//   EpochClients -- batch clients that act only between engine runs, so no
//                   callback is ever pending and ParallelEngine stays on its
//                   windowed path;
//   OpenLoop     -- seeded Poisson arrivals with per-node backlogs, timed
//                   from when each request fell due.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "api/client.hpp"
#include "api/system_base.hpp"
#include "proto/app.hpp"
#include "proto/workload.hpp"
#include "sim/time.hpp"
#include "support/rng.hpp"

namespace klexbench {

using klex::sim::SimTime;
using NodeId = klex::proto::NodeId;

/// Request -> grant latency per node, for requests issued inside
/// [start, end] and granted inside it. Every slot is per node, so lane
/// threads of the windowed engine record concurrently without sharing.
class GrantLatency final : public klex::proto::Listener {
 public:
  explicit GrantLatency(int n);

  void open_window(SimTime start, SimTime end) {
    start_ = start;
    end_ = end;
  }

  void on_request(NodeId node, int need, SimTime at) override;
  void on_enter_cs(NodeId node, int need, SimTime at) override;

  /// Grants inside the window (whatever the request time).
  std::uint64_t grants() const;
  /// Requests issued inside the window.
  std::uint64_t requests() const;
  /// Every recorded latency, in ticks.
  std::vector<double> samples() const;

 private:
  static constexpr SimTime kNone = klex::sim::kTimeInfinity;
  SimTime start_ = klex::sim::kTimeInfinity;
  SimTime end_ = 0;
  std::vector<SimTime> requested_at_;
  std::vector<std::vector<double>> samples_;
  std::vector<std::uint64_t> grants_;
  std::vector<std::uint64_t> requests_;
};

/// Batch clients: at every epoch boundary the caller releases every lease
/// granted in the previous epoch, then `arrivals` idle nodes drawn from
/// the seeded rng acquire need ~ U(1, k). Grants land on lane threads and
/// only touch the granted node's slot.
class EpochClients {
 public:
  EpochClients(klex::SystemBase& system, int arrivals, std::uint64_t seed);
  /// Detaches outstanding leases: teardown must not re-enter the protocol.
  ~EpochClients();
  EpochClients(const EpochClients&) = delete;
  EpochClients& operator=(const EpochClients&) = delete;

  /// One epoch boundary (serial context, between engine runs).
  void boundary();

  std::uint64_t acquires() const { return acquires_; }

 private:
  klex::ClientPool& pool_;
  int arrivals_;
  klex::support::Rng rng_;
  std::vector<klex::Lease> leases_;  // slot per node, filled on grant
  std::uint64_t acquires_ = 0;
};

/// Open-loop arrivals: a seeded Poisson stream (mean gap `mean_gap`
/// ticks) picks a node and a need per arrival. A request that falls due
/// while its node's session is busy waits in that node's backlog; its
/// latency and deadline both run from the due time. Denials caused by
/// faults (revoked, busy) retry after `retry_backoff`; only a deadline
/// expiry fails the request.
class OpenLoop {
 public:
  struct Params {
    double mean_gap = 125.0;
    klex::proto::Dist cs = klex::proto::Dist::exponential(100);
    klex::proto::Dist need = klex::proto::Dist::uniform(1, 2);
    SimTime deadline = 0;
    SimTime retry_backoff = 1000;
  };

  OpenLoop(klex::SystemBase& system, Params params, std::uint64_t seed);
  /// Detaches outstanding leases: teardown must not re-enter the protocol.
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Schedules the first arrival.
  void start();

  void open_window(SimTime start, SimTime end) {
    start_ = start;
    end_ = end;
  }

  /// Due -> grant latencies of requests due in [from, to] and granted
  /// inside the window.
  std::vector<double> samples(SimTime from, SimTime to) const;
  std::uint64_t grants() const { return grants_; }
  /// Requests that fell due inside the window.
  std::uint64_t arrivals() const { return arrivals_; }
  /// Requests whose deadline passed before a grant (inside the window).
  std::uint64_t expired() const { return expired_; }
  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t denied(klex::DenyReason reason) const {
    return denied_[static_cast<std::size_t>(reason)];
  }
  std::size_t backlog_high_water() const { return backlog_high_water_; }
  /// How far behind its schedule the generator ran, in ticks. An arrival
  /// is an engine event at its due tick, so this is 0 by construction;
  /// it is measured, not assumed.
  SimTime max_lateness() const { return max_lateness_; }

 private:
  struct Arrival {
    SimTime due = 0;
    int need = 1;
  };
  struct Node {
    std::deque<Arrival> backlog;  // front = the request being served
    bool in_flight = false;       // acquire issued or lease held
    klex::Lease lease;
    klex::Lease phantom;          // a grant nobody asked for, being returned
    std::uint64_t cs_serial = 0;  // guards stale release callbacks
  };

  bool in_window(SimTime at) const { return at >= start_ && at <= end_; }
  void schedule_arrival();
  void arrive(SimTime due);
  void issue(NodeId node);
  void finish(NodeId node);
  void on_granted(NodeId node, klex::Lease lease);
  void on_denied(NodeId node, klex::DenyReason reason);

  klex::SystemBase& system_;
  Params params_;
  klex::support::Rng rng_;
  std::vector<Node> nodes_;
  SimTime start_ = klex::sim::kTimeInfinity;
  SimTime end_ = 0;

  std::vector<std::pair<SimTime, double>> samples_;  // (due, latency)
  std::uint64_t grants_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t retries_ = 0;
  std::array<std::uint64_t, klex::kDenyReasonCount> denied_{};
  std::size_t backlog_high_water_ = 0;
  SimTime max_lateness_ = 0;
};

}  // namespace klexbench
