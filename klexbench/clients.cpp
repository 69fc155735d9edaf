#include "clients.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace klexbench {

// -- GrantLatency -------------------------------------------------------------

GrantLatency::GrantLatency(int n)
    : requested_at_(static_cast<std::size_t>(n), kNone),
      samples_(static_cast<std::size_t>(n)),
      grants_(static_cast<std::size_t>(n), 0),
      requests_(static_cast<std::size_t>(n), 0) {}

void GrantLatency::on_request(NodeId node, int /*need*/, SimTime at) {
  const auto index = static_cast<std::size_t>(node);
  requested_at_[index] = at;
  if (at >= start_ && at <= end_) ++requests_[index];
}

void GrantLatency::on_enter_cs(NodeId node, int /*need*/, SimTime at) {
  const auto index = static_cast<std::size_t>(node);
  const SimTime requested = requested_at_[index];
  requested_at_[index] = kNone;
  if (at < start_ || at > end_) return;
  ++grants_[index];
  if (requested != kNone && requested >= start_) {
    samples_[index].push_back(static_cast<double>(at - requested));
  }
}

std::uint64_t GrantLatency::grants() const {
  std::uint64_t total = 0;
  for (std::uint64_t g : grants_) total += g;
  return total;
}

std::uint64_t GrantLatency::requests() const {
  std::uint64_t total = 0;
  for (std::uint64_t r : requests_) total += r;
  return total;
}

std::vector<double> GrantLatency::samples() const {
  std::vector<double> all;
  for (const std::vector<double>& node : samples_) {
    all.insert(all.end(), node.begin(), node.end());
  }
  return all;
}

// -- EpochClients -------------------------------------------------------------

EpochClients::EpochClients(klex::SystemBase& system, int arrivals,
                           std::uint64_t seed)
    : pool_(system.clients()),
      arrivals_(arrivals),
      rng_(seed),
      leases_(static_cast<std::size_t>(system.n())) {
  for (NodeId node = 0; node < pool_.size(); ++node) {
    pool_.at(node).on_granted([this, node](klex::Lease lease) {
      leases_[static_cast<std::size_t>(node)] = std::move(lease);
    });
  }
}

EpochClients::~EpochClients() {
  for (klex::Lease& lease : leases_) lease.detach();
}

void EpochClients::boundary() {
  for (klex::Lease& lease : leases_) {
    if (lease.active()) lease.release();
  }
  const auto n = static_cast<std::uint64_t>(pool_.size());
  for (int i = 0; i < arrivals_; ++i) {
    klex::Client& client =
        pool_.at(static_cast<NodeId>(rng_.next_below(n)));
    const auto need = static_cast<int>(rng_.next_in(1, pool_.k()));
    if (!client.idle()) continue;  // still waiting from an earlier epoch
    client.acquire(need);
    ++acquires_;
  }
}

// -- OpenLoop -----------------------------------------------------------------

OpenLoop::OpenLoop(klex::SystemBase& system, Params params,
                   std::uint64_t seed)
    : system_(system),
      params_(params),
      rng_(seed),
      nodes_(static_cast<std::size_t>(system.n())) {
  klex::ClientPool& pool = system_.clients();
  for (NodeId node = 0; node < pool.size(); ++node) {
    klex::Client& client = pool.at(node);
    client.on_granted(
        [this, node](klex::Lease lease) { on_granted(node, std::move(lease)); });
    client.on_denied(
        [this, node](klex::DenyReason reason) { on_denied(node, reason); });
    // A critical section this session never asked for (fault-minted, or a
    // grant that arrived after its deadline): hand the units back from a
    // fresh event, never from inside the protocol's own upcall.
    client.on_unexpected_grant([this, node](klex::Lease lease) {
      nodes_[static_cast<std::size_t>(node)].phantom = std::move(lease);
      system_.engine().schedule(0, [this, node] {
        klex::Lease& phantom = nodes_[static_cast<std::size_t>(node)].phantom;
        if (phantom.active()) phantom.release();
      });
    });
    // The units vanished under a transient fault: the request was served.
    client.on_revoked([this, node] { finish(node); });
  }
}

std::vector<double> OpenLoop::samples(SimTime from, SimTime to) const {
  std::vector<double> selected;
  for (const auto& [due, latency] : samples_) {
    if (due >= from && due <= to) selected.push_back(latency);
  }
  return selected;
}

OpenLoop::~OpenLoop() {
  for (Node& state : nodes_) {
    state.lease.detach();
    state.phantom.detach();
  }
}

void OpenLoop::start() { schedule_arrival(); }

void OpenLoop::schedule_arrival() {
  const auto gap = static_cast<SimTime>(
      std::llround(rng_.next_exponential(params_.mean_gap)));
  const SimTime due = system_.engine().now() + gap;
  system_.engine().schedule(gap, [this, due] { arrive(due); });
}

void OpenLoop::arrive(SimTime due) {
  const SimTime now = system_.engine().now();
  max_lateness_ = std::max(max_lateness_, now - due);
  const auto node = static_cast<NodeId>(
      rng_.next_below(static_cast<std::uint64_t>(nodes_.size())));
  const int need = std::clamp(static_cast<int>(params_.need.sample(rng_)), 1,
                              system_.k());
  if (in_window(due)) ++arrivals_;
  Node& state = nodes_[static_cast<std::size_t>(node)];
  state.backlog.push_back(Arrival{due, need});
  backlog_high_water_ = std::max(backlog_high_water_, state.backlog.size());
  issue(node);
  schedule_arrival();
}

void OpenLoop::issue(NodeId node) {
  Node& state = nodes_[static_cast<std::size_t>(node)];
  const SimTime now = system_.engine().now();
  while (!state.in_flight && !state.backlog.empty()) {
    const Arrival arrival = state.backlog.front();
    const SimTime waited = now - arrival.due;
    if (waited >= params_.deadline) {
      if (in_window(arrival.due)) ++expired_;
      state.backlog.pop_front();
      continue;
    }
    klex::Client& client = system_.clients().at(node);
    if (!client.idle()) {
      // The session still holds a fault-minted critical section.
      ++retries_;
      system_.engine().schedule(params_.retry_backoff,
                                [this, node] { issue(node); });
      return;
    }
    state.in_flight = true;
    ++acquires_;
    // May grant or deny synchronously; the handlers own the state after.
    client.acquire(arrival.need, params_.deadline - waited);
    return;
  }
}

void OpenLoop::finish(NodeId node) {
  Node& state = nodes_[static_cast<std::size_t>(node)];
  state.in_flight = false;
  ++state.cs_serial;  // a pending release for this request is now stale
  if (!state.backlog.empty()) state.backlog.pop_front();
  if (!state.backlog.empty()) {
    system_.engine().schedule(0, [this, node] { issue(node); });
  }
}

void OpenLoop::on_granted(NodeId node, klex::Lease lease) {
  Node& state = nodes_[static_cast<std::size_t>(node)];
  const SimTime now = system_.engine().now();
  const SimTime due = state.backlog.front().due;
  if (in_window(now)) ++grants_;
  if (in_window(due) && now <= end_) {
    samples_.emplace_back(due, static_cast<double>(now - due));
  }
  state.lease = std::move(lease);
  const std::uint64_t serial = ++state.cs_serial;
  system_.engine().schedule(
      static_cast<SimTime>(params_.cs.sample(rng_)), [this, node, serial] {
        Node& held = nodes_[static_cast<std::size_t>(node)];
        if (held.cs_serial != serial) return;
        held.lease.release();
        finish(node);
      });
}

void OpenLoop::on_denied(NodeId node, klex::DenyReason reason) {
  ++denied_[static_cast<std::size_t>(reason)];
  if (reason == klex::DenyReason::kDeadlineExceeded) {
    if (in_window(nodes_[static_cast<std::size_t>(node)].backlog.front().due)) {
      ++expired_;
    }
    finish(node);
    return;
  }
  // A fault revoked the wait or left the protocol busy: try again.
  nodes_[static_cast<std::size_t>(node)].in_flight = false;
  ++retries_;
  system_.engine().schedule(params_.retry_backoff,
                            [this, node] { issue(node); });
}

}  // namespace klexbench
