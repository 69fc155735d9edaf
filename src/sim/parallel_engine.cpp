#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <exception>

#include "support/check.hpp"

namespace klex::sim {

ParallelEngine::ParallelEngine(Engine& engine) : engine_(engine) {
  int lanes = engine_.lane_count();
  workers_.reserve(static_cast<std::size_t>(lanes > 0 ? lanes - 1 : 0));
  for (int lane = 1; lane < lanes; ++lane) {
    workers_.emplace_back([this, lane] { worker_main(lane); });
  }
}

ParallelEngine::~ParallelEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ParallelEngine::worker_main(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    SimTime last;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock,
                       [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      last = window_last_;
    }
    std::exception_ptr error;
    try {
      engine_.run_lane_window(lane, last);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error && !worker_error_) worker_error_ = error;
      if (--outstanding_ == 0) window_done_.notify_one();
    }
  }
}

void ParallelEngine::run_until(SimTime t) {
  KLEX_REQUIRE(t < kTimeInfinity, "windowed runs need a finite horizon");
  engine_.start();
  SimTime lookahead = engine_.delay_model().min_delay;
  bool observers_block =
      engine_.lane_count() > 1 && engine_.has_blocking_observers();
  for (;;) {
    if (observers_block || engine_.callbacks_scheduled() > 0) {
      // Callbacks may touch any node, and a handler may schedule the
      // next one, whose seq counter is shared across lanes: once an
      // engine has scheduled any callback, no window opens again.
      // Blocking observers share state across lanes. (Window-safe
      // observers -- lane-local buffers merged at the barrier -- do not
      // force this path.) The merged-serial loop executes the exact same
      // (at, seq) trajectory, just on one thread.
      ++stats_.merged_fallbacks;
      engine_.run_until(t);
      return;
    }
    SimTime window_start = engine_.next_event_time();
    if (window_start > t) break;
    // All events in [window_start, window_end) are causally closed per
    // lane; run them concurrently. The horizon clamp keeps events at
    // exactly t executable (run_until semantics) without overshooting.
    SimTime window_last = window_start + lookahead - 1;  // inclusive
    window_last = std::min(window_last, t);
    engine_.begin_window(window_start);
    {
      // Publishing after begin_window: the lock hand-off is what makes
      // the lane-clock writes visible to the woken workers.
      std::lock_guard<std::mutex> lock(mu_);
      window_last_ = window_last;
      outstanding_ = static_cast<int>(workers_.size());
      ++generation_;
    }
    work_ready_.notify_all();
    std::exception_ptr error;
    try {
      engine_.run_lane_window(0, window_last);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      window_done_.wait(lock, [&] { return outstanding_ == 0; });
      if (!error) error = worker_error_;
      worker_error_ = nullptr;
    }
    engine_.end_window();
    ++stats_.windows;
    // A lane's failure (e.g. a handler scheduling a callback inside the
    // window) surfaces on the caller once every lane has stopped.
    if (error) std::rethrow_exception(error);
  }
  engine_.sync_lanes_to(t);
}

}  // namespace klex::sim
