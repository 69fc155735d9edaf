// sim::ChaosModel -- per-link adversarial channel behavior.
//
// The engine's stock channels are reliable FIFO links (engine.hpp). The
// chaos model relaxes exactly that assumption, per directed channel:
//
//   * drop_p      -- the message is lost at send time. The census
//                    deficit is real protocol damage: a dropped token
//                    leaves the population short until the root timeout
//                    re-mints (the paper's transient-fault recovery,
//                    exercised continuously instead of as a one-shot).
//   * dup_p       -- the message is scheduled twice. A duplicated token
//                    CAN mint an extra resource unit at the receiver;
//                    verify::SafetyMonitor records the violation.
//   * reorder_p   -- the message is held back and overtaken by up to
//                    reorder_window later sends on the same channel
//                    (bounded reordering; a flush event guarantees
//                    release after reorder_flush_delay ticks even on an
//                    otherwise quiet channel).
//   * jitter      -- up to `jitter` extra ticks on top of the drawn
//                    delay (then the usual FIFO clamp).
//
// Every decision draws from the channel's own rng -- the same one its
// delays come from, keyed by stream seed and channel index (engine.hpp)
// -- and a hold's flush event takes the channel's next seq. The model
// itself holds no rng and no sequencing state, so a chaos run is
// reproducible from (seed, config) alone and identical at every thread
// count P, and a fleet tenant under chaos replays its standalone twin.
//
// Burst episodes: begin_burst() overrides the steady config on all (or
// a subset of) links until a deadline -- FaultKind::kChaosBurst applies
// one from a FaultPlan. Expiry is lazy (each decision checks the
// deadline), so bursts add no events of their own.
//
// Single-writer contract (mirrors the engine's): a link's hold buffer
// and counters are only touched by the channel's source lane (sends, and
// the flush events queued on that lane). Burst state is written only
// between windows and read-only inside them.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/message.hpp"
#include "sim/time.hpp"

namespace klex::sim {

/// Per-link adversarial behavior knobs. All probabilities in [0, 1];
/// the zero config (enabled() == false) means "reliable FIFO": it draws
/// nothing, so a run under it equals the run without a model. The
/// builder only attaches a ChaosModel when a config is enabled or a
/// fault plan schedules bursts.
struct ChaosConfig {
  double drop_p = 0.0;
  double dup_p = 0.0;
  double reorder_p = 0.0;
  /// Max later sends that may overtake a held message (>= 1).
  int reorder_window = 4;
  /// A held message is force-released this many ticks after the hold
  /// even if the channel goes quiet (>= 1).
  SimTime reorder_flush_delay = 64;
  /// Max extra delay ticks per message (0 = none).
  SimTime jitter = 0;

  bool enabled() const {
    return drop_p > 0.0 || dup_p > 0.0 || reorder_p > 0.0 || jitter > 0;
  }
};

/// Rejects out-of-range knobs (probabilities outside [0, 1], a zero
/// reorder window or flush delay). Called on every path a config enters
/// through -- including configs whose enabled() is false, so a typo'd
/// negative probability throws instead of silently disabling chaos.
void validate_chaos(const ChaosConfig& config);

/// Chaos decision counters (per link and, summed, in EngineStats).
struct ChaosStats {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t jittered = 0;
};

class ChaosModel {
 public:
  /// A message held back for reordering. It stays in the in-flight
  /// census (the hold incremented the counters; the release schedules
  /// without re-counting), so stabilization detection treats held
  /// tokens as in transit, which they are.
  struct Held {
    Message msg{};
    /// Later sends remaining before release.
    int release_after = 0;
    /// Monotone per-link id; never reset (channel clears wipe the hold
    /// buffer, so a stale flush event finds nothing to release).
    std::uint64_t id = 0;
  };

  struct Link {
    std::uint64_t next_hold_id = 1;
    std::vector<Held> held;
    ChaosStats stats;
  };

  ChaosModel(int channel_count, const ChaosConfig& steady);

  Link& link(int channel) {
    return links_[static_cast<std::size_t>(channel)];
  }
  const Link& link(int channel) const {
    return links_[static_cast<std::size_t>(channel)];
  }

  /// The config governing `channel` at time `now`: the burst override
  /// while a burst covering the channel is active, the steady config
  /// otherwise.
  const ChaosConfig& effective(int channel, SimTime now) const {
    if (now < burst_until_ &&
        (burst_member_.empty() ||
         burst_member_[static_cast<std::size_t>(channel)])) {
      return burst_;
    }
    return steady_;
  }

  /// Starts a burst episode on every link, replacing any active one.
  void begin_burst(const ChaosConfig& config, SimTime until);
  /// Burst on channels_[begin, end) only (fleet tenant scoping: a
  /// tenant's channels are contiguous).
  void begin_burst_channels(int begin, int end, const ChaosConfig& config,
                            SimTime until);
  /// Burst on an explicit channel membership vector (one entry per
  /// channel; the fuzzer's minimizer shrinks failing campaigns to fewer
  /// links this way).
  void begin_burst_members(std::vector<char> member,
                           const ChaosConfig& config, SimTime until);

  bool burst_active(SimTime now) const { return now < burst_until_; }
  SimTime burst_until() const { return burst_until_; }
  const ChaosConfig& burst_config() const { return burst_; }

  /// Messages currently held back across all links.
  std::uint64_t held_messages() const;

  /// Decision counters summed over links.
  ChaosStats totals() const;

  /// Drops every hold buffer (clear_channels wiped the counters).
  void drop_all_holds();

 private:
  ChaosConfig steady_;
  ChaosConfig burst_{};
  SimTime burst_until_ = 0;
  std::vector<char> burst_member_;  // empty = every link

  std::vector<Link> links_;
  int channel_count_;
};

}  // namespace klex::sim
