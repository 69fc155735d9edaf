#include "sim/chaos.hpp"

#include <utility>

#include "support/check.hpp"

namespace klex::sim {

void validate_chaos(const ChaosConfig& config) {
  KLEX_REQUIRE(config.drop_p >= 0.0 && config.drop_p <= 1.0,
               "drop_p must be in [0, 1]");
  KLEX_REQUIRE(config.dup_p >= 0.0 && config.dup_p <= 1.0,
               "dup_p must be in [0, 1]");
  KLEX_REQUIRE(config.reorder_p >= 0.0 && config.reorder_p <= 1.0,
               "reorder_p must be in [0, 1]");
  KLEX_REQUIRE(config.reorder_window >= 1, "reorder_window must be >= 1");
  KLEX_REQUIRE(config.reorder_flush_delay >= 1,
               "reorder_flush_delay must be >= 1");
}

ChaosModel::ChaosModel(int channel_count, const ChaosConfig& steady)
    : steady_(steady),
      links_(static_cast<std::size_t>(channel_count)),
      channel_count_(channel_count) {
  validate_chaos(steady_);
}

void ChaosModel::begin_burst(const ChaosConfig& config, SimTime until) {
  validate_chaos(config);
  burst_ = config;
  burst_until_ = until;
  burst_member_.clear();
}

void ChaosModel::begin_burst_channels(int begin, int end,
                                      const ChaosConfig& config,
                                      SimTime until) {
  KLEX_REQUIRE(begin >= 0 && begin <= end && end <= channel_count_,
               "bad burst channel range [", begin, ", ", end, ")");
  std::vector<char> member(static_cast<std::size_t>(channel_count_), 0);
  for (int c = begin; c < end; ++c) {
    member[static_cast<std::size_t>(c)] = 1;
  }
  begin_burst_members(std::move(member), config, until);
}

void ChaosModel::begin_burst_members(std::vector<char> member,
                                     const ChaosConfig& config,
                                     SimTime until) {
  validate_chaos(config);
  KLEX_REQUIRE(static_cast<int>(member.size()) == channel_count_,
               "burst membership needs one entry per channel");
  burst_ = config;
  burst_until_ = until;
  burst_member_ = std::move(member);
}

std::uint64_t ChaosModel::held_messages() const {
  std::uint64_t total = 0;
  for (const Link& link : links_) {
    total += static_cast<std::uint64_t>(link.held.size());
  }
  return total;
}

ChaosStats ChaosModel::totals() const {
  ChaosStats total;
  for (const Link& link : links_) {
    total.dropped += link.stats.dropped;
    total.duplicated += link.stats.duplicated;
    total.reordered += link.stats.reordered;
    total.jittered += link.stats.jittered;
  }
  return total;
}

void ChaosModel::drop_all_holds() {
  for (Link& link : links_) {
    link.held.clear();
  }
}

}  // namespace klex::sim
