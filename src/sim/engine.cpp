#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "support/check.hpp"
#include "support/log.hpp"

namespace klex::sim {

namespace {
// Salt of the channel rngs: channel c of a stream seeded s draws from
// Rng(s ^ kChannelRngSalt).split(c). Every trajectory depends on it.
constexpr std::uint64_t kChannelRngSalt = 0xCA0510AD5EEDF00Dull;
}  // namespace

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

void Process::send(int channel, const Message& msg) {
  KLEX_CHECK(engine_ != nullptr, "process not registered with an engine");
  engine_->send_from(id_, channel, msg);
}

void Process::set_timer(int timer_id, SimTime delay) {
  KLEX_CHECK(engine_ != nullptr, "process not registered with an engine");
  engine_->set_timer_for(id_, timer_id, delay);
}

void Process::cancel_timer(int timer_id) {
  KLEX_CHECK(engine_ != nullptr, "process not registered with an engine");
  engine_->cancel_timer_for(id_, timer_id);
}

SimTime Process::now() const {
  KLEX_CHECK(engine_ != nullptr, "process not registered with an engine");
  return engine_->now();
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(DelayModel delays, std::uint64_t seed,
               SchedulerKind scheduler)
    : delays_(delays),
      scheduler_kind_(scheduler),
      streams_(1),
      channel_rngs_(seed ^ kChannelRngSalt) {
  KLEX_REQUIRE(delays_.min_delay >= 1, "min_delay must be >= 1");
  KLEX_REQUIRE(delays_.max_delay >= delays_.min_delay,
               "max_delay must be >= min_delay");
  lanes_.emplace_back(scheduler_kind_);
}

void Engine::require_unsequenced(const char* what) const {
  KLEX_REQUIRE(!started_, "cannot ", what, " after start");
  for (const Lane& lane : lanes_) {
    KLEX_REQUIRE(lane.queue.empty(), "cannot ", what,
                 " with pending events");
  }
  for (const EventQueue& queue : stream_queues_) {
    KLEX_REQUIRE(queue.empty(), "cannot ", what, " with pending events");
  }
}

NodeId Engine::add_process(std::unique_ptr<Process> process) {
  KLEX_REQUIRE(process != nullptr, "null process");
  require_unsequenced("add processes");
  NodeId id = static_cast<NodeId>(processes_.size());
  process->engine_ = this;
  process->id_ = id;
  processes_.push_back(std::move(process));
  first_out_.push_back(-1);
  lookup_stale_ = true;
  timer_generations_.resize(timer_generations_.size() + kMaxTimers, 0);
  timer_seqs_.push_back(0);
  node_stream_.push_back(0);
  ++seq_stride_;
  return id;
}

void Engine::connect(NodeId from, int from_channel, NodeId to,
                     int to_channel) {
  KLEX_REQUIRE(from >= 0 && from < process_count(), "bad from node");
  KLEX_REQUIRE(to >= 0 && to < process_count(), "bad to node");
  KLEX_REQUIRE(from_channel >= 0, "bad from channel");
  KLEX_REQUIRE(to_channel >= 0, "bad to channel");
  KLEX_REQUIRE(!streams_explicit_, "wire channels before configure_streams");
  require_unsequenced("connect channels");

  std::int32_t& first = first_out_[static_cast<std::size_t>(from)];
  for (std::int32_t c = first; c != -1;
       c = next_out_[static_cast<std::size_t>(c)]) {
    KLEX_REQUIRE(
        channel_info_[static_cast<std::size_t>(c)].from_channel !=
            from_channel,
        "channel (", from, ",", from_channel, ") already connected");
  }

  const std::size_t index = channels_.size();
  Channel& channel = channels_.emplace_back();
  channel.rng = channel_rngs_.split(index);
  channel.to = to;
  channel.to_channel = to_channel;
  rings_.emplace_back();
  channel_info_.push_back(ChannelInfo{from, from_channel, to, to_channel});
  next_out_.push_back(first);
  first = static_cast<std::int32_t>(index);
  lookup_stale_ = true;
  ++seq_stride_;
}

void Engine::configure_lanes(const std::vector<int>& node_lane,
                             int lane_count) {
  KLEX_REQUIRE(!started_, "cannot repartition a started engine");
  KLEX_REQUIRE(!streams_explicit_,
               "configure lanes before streams (streams nest inside lanes)");
  KLEX_REQUIRE(lane_count >= 1 && lane_count <= kMaxLanes,
               "lane count must be in [1, ", kMaxLanes, "]");
  KLEX_REQUIRE(static_cast<int>(node_lane.size()) == process_count(),
               "one lane per node required");
  for (const Lane& lane : lanes_) {
    KLEX_REQUIRE(lane.queue.empty(),
                 "cannot repartition with pending events");
  }
  node_lane_.assign(node_lane.begin(), node_lane.end());
  for (std::int32_t lane : node_lane_) {
    KLEX_REQUIRE(lane >= 0 && lane < lane_count, "lane out of range");
  }

  lanes_.clear();
  lanes_.reserve(static_cast<std::size_t>(lane_count));
  for (int i = 0; i < lane_count; ++i) lanes_.emplace_back(scheduler_kind_);
}

void Engine::configure_streams(const std::vector<int>& node_stream,
                               const std::vector<std::uint64_t>& stream_seeds) {
  KLEX_REQUIRE(!streams_explicit_, "configure_streams runs once");
  KLEX_REQUIRE(!stream_seeds.empty(), "need at least one stream");
  KLEX_REQUIRE(static_cast<int>(node_stream.size()) == process_count(),
               "one stream per node required");
  require_unsequenced("re-stream");

  const int count = static_cast<int>(stream_seeds.size());
  streams_.assign(stream_seeds.size(), Stream{});
  node_stream_.assign(node_stream.begin(), node_stream.end());

  // Every stream nests inside exactly one lane: that lane's thread is the
  // single writer of the stream's census cells.
  std::vector<std::int32_t> home(stream_seeds.size(), -1);
  for (NodeId v = 0; v < process_count(); ++v) {
    std::int32_t s = node_stream_[static_cast<std::size_t>(v)];
    KLEX_REQUIRE(s >= 0 && s < count, "stream out of range for node ", v);
    std::int32_t lane = static_cast<std::int32_t>(lane_of(v));
    if (home[static_cast<std::size_t>(s)] == -1) {
      home[static_cast<std::size_t>(s)] = lane;
    }
    KLEX_REQUIRE(home[static_cast<std::size_t>(s)] == lane,
                 "stream ", s, " spans lanes (streams must nest in a lane)");
  }
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    streams_[s].home_lane = home[s] == -1 ? 0 : home[s];
  }

  // Re-key every channel rng from its stream's seed and its index among
  // the stream's channels (splits taken in wiring order, as a standalone
  // engine seeded with the stream seed takes them).
  std::vector<support::Rng> roots;
  roots.reserve(stream_seeds.size());
  for (std::uint64_t seed : stream_seeds) {
    roots.emplace_back(seed ^ kChannelRngSalt);
  }
  std::vector<std::uint64_t> rank(stream_seeds.size(), 0);
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const ChannelInfo& info = channel_info_[c];
    std::int32_t src = node_stream_[static_cast<std::size_t>(info.from)];
    std::int32_t dst = node_stream_[static_cast<std::size_t>(info.to)];
    KLEX_REQUIRE(src == dst, "channel ", info.from, "->", info.to,
                 " crosses streams (tenants must be channel-independent)");
    channels_[c].stream = src;
    channels_[c].rng = roots[static_cast<std::size_t>(src)].split(
        rank[static_cast<std::size_t>(src)]++);
  }
  seq_stride_ = channels_.size() + processes_.size() + streams_.size();

  // One queue per stream from here on; each lane orders its streams'
  // queues by their heads (lane queues stay empty). A stream's ring
  // window is 8 ticks per node, between 128 ticks and the default: its
  // bucket headers (64 B per node) follow the tenant's size, so hundreds
  // of small tenants add kilobytes, not a default ring each.
  std::vector<std::uint64_t> nodes(stream_seeds.size(), 0);
  for (std::int32_t s : node_stream_) ++nodes[static_cast<std::size_t>(s)];
  stream_queues_.clear();
  stream_queues_.reserve(stream_seeds.size());
  for (std::uint64_t count : nodes) {
    const std::uint32_t log2 = std::clamp<std::uint32_t>(
        static_cast<std::uint32_t>(std::bit_width(8 * count)),
        EventQueue::kMinLogBucketCount, EventQueue::kLogBucketCount);
    stream_queues_.emplace_back(scheduler_kind_, log2);
  }
  for (Lane& lane : lanes_) lane.heads.reset(stream_seeds.size());
  streams_explicit_ = true;
}

Process& Engine::process(NodeId id) {
  KLEX_REQUIRE(id >= 0 && id < process_count(), "bad node id ", id);
  return *processes_[static_cast<std::size_t>(id)];
}

const Process& Engine::process(NodeId id) const {
  KLEX_REQUIRE(id >= 0 && id < process_count(), "bad node id ", id);
  return *processes_[static_cast<std::size_t>(id)];
}

void Engine::size_ring_windows() {
  if (scheduler_kind_ != SchedulerKind::kCalendar) return;
  // The ring can hold an event at now + span only if the window exceeds
  // the span. Grow (never shrink, and only up to the bitmap cap) so the
  // longest delivery delay stays on the O(1) ring instead of falling
  // through to the overflow heap; a window that already covers it stays
  // exactly as built.
  SimTime span = delays_.max_delay;
  std::uint32_t log2 = EventQueue::kMinLogBucketCount;
  while (log2 < EventQueue::kMaxLogBucketCount &&
         static_cast<SimTime>(std::size_t{1} << log2) <= span) {
    ++log2;
  }
  for (Lane& lane : lanes_) {
    if (lane.queue.empty()) lane.queue.set_log_bucket_count(log2);
  }
  for (EventQueue& queue : stream_queues_) {
    if (queue.empty()) queue.set_log_bucket_count(log2);
  }
}

void Engine::boot() {
  started_ = true;
  // Wiring is closed from here on: lanes only ever read the table.
  if (lookup_stale_) rebuild_lookup();
  size_ring_windows();
  for (auto& process : processes_) {
    // Any participant delta fired from on_start must land in the node's
    // own stream cell (boot runs outside event execution, so the TLS
    // stream would otherwise stay 0).
    detail::t_current_stream = stream_of(process->id());
    process->on_start();
  }
  detail::t_current_stream = 0;
}

int Engine::channel_index_of(NodeId from, int from_channel) const {
  KLEX_CHECK(from >= 0 && from < process_count(), "bad node ", from);
  if (lookup_stale_) rebuild_lookup();
  const std::uint32_t begin = lookup_offset_[static_cast<std::size_t>(from)];
  const std::uint32_t width =
      lookup_offset_[static_cast<std::size_t>(from) + 1] - begin;
  KLEX_CHECK(from_channel >= 0 &&
                 static_cast<std::uint32_t>(from_channel) < width &&
                 lookup_[begin + static_cast<std::size_t>(from_channel)] != -1,
             "channel (", from, ",", from_channel, ") is not connected");
  return lookup_[begin + static_cast<std::size_t>(from_channel)];
}

void Engine::rebuild_lookup() const {
  // Node v's row spans its local channels 0 .. (highest wired) + 1.
  lookup_offset_.assign(processes_.size() + 1, 0);
  for (const ChannelInfo& info : channel_info_) {
    std::uint32_t& width =
        lookup_offset_[static_cast<std::size_t>(info.from) + 1];
    width = std::max(width, static_cast<std::uint32_t>(info.from_channel) + 1);
  }
  std::uint64_t total = 0;
  for (std::size_t v = 1; v < lookup_offset_.size(); ++v) {
    total += lookup_offset_[v];
    KLEX_CHECK(total <= std::uint64_t{0xFFFFFFFF},
               "channel lookup table overflow");
    lookup_offset_[v] = static_cast<std::uint32_t>(total);
  }
  lookup_.assign(static_cast<std::size_t>(total), -1);
  for (std::size_t c = 0; c < channel_info_.size(); ++c) {
    const ChannelInfo& info = channel_info_[c];
    lookup_[lookup_offset_[static_cast<std::size_t>(info.from)] +
            static_cast<std::size_t>(info.from_channel)] =
        static_cast<std::int32_t>(c);
  }
  lookup_stale_ = false;
}

std::array<std::uint64_t, Engine::kTrackedMessageTypes>&
Engine::in_flight_cells(Lane& src, std::int32_t stream) {
  return streams_explicit_
             ? streams_[static_cast<std::size_t>(stream)].in_flight_by_type
             : src.in_flight_by_type;
}

void Engine::schedule_delivery(Lane& src, int channel_index,
                               const Message& msg) {
  if (chaos_) {
    chaos_send(src, channel_index, msg);
  } else {
    enqueue_delivery(src, channel_index, msg, 0, true);
  }
}

void Engine::enqueue_delivery(Lane& src, int channel_index,
                              const Message& msg, SimTime jitter,
                              bool fresh) {
  Channel& ch = channels_[static_cast<std::size_t>(channel_index)];
  SimTime delay = delays_.min_delay +
                  static_cast<SimTime>(ch.rng.next_below(
                      delays_.max_delay - delays_.min_delay + 1));
  if (fresh) {
    ++src.in_flight;
    ++in_flight_cells(src, ch.stream)[type_bucket(msg.type)];
    if (jitter > 0) {
      SimTime extra = static_cast<SimTime>(
          ch.rng.next_below(static_cast<std::uint64_t>(jitter) + 1));
      if (extra > 0) {
        delay += extra;
        ++chaos_->link(channel_index).stats.jittered;
      }
    }
  }
  // FIFO: the delivery may not overtake earlier traffic on this channel.
  SimTime deliver_at = std::max(src.now + delay, ch.last_scheduled);
  ch.last_scheduled = deliver_at;

  Event event;
  event.at = deliver_at;
  event.seq = next_seq(ch.next_seq, static_cast<std::uint64_t>(channel_index));
  event.kind = EventKind::kDelivery;
  event.target = channel_index;
  event.payload = ch.epoch;
  Lane& dst = lanes_[static_cast<std::size_t>(lane_of(ch.to))];
  if (in_window_ && &dst != &src) {
    // Inside a parallel window the destination queue and the channel
    // ring belong to another thread; park the delivery in the source
    // lane's outbox -- end_window() merges it at the barrier, which is
    // sound because the delivery time is >= the next window start.
    src.outbox.push_back(Outbound{channel_index, event, msg});
  } else {
    rings_[static_cast<std::size_t>(channel_index)].push_back(msg);
    push_event(dst, ch.stream, event);
  }
}

void Engine::configure_chaos(const ChaosConfig& config) {
  KLEX_REQUIRE(!started_, "configure chaos before start");
  KLEX_REQUIRE(chaos_ == nullptr, "configure_chaos runs once");
  chaos_ = std::make_unique<ChaosModel>(channel_count(), config);
}

void Engine::chaos_burst(const ChaosConfig& config, SimTime duration) {
  KLEX_REQUIRE(chaos_ != nullptr, "chaos_burst needs configure_chaos");
  chaos_->begin_burst(config, lanes_[0].now + duration);
}

void Engine::chaos_burst_channel_range(int begin, int end,
                                       const ChaosConfig& config,
                                       SimTime duration) {
  KLEX_REQUIRE(chaos_ != nullptr, "chaos_burst needs configure_chaos");
  chaos_->begin_burst_channels(begin, end, config, lanes_[0].now + duration);
}

void Engine::chaos_burst_links(const std::vector<std::pair<int, int>>& links,
                               const ChaosConfig& config, SimTime duration) {
  KLEX_REQUIRE(chaos_ != nullptr, "chaos_burst needs configure_chaos");
  std::vector<char> member(channel_info_.size(), 0);
  for (std::size_t i = 0; i < channel_info_.size(); ++i) {
    const ChannelInfo& info = channel_info_[i];
    for (const auto& [a, b] : links) {
      if ((info.from == a && info.to == b) ||
          (info.from == b && info.to == a)) {
        member[i] = 1;
        break;
      }
    }
  }
  chaos_->begin_burst_members(std::move(member), config,
                              lanes_[0].now + duration);
}

void Engine::chaos_send(Lane& src, int channel_index, const Message& msg) {
  Channel& ch = channels_[static_cast<std::size_t>(channel_index)];
  ChaosModel::Link& link = chaos_->link(channel_index);
  const ChaosConfig& cfg = chaos_->effective(channel_index, src.now);

  // Holds created before this send mature after it is scheduled (the
  // send is the traffic that overtakes them); snapshot the boundary so a
  // hold created by this very send does not age itself.
  const std::uint64_t mature_below = link.next_hold_id;

  if (cfg.drop_p > 0.0 && ch.rng.next_bool(cfg.drop_p)) {
    // Lost at send time: no ring entry, no event, no census increment.
    // The sender already gave the token up, so the census goes short --
    // real in-model damage the root timeout must repair.
    ++link.stats.dropped;
  } else if (cfg.dup_p > 0.0 && ch.rng.next_bool(cfg.dup_p)) {
    ++link.stats.duplicated;
    enqueue_delivery(src, channel_index, msg, cfg.jitter, true);
    enqueue_delivery(src, channel_index, msg, cfg.jitter, true);
  } else if (cfg.reorder_p > 0.0 && ch.rng.next_bool(cfg.reorder_p)) {
    ++link.stats.reordered;
    // Held back: stays in the in-flight census (released without
    // re-counting), overtaken by up to reorder_window later sends.
    ++src.in_flight;
    ++in_flight_cells(src, ch.stream)[type_bucket(msg.type)];
    const std::uint64_t id = link.next_hold_id++;
    const int release_after = 1 + static_cast<int>(ch.rng.next_below(
        static_cast<std::uint64_t>(cfg.reorder_window)));
    link.held.push_back(ChaosModel::Held{msg, release_after, id});
    // Guaranteed release on a quiet channel: a flush event on the source
    // lane's own queue (safe to push mid-window). Stale flushes after a
    // channel clear find an empty hold buffer (ids never reset).
    Event flush;
    flush.at = src.now + cfg.reorder_flush_delay;
    flush.seq =
        next_seq(ch.next_seq, static_cast<std::uint64_t>(channel_index));
    flush.kind = EventKind::kChaosFlush;
    flush.target = channel_index;
    flush.payload = id;
    push_event(src, ch.stream, flush);
  } else {
    enqueue_delivery(src, channel_index, msg, cfg.jitter, true);
  }

  chaos_release(src, channel_index, mature_below, /*flush=*/false);
}

void Engine::chaos_release(Lane& src, int channel_index, std::uint64_t bound,
                           bool flush) {
  ChaosModel::Link& link = chaos_->link(channel_index);
  if (link.held.empty()) return;
  // One in-place pass: a due hold is released where it stands (in hold
  // order, so the channel rng draws in that order) and the rest compact
  // toward the front. A release touches the rng, the ring and the
  // queues, never the hold buffer, so nothing is copied aside.
  std::size_t out = 0;
  for (std::size_t i = 0; i < link.held.size(); ++i) {
    ChaosModel::Held& held = link.held[i];
    if (flush ? held.id <= bound
              : held.id < bound && --held.release_after <= 0) {
      enqueue_delivery(src, channel_index, held.msg, 0, false);
    } else {
      if (out != i) link.held[out] = std::move(held);
      ++out;
    }
  }
  link.held.resize(out);
}

void Engine::send_from(NodeId from, int channel, const Message& msg) {
  int index = channel_index_of(from, channel);
  Lane& src = lanes_[static_cast<std::size_t>(lane_of(from))];
  schedule_delivery(src, index, msg);
  ++src.messages_sent;
  if (streams_explicit_) {
    ++streams_[static_cast<std::size_t>(
                   channels_[static_cast<std::size_t>(index)].stream)]
          .sent_by_type[type_bucket(msg.type)];
  } else {
    ++src.sent_by_type[type_bucket(msg.type)];
  }
  if (!observers_.empty()) notify_send(from, channel, msg);
}

void Engine::notify_send(NodeId from, int channel, const Message& msg) {
  for (SimObserver* obs : observers_) {
    obs->on_send(now(), from, channel, msg);
  }
}

void Engine::notify_deliver(NodeId to, int channel, const Message& msg) {
  for (SimObserver* obs : observers_) {
    obs->on_deliver(now(), to, channel, msg);
  }
}

void Engine::set_timer_for(NodeId node, int timer_id, SimTime delay) {
  KLEX_REQUIRE(node >= 0 && node < process_count(), "bad node ", node);
  KLEX_REQUIRE(timer_id >= 0 && timer_id < kMaxTimers,
               "timer ids must be small");
  std::uint64_t& generation =
      timer_generations_[static_cast<std::size_t>(node) * kMaxTimers +
                         static_cast<std::size_t>(timer_id)];
  ++generation;  // invalidates any pending firing of this timer

  Lane& lane = lanes_[static_cast<std::size_t>(lane_of(node))];
  Event event;
  event.at = lane.now + delay;
  event.seq = next_seq(timer_seqs_[static_cast<std::size_t>(node)],
                       channels_.size() + static_cast<std::size_t>(node));
  event.kind = EventKind::kTimer;
  event.target = node;
  event.timer_id = static_cast<std::uint8_t>(timer_id);
  event.payload = generation;
  push_event(lane, node_stream_[static_cast<std::size_t>(node)], event);
}

void Engine::cancel_timer_for(NodeId node, int timer_id) {
  KLEX_REQUIRE(node >= 0 && node < process_count(), "bad node ", node);
  if (timer_id >= 0 && timer_id < kMaxTimers) {
    ++timer_generations_[static_cast<std::size_t>(node) * kMaxTimers +
                         static_cast<std::size_t>(timer_id)];
  }
}

void Engine::schedule(SimTime delay, std::function<void()> fn) {
  // Inside an event handler the executing stream and lane are ambient
  // (run_event maintains them). Outside tenant-scoped events the callback
  // is global: it keeps the ambient stream's seq slot, so it sequences
  // exactly as before, but spans that contain it run merged-serial.
  schedule_callback(detail::t_current_stream, detail::t_current_lane, delay,
                    std::move(fn),
                    streams_explicit_ && detail::t_scoped_stream < 0);
}

void Engine::schedule_in_stream(int stream, SimTime delay,
                                std::function<void()> fn) {
  schedule_callback(stream, stream_at(stream).home_lane, delay,
                    std::move(fn), false);
}

void Engine::schedule_callback(int stream, int lane_index, SimTime delay,
                               std::function<void()> fn, bool global) {
  // Callback seq counters and the slab are shared across lanes; the
  // parallel engine stops opening windows once any callback exists, so
  // a call from inside one is a protocol error.
  KLEX_CHECK(!in_window_, "callbacks cannot be scheduled inside a window");
  std::uint32_t slot;
  if (!callback_free_slots_.empty()) {
    slot = callback_free_slots_.back();
    callback_free_slots_.pop_back();
    callback_slab_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(callback_slab_.size());
    callback_slab_.push_back(std::move(fn));
    ++callback_slots_created_;
  }

  Event event;
  event.kind = global ? EventKind::kGlobalCallback : EventKind::kCallback;
  event.target = stream;
  event.payload = slot;
  push_callback_event(stream, lane_index, delay, event);
  if (global) ++pending_global_callbacks_;
}

void Engine::push_callback_event(int stream, int lane_index, SimTime delay,
                                 Event& event) {
  Lane& lane = lanes_[static_cast<std::size_t>(lane_index)];
  event.at = lane.now + delay;
  event.seq = next_seq(streams_[static_cast<std::size_t>(stream)]
                           .next_callback_seq,
                       channels_.size() + processes_.size() +
                           static_cast<std::size_t>(stream));
  push_event(lane, stream, event);
  ++pending_callbacks_;
  ++callbacks_scheduled_;
}

int Engine::add_action_handler(ActionHandler* handler) {
  KLEX_REQUIRE(handler != nullptr, "null action handler");
  for (std::size_t i = 0; i < action_slots_.size(); ++i) {
    ActionSlot& slot = action_slots_[i];
    if (slot.handler == nullptr && slot.pending == 0) {
      slot.handler = handler;
      return static_cast<int>(i);
    }
  }
  KLEX_REQUIRE(action_slots_.size() < kMaxActionHandlers,
               "more than ", kMaxActionHandlers, " action handlers");
  action_slots_.push_back(ActionSlot{handler, 0});
  return static_cast<int>(action_slots_.size() - 1);
}

void Engine::remove_action_handler(int handler) {
  KLEX_REQUIRE(handler >= 0 &&
                   static_cast<std::size_t>(handler) < action_slots_.size(),
               "bad action handler ", handler);
  action_slots_[static_cast<std::size_t>(handler)].handler = nullptr;
}

void Engine::schedule_action(int handler, NodeId node, std::uint8_t action,
                             SimTime delay, std::uint64_t epoch) {
  // Same single-thread rule as callbacks: actions share their seq
  // counters, and the handler slots are not lane-local.
  KLEX_CHECK(!in_window_, "actions cannot be scheduled inside a window");
  KLEX_CHECK(handler >= 0 &&
                 static_cast<std::size_t>(handler) < action_slots_.size() &&
                 action_slots_[static_cast<std::size_t>(handler)].handler !=
                     nullptr,
             "action for an unregistered handler ", handler);
  KLEX_CHECK(node >= 0, "bad action node ", node);
  const int stream = stream_of(node);
  Event event;
  event.kind = EventKind::kAction;
  event.target = node;
  event.handler = static_cast<std::uint8_t>(handler);
  event.action = action;
  event.payload = epoch;
  push_callback_event(stream, stream_at(stream).home_lane, delay, event);
  ++action_slots_[static_cast<std::size_t>(handler)].pending;
}

void Engine::run_action(const Event& event) {
  --pending_callbacks_;
  ActionSlot& slot = action_slots_[event.handler];
  --slot.pending;
  // A removed handler's actions retire here without a receiver.
  if (slot.handler != nullptr) {
    slot.handler->on_action(event.target, event.action, event.payload);
  }
}

void Engine::push_stream_event(std::int32_t stream, const Event& event) {
  const int scoped = detail::t_scoped_stream;
  KLEX_CHECK(scoped < 0 || scoped == stream, "an event of stream ", scoped,
             " scheduled into stream ", stream,
             " (tenant-scoped events stay in their own stream)");
  EventQueue& queue = stream_queues_[static_cast<std::size_t>(stream)];
  queue.push(event);
  // The executing stream is re-keyed by its executor after the event (or
  // its whole tenant-major run); any other push moves that head now.
  if (stream != scoped) {
    lanes_[static_cast<std::size_t>(
               streams_[static_cast<std::size_t>(stream)].home_lane)]
        .heads.update(stream, queue);
  }
}

void Engine::inject_message(NodeId from, int from_channel,
                            const Message& msg) {
  // Identical to send_from but without observer traffic accounting as a
  // protocol send: the message "was already in the channel" (arbitrary
  // initial content). It still obeys FIFO and delay bounds.
  int index = channel_index_of(from, from_channel);
  schedule_delivery(lanes_[static_cast<std::size_t>(lane_of(from))], index,
                    msg);
}

void Engine::clear_channels() {
  // Bumping the epoch orphans every pending delivery event of this
  // channel (dispatch drops them), so the FIFO clock can restart: without
  // the reset, post-fault traffic would inherit pre-fault last_scheduled
  // clamps, and without the epoch a stale event would deliver post-fault
  // traffic earlier than its sampled delay.
  for (MessageRing& ring : rings_) ring.clear();
  for (Channel& ch : channels_) {
    ++ch.epoch;
    ch.last_scheduled = 0;
  }
  // All channels are now empty: the per-lane in-flight and per-type
  // census counters reset as writes instead of a decrement per dropped
  // message (their cross-lane sums are the tracked quantity).
  for (Lane& lane : lanes_) {
    lane.in_flight = 0;
    lane.in_flight_by_type.fill(0);
  }
  for (Stream& stream : streams_) {
    stream.in_flight_by_type.fill(0);
  }
  // Held-back messages die with the channel content (their counters were
  // zeroed above; pending flush events find empty hold buffers).
  if (chaos_) chaos_->drop_all_holds();
}

void Engine::clear_channel_range(int begin, int end) {
  KLEX_REQUIRE(streams_explicit_,
               "clear_channel_range needs explicit streams (per-tenant "
               "counter decrements route through the channel's stream)");
  KLEX_REQUIRE(begin >= 0 && begin <= end && end <= channel_count(),
               "bad channel range [", begin, ", ", end, ")");
  for (int i = begin; i < end; ++i) {
    const std::size_t c = static_cast<std::size_t>(i);
    Channel& ch = channels_[c];
    Stream& stream = streams_[static_cast<std::size_t>(ch.stream)];
    Lane& src =
        lanes_[static_cast<std::size_t>(lane_of(channel_info_[c].from))];
    // Per-message decrements instead of clear_channels' reset-to-zero:
    // other tenants' in-flight counts must survive untouched.
    rings_[c].for_each([&](const Message& msg) {
      --stream.in_flight_by_type[type_bucket(msg.type)];
      --src.in_flight;
    });
    rings_[c].clear();
    if (chaos_) {
      ChaosModel::Link& link = chaos_->link(i);
      for (const ChaosModel::Held& held : link.held) {
        --stream.in_flight_by_type[type_bucket(held.msg.type)];
        --src.in_flight;
      }
      link.held.clear();
    }
    ++ch.epoch;
    ch.last_scheduled = 0;
  }
}

int Engine::channel_backlog(NodeId from, int from_channel) const {
  int index = channel_index_of(from, from_channel);
  return static_cast<int>(rings_[static_cast<std::size_t>(index)].size());
}

SimTime Engine::now() const {
  return lanes_[static_cast<std::size_t>(detail::t_current_lane)].now;
}

SimTime Engine::next_event_time() const {
  if (streams_explicit_) {
    SimTime best = kTimeInfinity;
    for (const Lane& lane : lanes_) {
      if (!lane.heads.empty()) best = std::min(best, lane.heads.top().at);
    }
    return best;
  }
  if (lanes_.size() == 1) return lanes_[0].queue.top_time();
  SimTime best = kTimeInfinity;
  for (const Lane& lane : lanes_) {
    best = std::min(best, lane.queue.top_time());
  }
  return best;
}

std::uint64_t Engine::messages_sent() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.messages_sent;
  return total;
}

std::uint64_t Engine::messages_delivered() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.messages_delivered;
  return total;
}

std::uint64_t Engine::events_executed() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.events_executed;
  return total;
}

std::uint64_t Engine::in_flight_messages() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.in_flight;
  return total;
}

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  events_executed += other.events_executed;
  messages_sent += other.messages_sent;
  messages_delivered += other.messages_delivered;
  callbacks_scheduled += other.callbacks_scheduled;
  callback_slots_created += other.callback_slots_created;
  max_heap_size += other.max_heap_size;
  in_flight_walks += other.in_flight_walks;
  bucket_window = std::max(bucket_window, other.bucket_window);
  chaos_dropped += other.chaos_dropped;
  chaos_duplicated += other.chaos_duplicated;
  chaos_reordered += other.chaos_reordered;
  chaos_jittered += other.chaos_jittered;
  scheduler.bucket_inserts += other.scheduler.bucket_inserts;
  scheduler.bucket_scans += other.scheduler.bucket_scans;
  scheduler.overflow_pushes += other.scheduler.overflow_pushes;
  scheduler.overflow_pops += other.scheduler.overflow_pops;
  scheduler.bucket_sorts += other.scheduler.bucket_sorts;
  scheduler.sorted_events += other.scheduler.sorted_events;
  return *this;
}

EngineStats Engine::stats() const {
  EngineStats stats;
  auto add_queue = [&stats](const EventQueue& queue) {
    stats.max_heap_size += static_cast<std::uint64_t>(queue.max_size());
    const SchedulerCounters& c = queue.counters();
    stats.scheduler.bucket_inserts += c.bucket_inserts;
    stats.scheduler.bucket_scans += c.bucket_scans;
    stats.scheduler.overflow_pushes += c.overflow_pushes;
    stats.scheduler.overflow_pops += c.overflow_pops;
    stats.scheduler.bucket_sorts += c.bucket_sorts;
    stats.scheduler.sorted_events += c.sorted_events;
  };
  for (const Lane& lane : lanes_) {
    stats.events_executed += lane.events_executed;
    stats.messages_sent += lane.messages_sent;
    stats.messages_delivered += lane.messages_delivered;
    add_queue(lane.queue);
  }
  for (const EventQueue& queue : stream_queues_) add_queue(queue);
  stats.callbacks_scheduled = callbacks_scheduled_;
  stats.callback_slots_created = callback_slots_created_;
  stats.in_flight_walks = in_flight_walks_;
  stats.bucket_window =
      static_cast<std::uint64_t>(lanes_[0].queue.bucket_window());
  if (chaos_) {
    ChaosStats chaos = chaos_->totals();
    stats.chaos_dropped = chaos.dropped;
    stats.chaos_duplicated = chaos.duplicated;
    stats.chaos_reordered = chaos.reordered;
    stats.chaos_jittered = chaos.jittered;
  }
  return stats;
}

void Engine::dispatch(Lane& lane, const Event& event) {
  switch (event.kind) {
    case EventKind::kDelivery: {
      const std::size_t c = static_cast<std::size_t>(event.target);
      const Channel& ch = channels_[c];
      if (event.payload != ch.epoch) {
        // The channel was cleared by fault injection after this delivery
        // was scheduled; the message no longer exists.
        return;
      }
      MessageRing& ring = rings_[c];
      KLEX_CHECK(!ring.empty(), "delivery event without a message");
      // FIFO: the head of the ring is exactly this event's message
      // (delivery times per channel are monotone, ties keep send order).
      Message msg = ring.front();
      ring.pop_front();
      if (streams_explicit_) {
        // The stream cell is exact (same cell as the increment); it is
        // also same-thread, because streams nest inside lanes and
        // channels never cross streams.
        --streams_[static_cast<std::size_t>(ch.stream)]
              .in_flight_by_type[type_bucket(msg.type)];
      } else {
        --lane.in_flight_by_type[type_bucket(msg.type)];
      }
      --lane.in_flight;
      ++lane.messages_delivered;
      NodeId to = ch.to;
      int channel = ch.to_channel;
      processes_[static_cast<std::size_t>(to)]->on_message(channel, msg);
      // Observers run after the handler: they then see a consistent
      // configuration boundary (the message has been fully absorbed,
      // stored or forwarded), which global-invariant checkers rely on.
      if (!observers_.empty()) notify_deliver(to, channel, msg);
      return;
    }
    case EventKind::kTimer: {
      if (timer_generations_[static_cast<std::size_t>(event.target) *
                                 kMaxTimers +
                             static_cast<std::size_t>(event.timer_id)] !=
          event.payload) {
        return;  // stale (rearmed or cancelled)
      }
      processes_[static_cast<std::size_t>(event.target)]->on_timer(
          event.timer_id);
      return;
    }
    case EventKind::kGlobalCallback:
      --pending_global_callbacks_;
      [[fallthrough]];
    case EventKind::kCallback: {
      --pending_callbacks_;
      std::uint32_t slot = static_cast<std::uint32_t>(event.payload);
      std::function<void()> fn = std::move(callback_slab_[slot]);
      callback_slab_[slot] = nullptr;
      callback_free_slots_.push_back(slot);
      fn();
      return;
    }
    case EventKind::kChaosFlush: {
      // Runs on the channel's source lane (the queue the hold pushed
      // it to), so the hold buffer stays single-writer.
      chaos_release(lane, event.target, event.payload, /*flush=*/true);
      return;
    }
    case EventKind::kAction:
      run_action(event);
      return;
  }
}

int Engine::stream_of_event(const Event& event) const {
  // The executing stream is the owner of the event's sequencing slot.
  switch (event.kind) {
    case EventKind::kTimer:
      return node_stream_[static_cast<std::size_t>(event.target)];
    case EventKind::kAction:
      return stream_of(event.target);
    case EventKind::kCallback:
    case EventKind::kGlobalCallback:
      return event.target;
    default:
      return channels_[static_cast<std::size_t>(event.target)].stream;
  }
}

int Engine::run_event(Lane& lane, int lane_index, const Event& event) {
  const int stream = stream_of_event(event);
  ++lane.events_executed;
  // Explicit streams nest in lanes, so this cell is single-writer; the
  // plain engine's one stream reads the lane totals instead.
  int scoped = -1;
  if (streams_explicit_) {
    ++streams_[static_cast<std::size_t>(stream)].events_executed;
    if (event.kind != EventKind::kGlobalCallback) scoped = stream;
  }
  detail::DispatchContext context(stream, scoped, lane_index);
  detail::t_current_event_seq = event.seq;
  dispatch(lane, event);
  return stream;
}

void Engine::run_stream_event(Lane& lane, int stream, const Event& event) {
  ++lane.events_executed;
  ++streams_[static_cast<std::size_t>(stream)].events_executed;
  detail::t_current_event_seq = event.seq;
  dispatch(lane, event);
}

void Engine::execute(Lane& lane, int lane_index, const Event& event) {
  KLEX_CHECK(event.at >= lane.now, "event queue went backwards");
  if (event.at != lanes_[0].now) {
    // Time advanced: slide every lane clock and calendar window (the
    // merged-serial loop keeps all lanes in lockstep) before the handler
    // can schedule anything at the new time.
    for (Lane& l : lanes_) {
      l.now = event.at;
      l.queue.advance_to(event.at);
    }
  }
  if (lanes_.size() == 1 && !streams_explicit_) {
    // The serial plain engine needs no thread-local context: lane and
    // stream are 0, and observers read the event seq only while they
    // buffer inside a window. This loop is the hot path of every P = 1
    // run, so it skips the six thread-local writes.
    ++lane.events_executed;
    dispatch(lane, event);
    return;
  }
  last_stream_ = run_event(lane, lane_index, event);
}

bool Engine::pop_next(SimTime t, Event* out, int* lane_out) {
  if (lanes_.size() == 1) {
    if (!lanes_[0].queue.pop_min_until(t, out)) return false;
    *lane_out = 0;
    return true;
  }
  // Merged-serial order: the global (at, seq) minimum across lanes. The
  // per-entity slots make the key unique, so this order is identical
  // whatever queue an event sits in -- and identical to the windowed
  // execution.
  int best = -1;
  Event best_event;
  for (int i = 0; i < static_cast<int>(lanes_.size()); ++i) {
    EventQueue& queue = lanes_[static_cast<std::size_t>(i)].queue;
    if (queue.empty()) continue;
    const Event& candidate = queue.top();
    if (best < 0 || candidate.before(best_event)) {
      best = i;
      best_event = candidate;
    }
  }
  if (best < 0 || best_event.at > t) return false;
  lanes_[static_cast<std::size_t>(best)].queue.pop();
  *out = best_event;
  *lane_out = best;
  return true;
}

bool Engine::execute_next(SimTime t) {
  if (streams_explicit_) return execute_next_stream(t);
  Event event;
  int lane;
  if (!pop_next(t, &event, &lane)) return false;
  execute(lanes_[static_cast<std::size_t>(lane)], lane, event);
  return true;
}

bool Engine::execute_next_stream(SimTime t) {
  // Merged-serial order over the per-stream queues: the earliest head of
  // the earliest lane.
  int best = -1;
  for (int i = 0; i < lane_count(); ++i) {
    const StreamHeads& heads = lanes_[static_cast<std::size_t>(i)].heads;
    if (heads.empty()) continue;
    if (best < 0 ||
        heads.top().before(lanes_[static_cast<std::size_t>(best)].heads.top())) {
      best = i;
    }
  }
  if (best < 0) return false;
  Lane& lane = lanes_[static_cast<std::size_t>(best)];
  if (lane.heads.top().at > t) return false;
  const std::int32_t stream = lane.heads.top().stream;
  EventQueue& queue = stream_queues_[static_cast<std::size_t>(stream)];
  Event event;
  const bool popped = queue.pop_min_until(t, &event);
  KLEX_CHECK(popped, "stream ", stream, " head out of date");
  KLEX_CHECK(event.at >= lane.now, "event queue went backwards");
  // The merged loop keeps every lane clock in lockstep.
  for (Lane& l : lanes_) l.now = event.at;
  queue.advance_to(event.at);
  last_stream_ = run_event(lane, best, event);
  lane.heads.update(stream, queue);
  return true;
}

bool Engine::step() {
  start();
  return execute_next(kTimeInfinity);
}

void Engine::run_until(SimTime t) {
  start();
  if (streams_explicit_) {
    if (tenant_major()) {
      run_streams_until(t, [](int, const Event&) {});
    } else {
      while (execute_next_stream(t)) {
      }
    }
    sync_lanes_to(t);
    return;
  }
  Event event;
  int lane;
  while (pop_next(t, &event, &lane)) {
    execute(lanes_[static_cast<std::size_t>(lane)], lane, event);
  }
  sync_lanes_to(t);
}

std::uint64_t Engine::run_events(std::uint64_t max_events) {
  start();
  std::uint64_t executed = 0;
  while (executed < max_events && execute_next(kTimeInfinity)) ++executed;
  return executed;
}

bool Engine::run_until_message_quiescence(std::uint64_t max_events) {
  start();
  std::uint64_t executed = 0;
  // Quiescent when no message is in flight and no workload callback is
  // pending. Timer events are deliberately excluded: variants without the
  // controller set no timers, and for the full protocol the root's timeout
  // keeps the system live forever (so this method only makes sense for the
  // ladder variants and for drained workloads).
  while (in_flight_messages() > 0 || pending_callbacks() > 0) {
    if (executed >= max_events) return false;
    if (!execute_next(kTimeInfinity)) {
      return in_flight_messages() == 0 && pending_callbacks() == 0;
    }
    ++executed;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Window protocol (see sim::ParallelEngine)
// ---------------------------------------------------------------------------

void Engine::begin_window(SimTime start) {
  KLEX_CHECK(!in_window_, "nested parallel window");
  in_window_ = true;
  for (Lane& lane : lanes_) {
    KLEX_CHECK(lane.now <= start, "window opens behind a lane clock");
    lane.now = start;
    lane.queue.advance_to(start);
  }
}

void Engine::run_lane_window(int lane_index, SimTime t) {
  if (streams_explicit_) {
    auto no_hook = [](int, const Event&) {};
    run_lane_streams(lane_index, t, no_hook);
    return;
  }
  Lane& lane = lanes_[static_cast<std::size_t>(lane_index)];
  Event event;
  while (lane.queue.pop_min_until(t, &event)) {
    if (event.at != lane.now) {
      lane.now = event.at;
      lane.queue.advance_to(event.at);
    }
    // last_stream_ is deliberately not updated here -- it serves the
    // merged-serial stabilization loop only.
    run_event(lane, lane_index, event);
  }
}

void Engine::end_window() {
  KLEX_CHECK(in_window_, "end_window without begin_window");
  in_window_ = false;
  // Merge outboxes in lane order: each channel has exactly one source
  // node, hence one source lane, so per-channel FIFO push order is
  // preserved; destination queues order by (at, seq) regardless.
  for (Lane& src : lanes_) {
    for (const Outbound& out : src.outbox) {
      const std::size_t c = static_cast<std::size_t>(out.channel);
      rings_[c].push_back(out.msg);
      push_event(lanes_[static_cast<std::size_t>(lane_of(channels_[c].to))],
                 channels_[c].stream, out.event);
    }
    src.outbox.clear();
  }
  // Barrier hook for window-safe observers: serial context, every event
  // of the closed window visible -- they merge their per-lane record
  // buffers into (at, seq) order here.
  for (SimObserver* observer : observers_) {
    if (observer->window_safe()) observer->on_window_merge();
  }
}

void Engine::sync_lanes_to(SimTime t) {
  for (Lane& lane : lanes_) {
    if (lane.now < t) {
      lane.now = t;
      lane.queue.advance_to(t);
    }
  }
}

}  // namespace klex::sim
