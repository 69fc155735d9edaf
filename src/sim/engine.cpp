#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
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

Engine::Engine(DelayModel delays, std::uint64_t seed)
    : delays_(delays),
      lanes_(1),
      callback_seqs_(1, 0),
      channel_rngs_(seed ^ kChannelRngSalt) {
  KLEX_REQUIRE(delays_.min_delay >= 1, "min_delay must be >= 1");
  KLEX_REQUIRE(delays_.max_delay >= delays_.min_delay,
               "max_delay must be >= min_delay");
  build_queues({0}, {EventQueue::kLogBucketCount});
}

void Engine::require_unsequenced(const char* what) const {
  KLEX_REQUIRE(!started_, "cannot ", what, " after start");
  for (const Queue& queue : queues_) {
    KLEX_REQUIRE(queue.events.empty(), "cannot ", what,
                 " with pending events");
  }
}

void Engine::build_queues(const std::vector<std::int32_t>& lanes,
                          const std::vector<std::uint32_t>& log_buckets) {
  queues_.clear();
  queues_.reserve(lanes.size());
  for (std::size_t q = 0; q < lanes.size(); ++q) {
    queues_.emplace_back(queue_kind_, log_buckets[q], lanes[q]);
  }
  for (Lane& lane : lanes_) {
    lane.heads.reset(queues_.size());
    lane.due.clear();
  }
  // A plain engine's lane runs its own queue in every span.
  if (!streams_explicit_) {
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      lanes_[static_cast<std::size_t>(lanes[q])].due.push_back(
          static_cast<std::int32_t>(q));
    }
  }
  for (Channel& channel : channels_) {
    channel.queue = node_queue_[static_cast<std::size_t>(channel.to)];
  }
}

void Engine::use_heap_queues() {
  require_unsequenced("swap queues");
  queue_kind_ = SchedulerKind::kBinaryHeap;
  for (Queue& queue : queues_) {
    queue.events = EventQueue(
        queue_kind_, static_cast<std::uint32_t>(std::countr_zero(
                         queue.events.bucket_window())));
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
  node_queue_.push_back(0);
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
  channel.queue = node_queue_[static_cast<std::size_t>(to)];
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
  require_unsequenced("repartition");
  for (int lane : node_lane) {
    KLEX_REQUIRE(lane >= 0 && lane < lane_count, "lane out of range");
  }
  // A plain engine's queue q is lane q's.
  node_queue_.assign(node_lane.begin(), node_lane.end());

  lanes_.clear();
  lanes_.resize(static_cast<std::size_t>(lane_count));
  std::vector<std::int32_t> lanes(static_cast<std::size_t>(lane_count));
  std::iota(lanes.begin(), lanes.end(), 0);
  build_queues(lanes, std::vector<std::uint32_t>(
                          lanes.size(), EventQueue::kLogBucketCount));
}

void Engine::configure_streams(const std::vector<int>& node_stream,
                               const std::vector<std::uint64_t>& stream_seeds) {
  KLEX_REQUIRE(!streams_explicit_, "configure_streams runs once");
  KLEX_REQUIRE(!stream_seeds.empty(), "need at least one stream");
  KLEX_REQUIRE(static_cast<int>(node_stream.size()) == process_count(),
               "one stream per node required");
  require_unsequenced("re-stream");

  const int count = static_cast<int>(stream_seeds.size());
  // Every stream nests inside exactly one lane: that lane's thread is the
  // single writer of the stream's queue and census cells.
  std::vector<std::int32_t> home(stream_seeds.size(), -1);
  std::vector<std::uint64_t> nodes(stream_seeds.size(), 0);
  for (NodeId v = 0; v < process_count(); ++v) {
    std::int32_t s = node_stream[static_cast<std::size_t>(v)];
    KLEX_REQUIRE(s >= 0 && s < count, "stream out of range for node ", v);
    std::int32_t lane = static_cast<std::int32_t>(lane_of(v));
    if (home[static_cast<std::size_t>(s)] == -1) {
      home[static_cast<std::size_t>(s)] = lane;
    }
    KLEX_REQUIRE(home[static_cast<std::size_t>(s)] == lane,
                 "stream ", s, " spans lanes (streams must nest in a lane)");
    ++nodes[static_cast<std::size_t>(s)];
  }
  for (std::int32_t& lane : home) lane = std::max(lane, 0);
  // A stream's ring window is 8 ticks per node, between 128 ticks and a
  // lane queue's default: its bucket headers (64 B per node) follow the
  // tenant's size, so hundreds of small tenants add kilobytes, not a
  // default ring each.
  std::vector<std::uint32_t> log_buckets;
  log_buckets.reserve(nodes.size());
  for (std::uint64_t size : nodes) {
    log_buckets.push_back(std::clamp<std::uint32_t>(
        static_cast<std::uint32_t>(std::bit_width(8 * size)),
        EventQueue::kMinLogBucketCount, EventQueue::kLogBucketCount));
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
    std::int32_t src = node_stream[static_cast<std::size_t>(info.from)];
    std::int32_t dst = node_stream[static_cast<std::size_t>(info.to)];
    KLEX_REQUIRE(src == dst, "channel ", info.from, "->", info.to,
                 " crosses streams (tenants must be channel-independent)");
    channels_[c].rng = roots[static_cast<std::size_t>(src)].split(
        rank[static_cast<std::size_t>(src)]++);
  }

  // One queue per stream from here on, each ordered by its lane's heads.
  streams_explicit_ = true;
  callback_seqs_.assign(stream_seeds.size(), 0);
  node_queue_.assign(node_stream.begin(), node_stream.end());
  seq_stride_ = channels_.size() + processes_.size() + callback_seqs_.size();
  build_queues(home, log_buckets);
}

Process& Engine::process(NodeId id) {
  KLEX_REQUIRE(id >= 0 && id < process_count(), "bad node id ", id);
  return *processes_[static_cast<std::size_t>(id)];
}

const Process& Engine::process(NodeId id) const {
  KLEX_REQUIRE(id >= 0 && id < process_count(), "bad node id ", id);
  return *processes_[static_cast<std::size_t>(id)];
}

namespace {
// The boot sizing rule: the smallest ring window (as a power of two,
// from kMinLogBucketCount up to the bitmap cap) that exceeds the longest
// delivery delay, so every delivery stays on the O(1) ring instead of
// falling through to the overflow heap.
std::uint32_t ring_log2_for(SimTime max_delay) {
  std::uint32_t log2 = EventQueue::kMinLogBucketCount;
  while (log2 < EventQueue::kMaxLogBucketCount &&
         static_cast<SimTime>(std::size_t{1} << log2) <= max_delay) {
    ++log2;
  }
  return log2;
}
}  // namespace

void Engine::size_ring_windows() {
  // Grow (never shrink) each queue to the rule's window; a window that
  // already covers the longest delay stays exactly as built.
  const std::uint32_t log2 = ring_log2_for(delays_.max_delay);
  for (Queue& queue : queues_) {
    if (queue.events.empty()) queue.events.set_log_bucket_count(log2);
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

void Engine::schedule_delivery(Lane& src, std::int32_t from,
                               int channel_index, const Message& msg) {
  if (chaos_) {
    chaos_send(src, from, channel_index, msg);
  } else {
    enqueue_delivery(src, from, channel_index, msg, 0, true);
  }
}

void Engine::enqueue_delivery(Lane& src, std::int32_t from,
                              int channel_index, const Message& msg,
                              SimTime jitter, bool fresh) {
  Channel& ch = channels_[static_cast<std::size_t>(channel_index)];
  SimTime delay = delays_.min_delay +
                  static_cast<SimTime>(ch.rng.next_below(
                      delays_.max_delay - delays_.min_delay + 1));
  if (fresh) {
    ++src.in_flight;
    ++queues_[static_cast<std::size_t>(from)]
          .in_flight_by_type[type_bucket(msg.type)];
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
  if (in_window_ &&
      &lanes_[static_cast<std::size_t>(
          queues_[static_cast<std::size_t>(ch.queue)].lane)] != &src) {
    // Inside a parallel window the destination queue and the channel
    // ring belong to another thread; park the delivery in the source
    // lane's outbox -- end_window() merges it at the barrier, which is
    // sound because the delivery time is >= the next window start.
    src.outbox.push_back(Outbound{channel_index, event, msg});
  } else {
    rings_[static_cast<std::size_t>(channel_index)].push_back(msg);
    push_event(ch.queue, event);
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

void Engine::chaos_send(Lane& src, std::int32_t from, int channel_index,
                        const Message& msg) {
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
    enqueue_delivery(src, from, channel_index, msg, cfg.jitter, true);
    enqueue_delivery(src, from, channel_index, msg, cfg.jitter, true);
  } else if (cfg.reorder_p > 0.0 && ch.rng.next_bool(cfg.reorder_p)) {
    ++link.stats.reordered;
    // Held back: stays in the in-flight census (released without
    // re-counting), overtaken by up to reorder_window later sends.
    ++src.in_flight;
    ++queues_[static_cast<std::size_t>(from)]
          .in_flight_by_type[type_bucket(msg.type)];
    const std::uint64_t id = link.next_hold_id++;
    const int release_after = 1 + static_cast<int>(ch.rng.next_below(
        static_cast<std::uint64_t>(cfg.reorder_window)));
    link.held.push_back(ChaosModel::Held{msg, release_after, id});
    // Guaranteed release on a quiet channel: a flush event on the source
    // node's own queue (safe to push mid-window). Stale flushes after a
    // channel clear find an empty hold buffer (ids never reset).
    Event flush;
    flush.at = src.now + cfg.reorder_flush_delay;
    flush.seq =
        next_seq(ch.next_seq, static_cast<std::uint64_t>(channel_index));
    flush.kind = EventKind::kChaosFlush;
    flush.target = channel_index;
    flush.payload = id;
    push_event(from, flush);
  } else {
    enqueue_delivery(src, from, channel_index, msg, cfg.jitter, true);
  }

  chaos_release(src, from, channel_index, mature_below, /*flush=*/false);
}

void Engine::chaos_release(Lane& src, std::int32_t from, int channel_index,
                           std::uint64_t bound, bool flush) {
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
      enqueue_delivery(src, from, channel_index, held.msg, 0, false);
    } else {
      if (out != i) link.held[out] = std::move(held);
      ++out;
    }
  }
  link.held.resize(out);
}

void Engine::send_from(NodeId from, int channel, const Message& msg) {
  int index = channel_index_of(from, channel);
  const std::int32_t queue = node_queue_[static_cast<std::size_t>(from)];
  Queue& source = queues_[static_cast<std::size_t>(queue)];
  Lane& src = lanes_[static_cast<std::size_t>(source.lane)];
  schedule_delivery(src, queue, index, msg);
  ++src.messages_sent;
  ++source.sent_by_type[type_bucket(msg.type)];
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
  push_event(node_queue_[static_cast<std::size_t>(node)], event);
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
  // (the run loops maintain them); the callback joins the executing
  // node's queue. Outside events a plain engine has one stream, but one
  // with explicit streams cannot tell whose callback this is.
  KLEX_CHECK(!streams_explicit_ || detail::t_scoped_stream >= 0,
             "schedule() outside events on an engine with explicit streams: "
             "name the tenant with schedule_in_stream()");
  schedule_callback(detail::t_current_stream,
                    streams_explicit_ ? detail::t_current_stream
                                      : detail::t_current_lane,
                    now() + delay, std::move(fn));
}

void Engine::schedule_in_stream(int stream, SimTime delay,
                                std::function<void()> fn) {
  const Queue& queue = stream_queue(stream);
  schedule_callback(stream, stream,
                    lanes_[static_cast<std::size_t>(queue.lane)].now + delay,
                    std::move(fn));
}

void Engine::schedule_callback(int stream, std::int32_t queue, SimTime at,
                               std::function<void()> fn) {
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
  event.kind = EventKind::kCallback;
  event.target = stream;
  event.payload = slot;
  push_callback_event(stream, queue, at, event);
}

void Engine::push_callback_event(int stream, std::int32_t queue, SimTime at,
                                 Event& event) {
  event.at = at;
  event.seq = next_seq(callback_seqs_[static_cast<std::size_t>(stream)],
                       channels_.size() + processes_.size() +
                           static_cast<std::size_t>(stream));
  push_event(queue, event);
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
  KLEX_CHECK(node >= 0 && node < process_count(), "bad action node ", node);
  // The action joins its stream's queue (lane 0's on a plain engine).
  const int stream = stream_of(node);
  const Queue& queue = stream_queue(stream);
  Event event;
  event.kind = EventKind::kAction;
  event.target = node;
  event.handler = static_cast<std::uint8_t>(handler);
  event.action = action;
  event.payload = epoch;
  push_callback_event(stream, stream,
                      lanes_[static_cast<std::size_t>(queue.lane)].now + delay,
                      event);
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
  Queue& queue = queues_[static_cast<std::size_t>(stream)];
  queue.events.push(event);
  // The executing stream is re-keyed by its executor after the event (or
  // its whole run); any other push moves that head now.
  if (stream != scoped) {
    lanes_[static_cast<std::size_t>(queue.lane)].heads.update(stream,
                                                              queue.events);
  }
}

void Engine::inject_message(NodeId from, int from_channel,
                            const Message& msg) {
  // Identical to send_from but without observer traffic accounting as a
  // protocol send: the message "was already in the channel" (arbitrary
  // initial content). It still obeys FIFO and delay bounds.
  int index = channel_index_of(from, from_channel);
  schedule_delivery(lanes_[static_cast<std::size_t>(lane_of(from))],
                    node_queue_[static_cast<std::size_t>(from)], index, msg);
}

void Engine::clear_channels() {
  // Bumping the epoch orphans every pending delivery event of this
  // channel (dispatch drops them), so the FIFO clock can restart: without
  // the reset, post-fault traffic would inherit pre-fault last_scheduled
  // clamps, and without the epoch a stale event would deliver post-fault
  // traffic earlier than its sampled delay. The rings keep their buffers
  // (unlike clear_channel_range): on klexbench faults_recovery, freeing
  // them here cost about 2 % of recovery time for no peak-RSS gain.
  for (MessageRing& ring : rings_) ring.clear();
  for (Channel& ch : channels_) {
    ++ch.epoch;
    ch.last_scheduled = 0;
  }
  // All channels are now empty: the per-lane in-flight and per-type
  // census counters reset as writes instead of a decrement per dropped
  // message (their cross-lane sums are the tracked quantity).
  for (Lane& lane : lanes_) lane.in_flight = 0;
  for (Queue& queue : queues_) queue.in_flight_by_type.fill(0);
  // Held-back messages die with the channel content (their counters were
  // zeroed above; pending flush events find empty hold buffers).
  if (chaos_) chaos_->drop_all_holds();
}

void Engine::clear_channel_range(int begin, int end) {
  if (begin == 0 && end == channel_count()) {
    clear_channels();
    return;
  }
  KLEX_REQUIRE(streams_explicit_,
               "clear_channel_range needs explicit streams (per-tenant "
               "counter decrements route through the channel's stream queue)");
  KLEX_REQUIRE(begin >= 0 && begin <= end && end <= channel_count(),
               "bad channel range [", begin, ", ", end, ")");
  for (int i = begin; i < end; ++i) {
    const std::size_t c = static_cast<std::size_t>(i);
    Channel& ch = channels_[c];
    Queue& queue = queues_[static_cast<std::size_t>(ch.queue)];
    Lane& src =
        lanes_[static_cast<std::size_t>(lane_of(channel_info_[c].from))];
    // Per-message decrements instead of clear_channels' reset-to-zero:
    // other tenants' in-flight counts must survive untouched.
    rings_[c].for_each([&](const Message& msg) {
      --queue.in_flight_by_type[type_bucket(msg.type)];
      --src.in_flight;
    });
    // Storm-grown rings are freed: kept, they held a fleet's rings at
    // the storm high-water (about 1 MiB of peak RSS on klexbench
    // fleet_tenants).
    rings_[c].release();
    if (chaos_) {
      ChaosModel::Link& link = chaos_->link(i);
      for (const ChaosModel::Held& held : link.held) {
        --queue.in_flight_by_type[type_bucket(held.msg.type)];
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
  // Lane queues are keyed only by the merged loop (see the file comment),
  // so a plain engine reads them directly; top_time gathers nothing.
  if (!streams_explicit_) {
    SimTime best = queues_[0].events.top_time();
    for (std::size_t q = 1; q < queues_.size(); ++q) {
      best = std::min(best, queues_[q].events.top_time());
    }
    return best;
  }
  SimTime best = kTimeInfinity;
  for (const Lane& lane : lanes_) best = std::min(best, lane.heads.top_time());
  return best;
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
  scheduler += other.scheduler;
  return *this;
}

EngineStats Engine::stats() const {
  EngineStats stats;
  stats.events_executed = events_executed();
  stats.messages_sent = messages_sent();
  stats.messages_delivered = messages_delivered();
  for (const Queue& queue : queues_) {
    stats.max_heap_size += static_cast<std::uint64_t>(queue.events.max_size());
    stats.scheduler += queue.events.counters();
  }
  stats.callbacks_scheduled = callbacks_scheduled_;
  stats.callback_slots_created = callback_slots_created_;
  stats.in_flight_walks = in_flight_walks_;
  stats.bucket_window = std::max<std::uint64_t>(
      EventQueue::kBucketCount, std::uint64_t{1}
                                    << ring_log2_for(delays_.max_delay));
  if (chaos_) {
    ChaosStats chaos = chaos_->totals();
    stats.chaos_dropped = chaos.dropped;
    stats.chaos_duplicated = chaos.duplicated;
    stats.chaos_reordered = chaos.reordered;
    stats.chaos_jittered = chaos.jittered;
  }
  return stats;
}

void Engine::dispatch(Lane& lane, std::int32_t queue, const Event& event) {
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
      // The executing queue's cell: with explicit streams it is the one
      // the send counted into (channels never cross streams).
      --queues_[static_cast<std::size_t>(queue)]
            .in_flight_by_type[type_bucket(msg.type)];
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
      // Runs in the channel's source queue (the one the hold pushed it
      // to), so the hold buffer stays single-writer.
      chaos_release(lane, queue, event.target, event.payload,
                    /*flush=*/true);
      return;
    }
    case EventKind::kAction:
      run_action(event);
      return;
  }
}

bool Engine::execute_next(SimTime t) {
  // The lane holding the global (at, seq) minimum: the earliest head of
  // the earliest lane. The per-entity slots make the key unique, so this
  // order is the same whatever queue an event sits in -- and the same as
  // the windowed execution.
  std::size_t best = lanes_.size();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    StreamHeads& heads = lanes_[i].heads;
    // Lane queues are keyed here, once per merged step (see the file
    // comment).
    if (!streams_explicit_) {
      heads.update(static_cast<std::int32_t>(i), queues_[i].events);
    }
    if (!heads.empty() && (best == lanes_.size() ||
                           heads.top().before(lanes_[best].heads.top()))) {
      best = i;
    }
  }
  if (best == lanes_.size()) return false;
  Lane& lane = lanes_[best];
  // The lane's earliest queue: its own on a plain engine.
  const std::int32_t queue = streams_explicit_
                                 ? lane.heads.top().stream
                                 : static_cast<std::int32_t>(best);
  EventQueue& events = queues_[static_cast<std::size_t>(queue)].events;
  Event event;
  if (!events.pop_min_until(t, &event)) return false;
  KLEX_CHECK(event.at >= lane.now, "event queue went backwards");
  // The merged loop keeps every lane clock in lockstep.
  for (std::size_t i = 0; i < lanes_.size(); ++i) set_lane_clock(i, event.at);
  events.advance_to(event.at);
  const int stream = streams_explicit_ ? queue : 0;
  {
    detail::DispatchContext context(stream, static_cast<int>(best));
    run_queued(lane, queue, event);
  }
  last_stream_ = stream;
  if (streams_explicit_) lane.heads.update(queue, events);
  return true;
}

bool Engine::step() {
  start();
  return execute_next(kTimeInfinity);
}

void Engine::run_until(SimTime t) {
  start();
  if (runs_spans()) {
    run_streams_until(t, [](int, const Event&) {});
  } else {
    while (execute_next(t)) {
    }
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
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    KLEX_CHECK(lanes_[i].now <= start, "window opens behind a lane clock");
    set_lane_clock(i, start);
  }
}

void Engine::run_lane_window(int lane_index, SimTime t) {
  // last_stream_ is deliberately not updated here: it reports merged
  // steps only.
  auto no_hook = [](int, const Event&) {};
  run_lane_streams(lane_index, t, no_hook);
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
      push_event(channels_[c].queue, out.event);
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
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].now < t) set_lane_clock(i, t);
  }
}

}  // namespace klex::sim
