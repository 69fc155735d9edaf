// Discrete-event simulation engine for asynchronous message-passing
// systems (the paper's model of computation, Section 2).
//
// The engine owns:
//   * the pending-event set (ordered by (at, seq), so runs are
//     bit-reproducible from the seed);
//   * the directed FIFO channels between process channel endpoints;
//   * the registered processes and their timers.
//
// Model properties implemented here:
//   * Asynchrony   -- every message gets an independent random delay drawn
//     from [min_delay, max_delay]; process steps are triggered by
//     deliveries, so relative process speeds are unbounded but fair.
//   * Reliable FIFO channels -- delivery times per channel are forced to be
//     monotone, and ties preserve send order.
//   * Bounded initial channel content -- fault injection can preload each
//     channel with up to CMAX arbitrary messages (see inject_garbage()).
//
// Lanes. The engine is organized as `lane_count()` partitions ("lanes"),
// each owning an EventQueue, a clock and per-type census counters. The
// default engine has exactly one lane and runs the classic serial loop;
// configure_lanes() splits the node set across lanes (sim::ParallelEngine
// then executes conservative min_delay-wide time windows with one worker
// thread per lane).
//
// Sequencing. Events are ordered by (at, seq), and every delay draw and
// seq comes from per-entity state that knows nothing of lanes:
//   * channel c owns its delay rng and a seq counter (slot c) shared by
//     its deliveries and chaos flushes;
//   * node v owns a timer seq counter (slot C + v);
//   * stream s owns a callback seq counter (slot C + N + s);
// with seq = counter * (C + N + S) + slot for C channels, N nodes and S
// streams. The (at, seq) order is globally unique, and a run is the same
// execution at every lane count P.
//
// Streams (multi-tenant fleets). A plain engine is one stream seeded with
// the engine seed: channel c draws from Rng(seed ^ salt).split(c).
// configure_streams() partitions the engine into independently seeded
// streams instead: stream s keys its channels' rngs from its own seed and
// the stream-relative channel index, and explicit streams also own
// per-type census cells. The fleet layer (api/fleet.hpp) maps one
// protocol instance ("tenant") to one stream; its slots keep their
// relative order, so a tenant's delay draws and (at, seq) sub-order are
// byte-identical to a standalone engine running that tenant alone with
// the stream's seed -- whatever the other tenants do. Explicit streams
// must nest inside lanes (every node of a stream on one lane, channels
// never crossing streams), which keeps their census cells single-writer.
//
// Per-stream queues and tenant-major order. A plain engine keeps one
// EventQueue per lane. An engine with explicit streams keeps one per
// stream instead (lane queues stay empty), plus per lane a StreamHeads
// heap of its streams keyed by their earliest pending (at, seq). Because
// streams are causally closed, run_until(t) -- and a parallel lane's
// window -- runs them tenant-major: the stream with the earliest head
// executes all its events through t in (at, seq) order, then the next,
// each on its own queue and state. Every stream sees exactly the events,
// times and draws of the merged order; only the interleaving of
// different streams differs. These paths keep the merged-serial (at, seq)
// order, read off the heads heaps:
//   * step(), run_events() and run_until_message_quiescence();
//   * any run_until span while an observer is attached (observers see
//     every stream's events in one global order; inside a parallel
//     window a window-safe observer buffers per lane and merges by
//     (at, seq) at the barrier, so windows stay tenant-major);
//   * any run_until span while a global callback is pending.
//
// Typed client actions versus callbacks. The closed-loop client path --
// a WorkloadDriver's think-end and CS-end, a Client's acquire deadline --
// runs as typed actions (schedule_action): the node, an action code and
// an epoch are stored inline in the 32-byte event, and dispatch calls the
// registered ActionHandler directly. No std::function is built and no
// callback-slab slot is taken, so a closed loop allocates nothing per
// step. An action of node v keeps exactly the sequencing of the callback
// it replaced: stream stream_of(v)'s slot C + N + s and counter, shared
// with that stream's callbacks (so the two interleave in schedule order),
// and it counts in pending_callbacks() and callbacks_scheduled() -- the
// parallel window fallback and message quiescence see it as a callback.
// schedule() / schedule_in_stream() with a std::function remain for
// everything else: the fault plan's deferred epoch cut, tests and tools.
//
// Tenant-scoped events (checked). An event of stream s -- a delivery,
// timer or chaos flush on s's channels and nodes, or a callback or
// action sequenced in s -- may schedule only into stream s: a push into another
// stream fails a KLEX_CHECK. A *global* callback is one scheduled through
// schedule() from outside event execution (a management-plane action
// such as the fleet-wide epoch cut of Session::apply_fault_event); it is
// sequenced in the calling context's stream but may touch and schedule
// into every stream, so spans that contain one run merged-serial.
// schedule_in_stream() from outside events is tenant-scoped.
//
// Channel layout. Channel c's state is split by how it is accessed,
// into arrays indexed by c:
//   * channels_[c] -- the 64-byte hot record, one cache line: the delay
//     rng, the FIFO clamp (last_scheduled), the seq counter, the epoch,
//     the stream and the destination endpoint -- all a send or a
//     delivery reads;
//   * rings_[c] -- the 24-byte header of the in-flight FIFO;
//   * channel_info_[c] -- the wiring (both endpoints), read only by
//     census walks, chaos burst scoping and clear_channel_range.
// A send finds c through a flat table: node v's local channel i is
// lookup_[lookup_offset_[v] + i]. The table is rebuilt after wiring
// changes, on the first lookup or at start() (wiring is closed once the
// engine starts).
//
// Parallel-safety contract (all of it single-writer, no locks):
//   * channels_[c] and rings_[c] belong to the channel's source lane
//     (lane_of(from)): it draws the delays, clamps FIFO times, counts
//     seqs and pushes the ring. The destination lane (lane_of(to))
//     pops the ring at delivery; cross-lane deliveries created inside a
//     window park in the source lane's outbox and are pushed into the
//     destination queue and the ring at the window barrier
//     (single-threaded), so the two lanes never touch a ring in the
//     same window;
//   * channel_info_ and the lookup table are read-only once the engine
//     has started, so every lane reads them freely;
//   * a node's timer counter belongs to the node's lane;
//   * a stream's queue belongs to its home lane, and so does the lane's
//     StreamHeads heap (inside a window only the stream's own events
//     push into it, and its lane re-keys it after the stream's run);
//   * callbacks and actions belong to the calling thread outside
//     windows: the parallel engine opens no window once any was
//     scheduled, and scheduling one inside a window fails a check;
//   * per-lane counters may individually wrap (a lane delivers messages
//     another lane sent) but their mod-2^64 sums are exact, and they are
//     only summed between windows;
//   * channel epochs and clear_channels() are barrier-only operations.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/chaos.hpp"
#include "sim/event_queue.hpp"
#include "sim/message.hpp"
#include "sim/message_ring.hpp"
#include "sim/time.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace klex::sim {

using NodeId = std::int32_t;

class Engine;

namespace detail {
// Lane executing on this thread: a parallel-window worker sets it for the
// duration of its window, the merged-serial loop for the duration of one
// event dispatch. 0 everywhere else (the serial lane). Header-visible so
// Engine::current_lane() inlines to a single TLS load on the per-delta
// census path.
inline thread_local int t_current_lane = 0;
// Stream (tenant) of the event executing on this thread; 0 outside event
// dispatch and on engines without explicit streams. Same inlining
// rationale as t_current_lane: the tenant-axis census routes every
// participant delta through Engine::current_stream().
inline thread_local int t_current_stream = 0;
// Global (at, seq) sequence number of the event executing on this
// thread, 0 outside event dispatch. Window-safe observers stamp their
// per-lane records with it so a barrier-time merge by (at, seq)
// reproduces the exact serial observation order.
inline thread_local std::uint64_t t_current_event_seq = 0;
// Stream of the tenant-scoped event executing on this thread on an
// engine with explicit streams; -1 outside event dispatch and inside a
// global callback. Pushes into other streams check against it.
inline thread_local int t_scoped_stream = -1;

// The thread-local context of event dispatch (one event, or a run of one
// stream's events), restored however the handlers exit: a handler that
// throws must not leave its stream scoped for the management-plane calls
// that follow on this thread.
class DispatchContext {
 public:
  DispatchContext(int stream, int scoped, int lane) {
    t_current_stream = stream;
    t_scoped_stream = scoped;
    t_current_lane = lane;
  }
  ~DispatchContext() {
    t_current_event_seq = 0;
    t_current_lane = 0;
    t_scoped_stream = -1;
    t_current_stream = 0;
  }
  DispatchContext(const DispatchContext&) = delete;
  DispatchContext& operator=(const DispatchContext&) = delete;
};
}  // namespace detail

/// Routes *out-of-event* work to one stream's census cells. Management-
/// plane operations that mutate processes outside event execution --
/// fault injection, epoch-cut drains, client-driven releases -- fire
/// participant deltas that the tenant-axis census attributes to
/// Engine::current_stream(); wrapping the operation in a ScopedStream
/// makes that attribution explicit instead of defaulting to stream 0.
/// Meaningless (but harmless) for engines without explicit streams.
class ScopedStream {
 public:
  explicit ScopedStream(int stream) : saved_(detail::t_current_stream) {
    detail::t_current_stream = stream;
  }
  ~ScopedStream() { detail::t_current_stream = saved_; }
  ScopedStream(const ScopedStream&) = delete;
  ScopedStream& operator=(const ScopedStream&) = delete;

 private:
  int saved_;
};

/// Base class for a simulated process (one per tree node).
///
/// Handlers run atomically: all sends performed inside a handler are
/// timestamped with the same "now". Subclasses implement the paper's
/// per-message actions in on_message() and the root's TimeOut() in
/// on_timer().
class Process {
 public:
  virtual ~Process() = default;

  /// A message arrived on local channel `channel`.
  virtual void on_message(int channel, const Message& msg) = 0;

  /// Timer `timer_id` (set via set_timer) fired.
  virtual void on_timer(int timer_id) { (void)timer_id; }

  /// Called once when the simulation starts, before any delivery.
  virtual void on_start() {}

  NodeId id() const { return id_; }

 protected:
  Engine& engine() const { return *engine_; }

  /// Sends `msg` on local channel `channel` (must be connected).
  void send(int channel, const Message& msg);

  /// (Re)arms timer `timer_id` to fire after `delay` ticks; a timer that
  /// was already armed is implicitly cancelled (generation bump).
  void set_timer(int timer_id, SimTime delay);

  /// Disarms timer `timer_id` if armed.
  void cancel_timer(int timer_id);

  /// Current simulated time (the executing lane's clock).
  SimTime now() const;

 private:
  friend class Engine;
  Engine* engine_ = nullptr;
  NodeId id_ = -1;
};

/// Receiver of typed client actions (Engine::schedule_action): the
/// closed-loop client steps -- a WorkloadDriver's think-end and CS-end, a
/// Client's acquire deadline -- each addressed to one node. The engine
/// stores node, action code and epoch inline in the event and calls
/// on_action directly at dispatch; nothing is allocated per action.
class ActionHandler {
 public:
  virtual void on_action(NodeId node, std::uint8_t action,
                         std::uint64_t epoch) = 0;

 protected:
  ~ActionHandler() = default;
};

/// Uniform-integer message delay model. delays are drawn from
/// [min_delay, max_delay] per message (then clamped for FIFO order).
/// min_delay doubles as the conservative lookahead of the parallel
/// engine: a window of min_delay ticks can never receive a cross-lane
/// delivery scheduled inside itself.
struct DelayModel {
  SimTime min_delay = 1;
  SimTime max_delay = 16;
};

/// Observation points, used by the stats and verification layers.
///
/// By default an observer is *blocking*: it may keep shared mutable
/// state, so the parallel engine falls back to the merged-serial loop
/// while one is attached. An observer that only appends to per-lane
/// buffers during callbacks (keyed by Engine::current_lane() /
/// current_event_seq()) and merges them at the window barrier may
/// declare itself window-safe; it then rides the windowed executor and
/// receives on_window_merge() after every barrier (serial context).
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_send(SimTime at, NodeId from, int channel,
                       const Message& msg) {
    (void)at; (void)from; (void)channel; (void)msg;
  }
  virtual void on_deliver(SimTime at, NodeId to, int channel,
                          const Message& msg) {
    (void)at; (void)to; (void)channel; (void)msg;
  }
  /// True = callbacks are lane-local (no shared mutable state), so the
  /// windowed ParallelEngine need not fall back to merged-serial.
  virtual bool window_safe() const { return false; }
  /// Window barrier (serial context, after the outbox merge): a
  /// window-safe observer merges its per-lane buffers here.
  virtual void on_window_merge() {}
};

/// Identifies a directed channel for census iteration.
struct ChannelInfo {
  NodeId from = -1;
  int from_channel = -1;
  NodeId to = -1;
  int to_channel = -1;
};

/// Event-core counters, exposed for benchmarks: the experiment output
/// records them so perf regressions (per-event heap allocations creeping
/// back in) are visible in the BENCH_*.json trajectory. For multi-lane
/// engines every field is the sum over lanes.
struct EngineStats {
  std::uint64_t events_executed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  /// Callbacks and typed client actions scheduled over the run.
  std::uint64_t callbacks_scheduled = 0;
  /// Slab slots ever constructed; stays flat once the slab warms up
  /// (callback scheduling then does zero slot allocations). Typed
  /// actions take none, so a closed loop without other callbacks
  /// reports 0.
  std::uint64_t callback_slots_created = 0;
  /// High-water mark of the pending-event set (ring + overflow heap),
  /// summed over the engine's queues: one per lane on a plain engine,
  /// one per stream with explicit streams (a sum of per-queue
  /// high-waters, which may exceed the engine-wide peak).
  std::uint64_t max_heap_size = 0;
  /// Full in-flight walks (for_each_in_flight calls). The incremental
  /// census keeps this at zero during run_until_stabilized; the counter is
  /// in the BENCH_*.json trajectory so O(channels) polling cannot silently
  /// creep back into a hot loop.
  std::uint64_t in_flight_walks = 0;
  /// Calendar ring window chosen at boot (satellite of the scheduler
  /// auto-tune): 1024 unless the delay model outranged the default
  /// window.
  std::uint64_t bucket_window = 0;
  /// Chaos decision counters (zero unless a ChaosModel is attached);
  /// deterministic per (seed, config), so they ride in the BENCH_*.json
  /// trajectory like the scheduler counters.
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_duplicated = 0;
  std::uint64_t chaos_reordered = 0;
  std::uint64_t chaos_jittered = 0;
  /// Deterministic scheduler-op counters (see sim::SchedulerCounters):
  /// calendar-ring inserts, find-min bitmap scans and heap-fallback
  /// traffic. Pinned by tests/sim/event_core_test and carried in the
  /// BENCH_*.json trajectory, so "schedule/pop are O(1) amortized" is a
  /// gated invariant: overflow_pushes growing toward bucket_inserts means
  /// the heap fallback became the hot path again. bucket_sorts and
  /// sorted_events count the tick sorts.
  SchedulerCounters scheduler{};

  /// Adds another engine's counters (a batch of separate engines reports
  /// their sum; the calendar window is a configuration, so it reports
  /// the max).
  EngineStats& operator+=(const EngineStats& other);
};

class Engine {
 public:
  explicit Engine(DelayModel delays = {},
                  std::uint64_t seed = support::Rng::kDefaultSeed,
                  SchedulerKind scheduler = SchedulerKind::kCalendar);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // -- topology wiring ------------------------------------------------------

  /// Registers `process` as node `id() == index of registration`.
  /// Returns the id. All processes must be added before connect().
  NodeId add_process(std::unique_ptr<Process> process);

  /// Creates the directed FIFO channel from (`from`, `from_channel`) to
  /// (`to`, `to_channel`). Both directions of a link are two calls.
  void connect(NodeId from, int from_channel, NodeId to, int to_channel);

  int process_count() const { return static_cast<int>(processes_.size()); }

  Process& process(NodeId id);
  const Process& process(NodeId id) const;

  // -- lanes (partitioned parallel execution) --------------------------------

  /// Splits the node set into `lane_count` lanes: node v belongs to lane
  /// `node_lane[v]`. Must be called after wiring and before start();
  /// resets all lane-local state (queues must be empty). The partition
  /// changes who executes an event, never which execution runs.
  void configure_lanes(const std::vector<int>& node_lane, int lane_count);

  int lane_count() const { return static_cast<int>(lanes_.size()); }

  /// Lane of `node` (0 for unconfigured engines).
  int lane_of(NodeId node) const {
    return node_lane_.empty() ? 0
                              : node_lane_[static_cast<std::size_t>(node)];
  }

  /// Lane executing on the calling thread: the worker's lane inside a
  /// parallel window, the dispatching lane in the merged-serial loop, 0
  /// on any other thread. CensusTracker routes its per-lane accumulators
  /// through this on every participant delta, so the read must inline
  /// (one TLS load, no cross-TU call).
  static int current_lane() { return detail::t_current_lane; }

  /// Most lanes any engine supports (sized so per-lane padded census
  /// cells stay tiny; the partitioners clamp to it).
  static constexpr int kMaxLanes = 16;

  // -- streams (multi-tenant sequencing; see the file comment) ---------------

  /// Replaces the engine's single stream with explicit ones: node v
  /// belongs to stream `node_stream[v]`, and stream s keys its channels'
  /// delay rngs from stream_seeds[s] and the stream-relative channel
  /// index. Must be called after wiring (and after configure_lanes, if
  /// any) and before any event is scheduled. Every stream must nest
  /// inside one lane and no channel may cross streams -- that is what
  /// keeps stream census cells single-writer and tenants causally
  /// independent.
  void configure_streams(const std::vector<int>& node_stream,
                         const std::vector<std::uint64_t>& stream_seeds);

  /// Number of streams (1 unless configure_streams ran).
  int stream_count() const { return static_cast<int>(streams_.size()); }

  bool has_explicit_streams() const { return streams_explicit_; }

  /// Stream of `node` (0 on engines without explicit streams).
  int stream_of(NodeId node) const {
    return streams_explicit_ ? node_stream_[static_cast<std::size_t>(node)]
                             : 0;
  }

  /// Stream of the event executing on the calling thread (0 outside
  /// event dispatch). The tenant-axis census routes its
  /// per-tenant accumulators through this on every participant delta, so
  /// the read must inline (one TLS load, no cross-TU call).
  static int current_stream() { return detail::t_current_stream; }

  /// Stream of the most recently executed merged-serial event (0 before
  /// any). Lets a fleet's stabilization loop re-check only the tenant the
  /// last event could have perturbed instead of scanning all R tenants.
  int last_stream() const { return last_stream_; }

  /// True when run_until executes tenant-major (see the file comment):
  /// explicit streams, no observer attached, no global callback pending.
  bool tenant_major() const {
    return streams_explicit_ && observers_.empty() &&
           pending_global_callbacks_ == 0;
  }

  /// The tenant-major span of run_until(t) with a per-event hook:
  /// executes every pending event with at <= t, one stream after another
  /// (lane by lane), and calls after_event(stream, event) after each.
  /// Leaves every lane clock at the latest time executed (where the
  /// merged loop would leave it), not at t. Requires tenant_major().
  template <typename AfterEvent>
  void run_streams_until(SimTime t, AfterEvent&& after_event);

  // -- execution ------------------------------------------------------------

  /// Calls on_start() on every process (once); implicit in the run methods.
  void start() {
    if (!started_) boot();
  }

  /// Executes a single event. Returns false if the queue was empty.
  /// With several lanes this is the merged-serial loop: the global
  /// (at, seq) minimum across lanes, so any-P trajectories match the
  /// windowed parallel execution event for event.
  bool step();

  /// Runs until simulated time exceeds `t` (events at exactly `t` are
  /// still executed) or the queue empties.
  void run_until(SimTime t);

  /// Runs at most `max_events` events; returns the number executed.
  std::uint64_t run_events(std::uint64_t max_events);

  /// Runs until no *message* deliveries are pending (timer events may
  /// remain) or `max_events` have been executed. Returns true if message
  /// quiescence was reached -- how deadlocks (Figure 2) are detected.
  bool run_until_message_quiescence(std::uint64_t max_events);

  SimTime now() const;

  /// Timestamp of the earliest pending event across all lanes, or
  /// kTimeInfinity if the queues are empty. Lets callers prove "nothing
  /// can happen before t" without executing anything (event-driven
  /// stabilization detection), and doubles as the next window start for
  /// the parallel engine.
  SimTime next_event_time() const;

  /// Which scheduler this engine runs on (kCalendar unless the caller
  /// opted into the binary-heap reference for differential testing).
  SchedulerKind scheduler() const { return scheduler_kind_; }

  std::uint64_t messages_sent() const;
  std::uint64_t messages_delivered() const;
  std::uint64_t events_executed() const;

  /// Number of in-flight (sent, not yet delivered) messages.
  std::uint64_t in_flight_messages() const;

  /// Number of scheduled-but-unfired callbacks and typed actions.
  std::uint64_t pending_callbacks() const { return pending_callbacks_; }

  /// Callbacks and typed actions scheduled over the run. Once it is
  /// nonzero the parallel engine opens no more windows (callbacks may
  /// touch any node, and the callback seq counters are written outside
  /// windows only) and runs the trajectory-identical merged-serial loop
  /// instead.
  std::uint64_t callbacks_scheduled() const { return callbacks_scheduled_; }

  // -- window protocol (driven by sim::ParallelEngine) -----------------------
  //
  // begin_window(W) -> concurrent run_lane_window(lane, end) per lane ->
  // end_window() -> repeat; finish with sync_lanes_to(t). Between
  // begin_window and end_window only run_lane_window may touch the
  // engine, each lane index from at most one thread (schedule() there
  // fails a check).

  /// Opens a window starting at `start` (>= every lane clock): advances
  /// all lane clocks and ring windows, and flips sends into deferred
  /// cross-lane outbox mode.
  void begin_window(SimTime start);

  /// Executes every pending event of `lane` with at <= `t` (the window
  /// end, exclusive, minus one), tenant-major on engines with explicit
  /// streams. Thread-safe across distinct lanes while a window is open.
  void run_lane_window(int lane, SimTime t);

  /// Closes the window: merges every lane outbox (in lane order) into
  /// the destination queues and channel rings. Single-threaded.
  void end_window();

  /// Advances every lane clock to at least `t` (end of a windowed run).
  void sync_lanes_to(SimTime t);

  /// True between begin_window and end_window: observer callbacks may be
  /// firing concurrently from several lane threads, so a window-safe
  /// observer must buffer per lane instead of applying directly.
  bool in_window() const { return in_window_; }

  bool has_observers() const { return !observers_.empty(); }

  /// True while any attached observer is NOT window-safe (shared mutable
  /// state): the parallel engine must fall back to merged-serial.
  /// Window-safe observers (lane-local buffers merged at the barrier)
  /// ride the windowed executor.
  bool has_blocking_observers() const {
    for (const SimObserver* observer : observers_) {
      if (!observer->window_safe()) return true;
    }
    return false;
  }

  /// Global (at, seq) sequence number of the event executing on the
  /// calling thread (0 outside event dispatch). Window-safe observers
  /// stamp per-lane records with it; merged by (at, seq) at the barrier,
  /// the records replay in the exact serial observation order.
  static std::uint64_t current_event_seq() {
    return detail::t_current_event_seq;
  }

  DelayModel delay_model() const { return delays_; }

  // -- chaos (adversarial channels; see sim/chaos.hpp) -----------------------

  /// Attaches a ChaosModel over all channels. Must run after wiring and
  /// before start(); runs once. Chaos decisions draw from the channels'
  /// own rngs, so a chaos run is as lane-count-independent as any other.
  void configure_chaos(const ChaosConfig& config);

  bool has_chaos() const { return chaos_ != nullptr; }

  /// The steady-state chaos config (requires has_chaos()).
  const ChaosConfig& chaos_config() const { return chaos_->steady(); }

  /// Starts a burst episode: `config` overrides the steady config on
  /// every link until now() + duration (replacing any active burst).
  /// Expiry is lazy -- per-decision deadline checks, no events. Call
  /// between windows only (fault application points).
  void chaos_burst(const ChaosConfig& config, SimTime duration);

  /// Burst scoped to channels_[begin, end) (fleet tenants are
  /// channel-contiguous).
  void chaos_burst_channel_range(int begin, int end,
                                 const ChaosConfig& config,
                                 SimTime duration);

  /// Burst scoped to the directed channels between explicit undirected
  /// endpoint pairs (both directions; pairs without a wired channel are
  /// skipped). The fuzzer's minimizer shrinks bursts to fewer links
  /// this way.
  void chaos_burst_links(const std::vector<std::pair<int, int>>& links,
                         const ChaosConfig& config, SimTime duration);

  /// Chaos decision counters summed over links (zero stats without a
  /// model).
  ChaosStats chaos_stats() const {
    return chaos_ ? chaos_->totals() : ChaosStats{};
  }

  /// Messages currently held back for reordering (they count as
  /// in-flight).
  std::uint64_t chaos_held_messages() const {
    return chaos_ ? chaos_->held_messages() : 0;
  }

  const ChaosModel* chaos_model() const { return chaos_.get(); }

  // -- sends / timers (used by Process) --------------------------------------

  void send_from(NodeId from, int channel, const Message& msg);
  void set_timer_for(NodeId node, int timer_id, SimTime delay);
  void cancel_timer_for(NodeId node, int timer_id);

  /// Schedules `fn` to run at now() + delay as a standalone event
  /// (open-loop arrivals, fault-plan steps, tests and tools; the
  /// library's closed loop uses schedule_action instead), sequenced in
  /// the executing event's stream. Called from outside any tenant-scoped
  /// event on an engine with explicit streams, it schedules a global
  /// callback (see the file comment). Fails a check inside a parallel
  /// window.
  void schedule(SimTime delay, std::function<void()> fn);

  /// schedule() with an explicit sequencing stream, for callers outside
  /// any event context (arming a tenant's first step from the main
  /// thread): the callback is sequenced in `stream` and queued on its
  /// home lane. It is tenant-scoped: from inside an event of another
  /// stream it fails the stream check.
  void schedule_in_stream(int stream, SimTime delay,
                          std::function<void()> fn);

  // -- typed client actions (see the file comment) ---------------------------

  /// Registers `handler` for schedule_action and returns its index. An
  /// index is reused only once its previous handler was removed and its
  /// last action has retired. At most kMaxActionHandlers at a time.
  int add_action_handler(ActionHandler* handler);

  /// Unregisters a handler: its still-pending actions retire as no-ops
  /// when they come due, so a receiver may be destroyed mid-run.
  void remove_action_handler(int handler);

  /// Schedules `action` of `handler` for `node` at now() + delay, with
  /// `epoch` passed back on dispatch. It is sequenced and counted exactly
  /// as schedule_in_stream(stream_of(node), delay, fn) is -- the stream's
  /// callback seq slot and counter, pending_callbacks() and
  /// callbacks_scheduled() -- but takes no callback slot. Fails a check
  /// inside a parallel window.
  void schedule_action(int handler, NodeId node, std::uint8_t action,
                       SimTime delay, std::uint64_t epoch = 0);

  static constexpr int kMaxActionHandlers = 256;

  // -- fault injection / census ----------------------------------------------

  /// Appends `msg` to the channel (`from`,`from_channel`) as if it had been
  /// sent now; used to preload channels with arbitrary initial content.
  void inject_message(NodeId from, int from_channel, const Message& msg);

  /// Drops every in-flight message from all channels (part of "transient
  /// fault" injection before re-seeding channels with garbage).
  void clear_channels();

  /// Drops the in-flight content of channels_[begin, end) only -- the
  /// per-tenant half of clear_channels(). The fleet layer keeps each
  /// tenant's channels contiguous, so a single-tenant epoch cut clears
  /// O(tenant) channels and decrements exactly that tenant's per-type
  /// counters; other tenants' traffic, clamps and counters are untouched.
  /// Requires explicit streams (the per-message decrement needs the
  /// channel's stream cell).
  void clear_channel_range(int begin, int end);

  int channel_count() const { return static_cast<int>(channels_.size()); }

  /// Invokes `fn(info, msg)` for every in-flight message, in channel order
  /// then FIFO order. Statically dispatched (no std::function / virtual
  /// call per message) -- this is the debug-oracle census walk, and it is
  /// counted in EngineStats::in_flight_walks so hot loops can prove they
  /// never take it.
  template <typename Fn>
  void for_each_in_flight(Fn&& fn) const {
    ++in_flight_walks_;
    for (std::size_t i = 0; i < channel_info_.size(); ++i) {
      const ChannelInfo& info = channel_info_[i];
      rings_[i].for_each([&](const Message& msg) { fn(info, msg); });
      if (chaos_) {
        // Held-back messages are in flight (the census counted them at
        // hold time); walk them after the ring so oracle and tracker
        // agree under chaos.
        for (const ChaosModel::Held& held :
             chaos_->link(static_cast<int>(i)).held) {
          fn(info, held.msg);
        }
      }
    }
  }

  /// Number of in-flight messages whose `type` equals `type`, maintained
  /// inline on the send/inject/deliver/clear paths (no walk, no callback).
  /// Exact for 0 <= type < kTrackedMessageTypes (covers every protocol
  /// token type); out-of-range types alias the junk bucket 0. Summed over
  /// lanes (each addend may wrap; the sum is exact).
  std::uint64_t in_flight_of_type(std::int32_t type) const {
    std::size_t b = type_bucket(type);
    std::uint64_t total = 0;
    if (streams_explicit_) {
      for (const Stream& s : streams_) total += s.in_flight_by_type[b];
    } else {
      for (const Lane& lane : lanes_) total += lane.in_flight_by_type[b];
    }
    return total;
  }

  /// in_flight_of_type restricted to one stream. Exact per stream (not
  /// merely sum-exact): with explicit streams the increment, the delivery
  /// decrement and the range-clear decrement all land in the channel's
  /// stream cell, so a tenant's census reads one cell in O(1) without
  /// scanning the other tenants. On a plain engine stream 0 is the whole
  /// engine.
  std::uint64_t in_flight_of_type_in(int stream, std::int32_t type) const {
    const Stream& s = stream_at(stream);
    return streams_explicit_ ? s.in_flight_by_type[type_bucket(type)]
                             : in_flight_of_type(type);
  }

  /// Per-type counters are exact for types in [0, kTrackedMessageTypes).
  static constexpr std::int32_t kTrackedMessageTypes = 8;

  /// Cumulative messages sent whose `type` equals `type` (same bucketing
  /// as in_flight_of_type), maintained inline on the send path.
  /// inject_message is excluded: preloaded fault garbage "was already in
  /// the channel" and is not protocol traffic. Replaces the per-send
  /// observer the message-overhead accounting used to need.
  std::uint64_t sent_of_type(std::int32_t type) const {
    std::size_t b = type_bucket(type);
    std::uint64_t total = 0;
    if (streams_explicit_) {
      for (const Stream& s : streams_) total += s.sent_by_type[b];
    } else {
      for (const Lane& lane : lanes_) total += lane.sent_by_type[b];
    }
    return total;
  }

  /// sent_of_type restricted to one stream (per-tenant message-overhead
  /// accounting).
  std::uint64_t sent_of_type_in(int stream, std::int32_t type) const {
    const Stream& s = stream_at(stream);
    return streams_explicit_ ? s.sent_by_type[type_bucket(type)]
                             : sent_of_type(type);
  }

  /// Events executed on behalf of one stream (per-tenant recovery-cost
  /// accounting).
  std::uint64_t events_executed_in(int stream) const {
    const Stream& s = stream_at(stream);
    return streams_explicit_ ? s.events_executed : events_executed();
  }

  /// Per-channel in-flight count for (from, from_channel).
  int channel_backlog(NodeId from, int from_channel) const;

  void add_observer(SimObserver* observer) { observers_.push_back(observer); }

  /// Event-core counters (see EngineStats).
  EngineStats stats() const;

  /// Timer ids must lie in [0, kMaxTimers).
  static constexpr int kMaxTimers = 16;

 private:
  /// What a send or a delivery on one channel touches, in one cache
  /// line (see the file comment for the arrays beside it).
  struct alignas(64) Channel {
    // Delay (and chaos decision) draws.
    support::Rng rng{0};
    // FIFO clamp: the latest delivery time scheduled on the channel.
    SimTime last_scheduled = 0;
    // Seq counter of the channel's deliveries and chaos flushes (see the
    // file comment).
    std::uint64_t next_seq = 0;
    // Bumped by clear_channels(); delivery events from older epochs are
    // stale and dropped at dispatch. 32 bits suffice: a stale event would
    // have to stay pending across 2^32 clears to alias.
    std::uint32_t epoch = 0;
    // Sequencing stream (== src stream == dst stream: channels may not
    // cross streams).
    std::int32_t stream = 0;
    NodeId to = -1;
    std::int32_t to_channel = -1;
  };
  static_assert(sizeof(Channel) == 64 && alignof(Channel) == 64,
                "the hot channel record is one cache line");

  /// A cross-lane delivery created inside a window: the ring push and
  /// the destination queue push are deferred to the barrier.
  struct Outbound {
    std::int32_t channel = -1;
    Event event;
    Message msg;
  };

  /// One partition: queue (or, with explicit streams, the heads of its
  /// streams' queues), clock, counters, outbox.
  struct Lane {
    explicit Lane(SchedulerKind kind) : queue(kind) {}

    EventQueue queue;
    StreamHeads heads;
    SimTime now = 0;

    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t events_executed = 0;
    std::uint64_t in_flight = 0;  // may wrap per lane; sums are exact
    std::array<std::uint64_t, kTrackedMessageTypes> in_flight_by_type{};
    std::array<std::uint64_t, kTrackedMessageTypes> sent_by_type{};

    std::vector<Outbound> outbox;
  };

  /// One stream: its callback seq counter and, with explicit streams,
  /// its per-type census cells (single writer: all of an explicit
  /// stream's nodes live on one lane).
  struct Stream {
    std::uint64_t next_callback_seq = 0;
    std::uint64_t events_executed = 0;
    std::int32_t home_lane = 0;
    std::array<std::uint64_t, kTrackedMessageTypes> in_flight_by_type{};
    std::array<std::uint64_t, kTrackedMessageTypes> sent_by_type{};
  };

  static std::size_t type_bucket(std::int32_t type) {
    // Types outside [0, kTrackedMessageTypes) alias the junk bucket 0;
    // protocol types live in 1..4, so they are always exact. The cast
    // folds the negative range into one unsigned compare.
    std::uint32_t t = static_cast<std::uint32_t>(type);
    return t < static_cast<std::uint32_t>(kTrackedMessageTypes) ? t : 0u;
  }

  const Stream& stream_at(int stream) const {
    KLEX_REQUIRE(stream >= 0 && stream < stream_count(), "bad stream ",
                 stream);
    return streams_[static_cast<std::size_t>(stream)];
  }

  /// seq = counter * (C + N + S) + slot (see the file comment).
  std::uint64_t next_seq(std::uint64_t& counter, std::uint64_t slot) const {
    return counter++ * seq_stride_ + slot;
  }
  /// Per-type in-flight cells a send from lane `src` in `stream` counts
  /// into: the stream's with explicit streams, the lane's otherwise.
  std::array<std::uint64_t, kTrackedMessageTypes>& in_flight_cells(
      Lane& src, std::int32_t stream);

  int channel_index_of(NodeId from, int from_channel) const;
  /// Rebuilds the flat channel lookup from channel_info_.
  void rebuild_lookup() const;
  /// Rejects wiring changes once seqs may have been handed out (the
  /// stride and the channel rng keys would move under them).
  void require_unsequenced(const char* what) const;
  void boot();  // out-of-line once-only part of start()
  void size_ring_windows();
  void dispatch(Lane& lane, const Event& event);
  /// Stream owning the event's sequencing slot.
  int stream_of_event(const Event& event) const;
  /// Runs one event on `lane` (clocks already advanced) in the event's
  /// stream, with the thread-local context set for the handler; returns
  /// that stream.
  int run_event(Lane& lane, int lane_index, const Event& event);
  /// run_event for a tenant-major run of `stream`, whose context the
  /// caller holds (a detail::DispatchContext around the run).
  void run_stream_event(Lane& lane, int stream, const Event& event);
  /// Advances the clocks to `event.at` and runs it (merged-serial loop).
  void execute(Lane& lane, int lane_index, const Event& event);
  /// Pops the global (at, seq) minimum with at <= t across all lanes.
  bool pop_next(SimTime t, Event* out, int* lane_out);
  /// Merged-serial step: executes the global (at, seq) minimum if its
  /// time is <= t; false otherwise.
  bool execute_next(SimTime t);
  /// execute_next over the per-stream queues (explicit streams).
  bool execute_next_stream(SimTime t);
  /// Queues `event` in `stream`: on the lane queue of a plain engine, on
  /// the stream's own queue (checked against the executing stream) with
  /// explicit streams.
  void push_event(Lane& lane, std::int32_t stream, const Event& event) {
    if (streams_explicit_) {
      push_stream_event(stream, event);
    } else {
      lane.queue.push(event);
    }
  }
  void push_stream_event(std::int32_t stream, const Event& event);
  /// Runs lane `lane_index`'s streams tenant-major through t.
  template <typename AfterEvent>
  void run_lane_streams(int lane_index, SimTime t, AfterEvent& after_event);
  /// Sends on the channel from its source lane `src`: through the chaos
  /// model if one is attached, else straight to enqueue_delivery.
  void schedule_delivery(Lane& src, int channel_index, const Message& msg);
  /// The one delivery body: draws the delay (plus up to `jitter` extra
  /// ticks) from the channel rng, clamps it for FIFO and queues the
  /// delivery (or parks it in the outbox mid-window). `fresh` marks a
  /// first-time send, counted into the in-flight census; releases of
  /// held messages pass false (counted at hold time, no jitter).
  void enqueue_delivery(Lane& src, int channel_index, const Message& msg,
                        SimTime jitter, bool fresh);
  // Chaos send path: decide drop/duplicate/hold/jitter from the channel
  // rng, then mature the channel's older holds (the new send is the
  // overtaking traffic).
  void chaos_send(Lane& src, int channel_index, const Message& msg);
  /// Releases holds in hold order: on a flush, those with id <= `bound`;
  /// otherwise those with id < `bound` whose remaining overtake count
  /// (decremented here) reaches zero.
  void chaos_release(Lane& src, int channel_index, std::uint64_t bound,
                     bool flush);
  void schedule_callback(int stream, int lane_index, SimTime delay,
                         std::function<void()> fn, bool global);
  /// The sequencing and counting a callback and a typed action share:
  /// stamps `event` with now + delay and the stream's callback seq, and
  /// queues it on the stream's lane.
  void push_callback_event(int stream, int lane_index, SimTime delay,
                           Event& event);
  /// Dispatches a typed action (pending counters, then the handler).
  void run_action(const Event& event);
  // Observer fan-out, out of line: the hot send/deliver paths only test
  // observers_.empty(), so unmonitored runs pay no indirect call (and no
  // loop setup) per event.
  void notify_send(NodeId from, int channel, const Message& msg);
  void notify_deliver(NodeId to, int channel, const Message& msg);

  DelayModel delays_;
  SchedulerKind scheduler_kind_;
  bool started_ = false;
  bool in_window_ = false;

  std::vector<Lane> lanes_;        // >= 1; lanes_[0] is the serial lane
  std::vector<std::int32_t> node_lane_;  // empty until configure_lanes

  // Streams: one (seeded with the engine seed) until configure_streams.
  bool streams_explicit_ = false;
  std::vector<Stream> streams_;
  // One pending-event queue per explicit stream (empty on plain engines).
  std::vector<EventQueue> stream_queues_;
  std::vector<std::int32_t> node_stream_;  // one entry per node
  int last_stream_ = 0;
  // Splits the single stream's channel rngs in wiring order.
  support::Rng channel_rngs_;
  // C + N + S, kept current by add_process / connect / configure_streams.
  std::uint64_t seq_stride_ = 1;

  std::vector<std::unique_ptr<Process>> processes_;
  // Per-channel state, split by access (see the file comment).
  std::vector<Channel> channels_;
  std::vector<MessageRing> rings_;
  std::vector<ChannelInfo> channel_info_;
  // Flat lookup: node v's local channel i is channel
  // lookup_[lookup_offset_[v] + i] for i < lookup_offset_[v + 1] -
  // lookup_offset_[v], or -1 if unwired. Stale after add_process /
  // connect until the next lookup or start() rebuilds it; never stale
  // once started, so lanes only ever read it.
  mutable std::vector<std::uint32_t> lookup_offset_;
  mutable std::vector<std::int32_t> lookup_;
  mutable bool lookup_stale_ = true;
  // Each node's out-channels as a list (first_out_ per node, next_out_
  // per channel, -1 ends it): connect's duplicate-endpoint check walks
  // the source node's list instead of needing a current table.
  std::vector<std::int32_t> first_out_;
  std::vector<std::int32_t> next_out_;
  // Flat [node * kMaxTimers + timer_id] -> generation; sized with the
  // processes, so the staleness check in dispatch is one indexed load.
  // Only ever touched by the owning node's lane.
  std::vector<std::uint64_t> timer_generations_;
  // Per-node timer seq counters (node's lane only).
  std::vector<std::uint64_t> timer_seqs_;

  // Callback slab: slots are recycled through a free list, so
  // steady-state scheduling constructs no new slots (the std::function's
  // own capture allocation, if any, is the caller's). Callbacks never
  // run or get scheduled inside a window, so this is single-threaded.
  std::vector<std::function<void()>> callback_slab_;
  std::vector<std::uint32_t> callback_free_slots_;
  std::uint64_t pending_callbacks_ = 0;
  std::uint64_t pending_global_callbacks_ = 0;
  std::uint64_t callbacks_scheduled_ = 0;
  std::uint64_t callback_slots_created_ = 0;

  // Typed-action receivers, indexed by Event::handler. `pending` counts a
  // slot's queued actions, so a removed slot is reused only when no stale
  // action can reach its next owner. Single-threaded like the slab.
  struct ActionSlot {
    ActionHandler* handler = nullptr;
    std::uint64_t pending = 0;
  };
  std::vector<ActionSlot> action_slots_;

  mutable std::uint64_t in_flight_walks_ = 0;

  // Adversarial channel model; null (the reliable-FIFO engine) unless
  // configure_chaos attached one.
  std::unique_ptr<ChaosModel> chaos_;

  std::vector<SimObserver*> observers_;
};

template <typename AfterEvent>
void Engine::run_lane_streams(int lane_index, SimTime t,
                              AfterEvent& after_event) {
  Lane& lane = lanes_[static_cast<std::size_t>(lane_index)];
  // The lane clock follows each stream's own events and ends at the
  // latest time any of them reached.
  SimTime reached = lane.now;
  Event event;
  while (!lane.heads.empty() && lane.heads.top().at <= t) {
    const std::int32_t stream = lane.heads.top().stream;
    EventQueue& queue = stream_queues_[static_cast<std::size_t>(stream)];
    // Tenant-major spans hold no global callback, so every event of the
    // run is scoped to the stream.
    detail::DispatchContext context(stream, stream, lane_index);
    while (queue.pop_min_until(t, &event)) {
      lane.now = event.at;
      queue.advance_to(event.at);
      run_stream_event(lane, stream, event);
      after_event(static_cast<int>(stream), event);
    }
    reached = std::max(reached, lane.now);
    // The stream's own pushes skipped the heads (see push_stream_event):
    // re-key it once, after its run.
    lane.heads.update(stream, queue);
  }
  lane.now = reached;
}

template <typename AfterEvent>
void Engine::run_streams_until(SimTime t, AfterEvent&& after_event) {
  KLEX_CHECK(tenant_major(), "tenant-major span on a merged-serial engine");
  start();
  SimTime reached = 0;
  for (int i = 0; i < lane_count(); ++i) {
    run_lane_streams(i, t, after_event);
    reached = std::max(reached, lanes_[static_cast<std::size_t>(i)].now);
  }
  for (Lane& lane : lanes_) lane.now = reached;
}

}  // namespace klex::sim
