// Real-time event-driven transport: the wall-clock lane.
//
// Where net::SimNetwork advances a simulated clock over one global event
// queue, AsyncRuntime runs every registered node as a serial event loop
// multiplexed onto a util::ThreadPool: messages are serialized through a
// wire codec at the sender, shaped by the same LinkConfig knobs (delay,
// jitter, loss, reorder, partitions) the simulator honors, and decoded into
// a private copy on the receiver's loop — so real crypto (HMAC-SHA256
// signatures, USIG certificates) overlaps real I/O across cores, and no
// C++ object is ever shared between two node loops.
//
// Structure per node:
//  * a bounded inbound frame queue — overflow drops the OLDEST frame
//    (clients retransmit; dropping new frames would starve retransmissions
//    behind stale backlog) and is accounted per node and globally;
//  * an unbounded local job queue for timer callbacks and posted closures
//    (protocol timers must not be lost to backpressure);
//  * a `draining` flag ensuring at most one pool task dispatches the node
//    at a time — the loop is serial, handlers never race with their own
//    timers.
//
// Timers are monotonic wall-clock (std::chrono::steady_clock), fired by a
// dedicated timer thread that also releases delay-shaped frames.  Timer ids
// share SimNetwork's cancellation semantics: cancel is a no-op for dead
// ids.  A live timer is indexed by id, so cancel takes it out of the queue
// at once, and unregistering a host drops every timer it owns.
//
// Authenticator batching (the wall-clock fast path): every frame travels
// inside a bundle authenticated by one HMAC-SHA256 tag under a per-directed-
// pair link key (modelling pre-shared session keys; each thread keeps the
// keys it uses with their pads compressed).  With flush_window = 0
// each message is its own bundle — the classic one-MAC-per-message cost.
// With flush_window > 0 outbound frames per destination coalesce behind a
// short flush timer, so one authenticator (and one shaping/queueing pass)
// covers the whole flush; the receiver verifies the single tag, then
// decodes and dispatches each frame in order.  A bundle that fails
// authentication is dropped whole and counted (auth_failures).
//
// Shutdown: stop() fences off new sends and timers, joins the timer
// thread, then waits for every in-flight node loop to go idle.  The
// destructor calls stop(), so a scoped runtime never leaks tasks into the
// pool it borrowed.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tolerance/crypto/hmac.hpp"
#include "tolerance/net/fault_injector.hpp"
#include "tolerance/net/profiles.hpp"
#include "tolerance/net/transport.hpp"
#include "tolerance/net/wire_io.hpp"
#include "tolerance/util/ensure.hpp"
#include "tolerance/util/rng.hpp"
#include "tolerance/util/thread_pool.hpp"

namespace tolerance::net {

/// `Codec` must provide
///   static std::vector<std::uint8_t> encode(const Msg&);
///   static std::optional<Msg> decode(const std::uint8_t*, std::size_t);
/// (net::MinBftCodec is the in-tree instance, wire.hpp).
template <class Msg, class Codec>
class AsyncRuntime final : public Transport<Msg> {
 public:
  using Handler = typename Transport<Msg>::Handler;
  using Bytes = wire::Bytes;

  struct Options {
    LinkConfig replica_link{};  ///< links among ids below client_floor
    LinkConfig client_link{};   ///< links touching ids >= client_floor
    NodeId client_floor = 10000;
    /// Inbound frame queue capacity per node (drop-oldest beyond).
    std::size_t inbound_capacity = 4096;
    /// Outbound authenticator-batching window in seconds.  0 ships every
    /// message as its own authenticated bundle (one HMAC per message);
    /// > 0 coalesces frames per destination for up to this long so one
    /// HMAC-SHA256 tag covers the whole flush.
    double flush_window = 0.0;
    std::uint64_t seed = 1;  ///< loss/jitter/reorder draws + link keys
  };

  AsyncRuntime(util::ThreadPool& pool, Options options)
      : pool_(&pool), options_(validated(std::move(options))),
        rng_(options_.seed), start_(std::chrono::steady_clock::now()),
        timer_thread_([this]() { timer_loop(); }) {}

  ~AsyncRuntime() override { stop(); }

  AsyncRuntime(const AsyncRuntime&) = delete;
  AsyncRuntime& operator=(const AsyncRuntime&) = delete;

  // --- Transport -----------------------------------------------------------

  double now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void register_host(NodeId id, Handler handler) override {
    auto host = std::make_shared<Host>();
    host->id = id;
    host->handler = std::move(handler);
    std::lock_guard<std::mutex> lk(hosts_mu_);
    hosts_[id] = std::move(host);
  }

  /// Removes the host, drops its queued frames and jobs, and cancels every
  /// timer it scheduled: a callback captured by the departed object never
  /// runs, not even on a host later registered under the same id.
  void unregister_host(NodeId id) override { remove_host(id); }

  /// unregister_host plus a quiesce wait: returns only once no drain task is
  /// dispatching into the host, so the caller may destroy the object behind
  /// the (now cleared) handler.  This is the crash path of the chaos lane —
  /// plain unregister_host only guarantees that a drain observes the cleared
  /// handler *before its next dispatch*, not that an in-flight one finished.
  void detach_host(NodeId id) {
    const std::shared_ptr<Host> host = remove_host(id);
    if (!host) return;
    // An in-flight drain copied the handler before we cleared it and may be
    // mid-dispatch; `draining` stays true until that burst parks on the
    // emptied queues.  Crash-path only, so a short sleep-poll is fine.
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(host->mu);
        if (!host->draining) return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  bool is_registered(NodeId id) const override {
    std::lock_guard<std::mutex> lk(hosts_mu_);
    return hosts_.count(id) > 0;
  }

  void send(NodeId from, NodeId to, Msg msg) override {
    transmit(from, to,
             std::make_shared<const Bytes>(Codec::encode(msg)));
  }

  void broadcast(NodeId from, const std::vector<NodeId>& recipients,
                 const Msg& msg) override {
    // One serialization for the whole fan-out; receivers decode privately.
    const auto bytes = std::make_shared<const Bytes>(Codec::encode(msg));
    for (NodeId to : recipients) {
      if (to != from) transmit(from, to, bytes);
    }
  }

  std::uint64_t schedule(NodeId owner, double delay,
                         std::function<void()> fn) override {
    TOL_ENSURE(delay >= 0.0, "delay must be non-negative");
    const auto when = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(delay));
    std::lock_guard<std::mutex> lk(timer_mu_);
    if (stopping_) return 0;  // cancel(0) is a no-op
    const std::uint64_t id = next_timer_id_++;
    const bool new_front = timers_.empty() || when < timers_.begin()->first;
    live_timers_.emplace(
        id, timers_.emplace(when, TimerEntry{id, owner, /*direct=*/false,
                                             std::move(fn)}));
    // The timer thread sleeps until the earliest deadline; inserting a
    // later one does not change its wake-up time, so skip the notify (at
    // load, most timers are retransmission guards far in the future).
    if (new_front) timer_cv_.notify_all();
    return id;
  }

  void cancel(std::uint64_t timer_id) override {
    std::lock_guard<std::mutex> lk(timer_mu_);
    const auto it = live_timers_.find(timer_id);
    if (it == live_timers_.end()) return;
    timers_.erase(it->second);
    live_timers_.erase(it);
  }

  /// The wall-clock lane's nodes burn real CPU, so the sim lane's modelled
  /// cost is ignored here.
  void consume_cpu(NodeId, double) override {}

  // --- runtime-specific surface --------------------------------------------

  /// Run `fn` on `owner`'s serial event loop (e.g. the initial closed-loop
  /// client submissions, which must not race the client's own loop).
  void post(NodeId owner, std::function<void()> fn) {
    const auto host = find_host(owner);
    if (!host) return;
    std::lock_guard<std::mutex> lk(host->mu);
    if (!host->handler) return;
    host->jobs.push_back(std::move(fn));
    maybe_start_drain_locked(host);
  }

  /// Attach (or detach, with nullptr) a chaos-lane fault injector.  Consulted
  /// on the sender path for every outbound bundle AFTER the authenticator is
  /// computed — injected corruption therefore always lands on authenticated
  /// bytes and dies in the receiver's HMAC check, never in a codec or
  /// handler.  The injector must outlive the runtime (the cluster harness
  /// owns both).
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// Block / unblock a bidirectional pair, and partition semantics matching
  /// SimNetwork (a new grouping wholesale-replaces the previous one).
  void set_blocked(NodeId a, NodeId b, bool blocked) {
    std::lock_guard<std::mutex> lk(net_state_mu_);
    if (blocked) {
      blocked_.insert(ordered(a, b));
    } else {
      blocked_.erase(ordered(a, b));
    }
  }

  void partition(const std::vector<std::vector<NodeId>>& groups) {
    std::lock_guard<std::mutex> lk(net_state_mu_);
    partition_blocked_.clear();
    std::unordered_map<NodeId, int> group_of;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (NodeId n : groups[g]) group_of[n] = static_cast<int>(g);
    }
    std::vector<NodeId> all;
    for (const auto& [id, g] : group_of) {
      (void)g;
      all.push_back(id);
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
      for (std::size_t j = i + 1; j < all.size(); ++j) {
        if (group_of[all[i]] != group_of[all[j]]) {
          partition_blocked_.insert(ordered(all[i], all[j]));
        }
      }
    }
  }

  void heal_partition() {
    std::lock_guard<std::mutex> lk(net_state_mu_);
    partition_blocked_.clear();
  }

  /// Fence off new sends/timers, join the timer thread, and wait until every
  /// node loop has gone idle.  Idempotent; called by the destructor.
  void stop() {
    stop_requested_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(timer_mu_);
      stopping_ = true;
      timer_cv_.notify_all();
    }
    if (timer_thread_.joinable()) timer_thread_.join();
    std::unique_lock<std::mutex> lk(tasks_mu_);
    tasks_cv_.wait(lk, [this]() { return tasks_in_flight_ == 0; });
  }

  // --- accounting ----------------------------------------------------------

  std::uint64_t dropped_messages() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t reordered_messages() const {
    return reordered_.load(std::memory_order_relaxed);
  }
  /// Frames evicted from full inbound queues (drop-oldest), totalled.
  std::uint64_t overflow_dropped() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  std::uint64_t overflow_dropped(NodeId id) const {
    const auto host = find_host(id);
    if (!host) return 0;
    std::lock_guard<std::mutex> lk(host->mu);
    return host->overflow;
  }
  /// Frames waiting in `id`'s bounded inbox — the wall-clock lane's queue*
  /// input to admission control (same meaning as SimNetwork's per-receiver
  /// FIFO depth, so both lanes feed the pressure loop identically).
  std::size_t queue_depth(NodeId id) const override {
    const auto host = find_host(id);
    if (!host) return 0;
    std::lock_guard<std::mutex> lk(host->mu);
    return host->inbox.size();
  }
  std::uint64_t decode_errors() const {
    return decode_errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t handler_errors() const {
    return handler_errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered_frames() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  /// Bundle authenticators computed at senders (== bundles shipped); the
  /// amortization the flush window buys is bundled_frames / macs_computed.
  std::uint64_t macs_computed() const {
    return macs_computed_.load(std::memory_order_relaxed);
  }
  /// Frames carried inside those bundles.
  std::uint64_t bundled_frames() const {
    return bundled_frames_.load(std::memory_order_relaxed);
  }
  /// Bundles dropped whole because their HMAC tag did not verify.
  std::uint64_t auth_failures() const {
    return auth_failures_.load(std::memory_order_relaxed);
  }

  /// Test hook: enqueue raw bytes at `to` as if they arrived from `from`,
  /// bypassing the sender path — how a tampered or spoofed bundle reaches
  /// the authentication check.
  void inject_frame(NodeId from, NodeId to, Bytes raw) {
    enqueue_frame(to, Frame{from, std::make_shared<const Bytes>(std::move(raw))});
  }
  /// User timers scheduled but neither fired nor cancelled yet.
  std::size_t live_timer_count() const {
    std::lock_guard<std::mutex> lk(timer_mu_);
    return live_timers_.size();
  }

 private:
  struct Frame {
    NodeId from = 0;
    std::shared_ptr<const Bytes> bytes;
  };

  struct Host {
    mutable std::mutex mu;
    NodeId id = 0;
    Handler handler;
    std::deque<Frame> inbox;                    ///< bounded, drop-oldest
    std::deque<std::function<void()>> jobs;     ///< timers/posts, unbounded
    bool draining = false;
    std::uint64_t overflow = 0;
  };

  struct TimerEntry {
    std::uint64_t id = 0;  ///< 0 = internal (not cancellable)
    NodeId owner = 0;
    /// Internal dispatches (delay-shaped frame releases) run on the timer
    /// thread; user timers are posted onto the owner's loop.
    bool direct = false;
    std::function<void()> fn;
  };

  // Validation happens before the timer thread member starts: throwing
  // after a joinable std::thread is constructed would std::terminate.
  static Options validated(Options o) {
    TOL_ENSURE(o.inbound_capacity >= 1,
               "inbound queue capacity must be positive");
    return o;
  }

  static std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  std::shared_ptr<Host> find_host(NodeId id) const {
    std::lock_guard<std::mutex> lk(hosts_mu_);
    const auto it = hosts_.find(id);
    return it == hosts_.end() ? nullptr : it->second;
  }

  /// The unregister path; returns the removed host (nullptr if unknown).
  std::shared_ptr<Host> remove_host(NodeId id) {
    std::shared_ptr<Host> host;
    {
      std::lock_guard<std::mutex> lk(hosts_mu_);
      const auto it = hosts_.find(id);
      if (it == hosts_.end()) return nullptr;
      host = it->second;
      hosts_.erase(it);
    }
    {
      // Clear the handler under the host lock so an in-flight drain
      // observes the removal and stops dispatching (frames already queued
      // are dropped).
      std::lock_guard<std::mutex> lk(host->mu);
      host->handler = nullptr;
      host->inbox.clear();
      host->jobs.clear();
    }
    // The rest leave the queue here.  A timer the timer thread took off the
    // queue just before this posts into a host that is gone and is dropped
    // (unless the id is registered again within those microseconds).
    std::lock_guard<std::mutex> lk(timer_mu_);
    for (auto it = live_timers_.begin(); it != live_timers_.end();) {
      if (it->second->second.owner == id) {
        timers_.erase(it->second);
        it = live_timers_.erase(it);
      } else {
        ++it;
      }
    }
    return host;
  }

  const LinkConfig& link_for(NodeId from, NodeId to) const {
    return (from >= options_.client_floor || to >= options_.client_floor)
               ? options_.client_link
               : options_.replica_link;
  }

  // --- authenticator batching ----------------------------------------------

  /// Pre-shared link key per directed pair: the HMAC key
  /// "link:<seed>:<from>><to>", derived from the runtime seed (a closed
  /// system: every legitimate sender/receiver pair shares it).  The key is
  /// a function of (seed, from, to) alone, so each thread keeps the ones it
  /// has used in a direct-mapped table, read without a lock; a miss derives
  /// the key and overwrites its slot.
  const crypto::HmacKey& link_key(NodeId from, NodeId to) const {
    thread_local std::vector<LinkSlot> slots(kLinkKeySlots);
    const LinkId link{options_.seed, from, to};
    LinkSlot& slot = slots[LinkIdHash{}(link) & (kLinkKeySlots - 1)];
    if (!slot.key || slot.link != link) {
      slot.link = link;
      slot.key.emplace("link:" + std::to_string(options_.seed) + ":" +
                       std::to_string(from) + ">" + std::to_string(to));
    }
    return *slot.key;
  }

  /// Bundle layout: varint frame count, then per frame a varint length and
  /// the frame bytes, then the 32-byte HMAC-SHA256 tag over everything
  /// before it.
  std::shared_ptr<const Bytes> make_bundle(
      NodeId from, NodeId to,
      std::span<const std::shared_ptr<const Bytes>> frames) {
    wire::Writer w;
    std::size_t payload = 0;
    for (const auto& f : frames) payload += f->size() + 10;
    w.reserve(payload + crypto::Digest{}.size() + 4);
    w.varint(frames.size());
    for (const auto& f : frames) {
      w.varint(f->size());
      w.bytes(f->data(), f->size());
    }
    Bytes out = w.take();
    const crypto::Digest tag = link_key(from, to).tag(std::string_view(
        reinterpret_cast<const char*>(out.data()), out.size()));
    out.insert(out.end(), tag.begin(), tag.end());
    macs_computed_.fetch_add(1, std::memory_order_relaxed);
    bundled_frames_.fetch_add(frames.size(), std::memory_order_relaxed);
    return std::make_shared<const Bytes>(std::move(out));
  }

  void transmit(NodeId from, NodeId to,
                std::shared_ptr<const Bytes> bytes) {
    // The stop fence must cover the zero-delay fast path too: a handler
    // that sends on every delivery (closed-loop traffic) would otherwise
    // keep its own loop busy forever and stop() could never drain it.
    if (stop_requested_.load(std::memory_order_acquire)) return;
    if (options_.flush_window <= 0.0) {
      // One bundle (and one authenticator) per message.
      ship_bundle(from, to, make_bundle(from, to, std::span(&bytes, 1)));
      return;
    }
    // Nagle-style coalescing: a message onto a quiet channel ships at once
    // (batching must not tax the latency-critical first message of a burst);
    // messages that FOLLOW within the window — the N^2 fan-out bursts of a
    // loaded consensus step — buffer behind one flush timer and share one
    // authenticator.  Per pair that bounds the MAC (and shaping) rate to two
    // bundles per window, and FIFO order is preserved: while anything is
    // buffered or armed, nothing bypasses the queue.
    const auto window =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.flush_window));
    bool ship_now = false;
    bool arm = false;
    std::vector<std::shared_ptr<const Bytes>> full;  // size-triggered flush
    {
      BundleShard& shard = shard_for(from);
      std::lock_guard<std::mutex> lk(shard.mu);
      const auto now_tp = std::chrono::steady_clock::now();
      PairState& pair = shard.pairs[{from, to}];
      if (pair.queued.empty() && !pair.armed &&
          now_tp - pair.last_ship >= window) {
        pair.last_ship = now_tp;
        ship_now = true;
      }
      if (!ship_now) {
        pair.queued.push_back(std::move(bytes));
        if (pair.queued.size() >= kFlushMaxFrames) {
          // Full bundle: ship at once.  A pending flush timer (if armed)
          // finds an empty queue and no-ops.
          full.swap(pair.queued);
          pair.last_ship = now_tp;
        } else if (!pair.armed) {
          pair.armed = true;
          arm = true;
        }
      }
    }
    if (ship_now) {
      // Outside the shard lock: make_bundle runs real crypto and
      // ship_bundle takes the shaping locks.
      ship_bundle(from, to, make_bundle(from, to, std::span(&bytes, 1)));
      return;
    }
    if (!full.empty()) {
      ship_bundle(from, to, make_bundle(from, to, full));
      return;
    }
    if (!arm) return;  // an earlier message already armed the flush
    // Arm the per-pair flush: a direct (timer-thread) dispatch, like the
    // delay-shaped frame releases.
    const auto when =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.flush_window));
    std::lock_guard<std::mutex> lk(timer_mu_);
    if (stopping_) return;
    const bool new_front = timers_.empty() || when < timers_.begin()->first;
    timers_.emplace(when, TimerEntry{0, to, /*direct=*/true,
                                     [this, from, to]() {
                                       flush_pair(from, to);
                                     }});
    if (new_front) timer_cv_.notify_all();
  }

  void flush_pair(NodeId from, NodeId to) {
    std::vector<std::shared_ptr<const Bytes>> frames;
    {
      BundleShard& shard = shard_for(from);
      std::lock_guard<std::mutex> lk(shard.mu);
      const auto it = shard.pairs.find({from, to});
      if (it == shard.pairs.end()) return;
      frames.swap(it->second.queued);
      it->second.armed = false;
      if (!frames.empty()) {
        it->second.last_ship = std::chrono::steady_clock::now();
      }
    }
    if (frames.empty()) return;
    ship_bundle(from, to, make_bundle(from, to, frames));
  }

  /// Link shaping, FIFO-channel clamping, and delivery of one authenticated
  /// bundle — the loss/jitter/reorder draws apply per bundle, exactly like
  /// the packets a real network would carry.
  void ship_bundle(NodeId from, NodeId to,
                   std::shared_ptr<const Bytes> bytes) {
    if (stop_requested_.load(std::memory_order_acquire)) return;
    {
      std::lock_guard<std::mutex> lk(net_state_mu_);
      const auto key = ordered(from, to);
      if (blocked_.count(key) > 0 || partition_blocked_.count(key) > 0) {
        return;
      }
    }
    if (FaultInjector* fi =
            fault_injector_.load(std::memory_order_acquire)) {
      switch (fi->on_bundle(from, to)) {
        case FaultInjector::Action::kDrop:
          return;
        case FaultInjector::Action::kCorrupt: {
          // Corrupt a private copy: broadcast fan-outs share `bytes`, and
          // only this directed pair drew the fault.
          Bytes mangled = *bytes;
          fi->corrupt(mangled);
          bytes = std::make_shared<const Bytes>(std::move(mangled));
          break;
        }
        case FaultInjector::Action::kDeliver:
          break;
      }
    }
    const LinkConfig& cfg = link_for(from, to);
    double delay = cfg.base_delay;
    {
      std::lock_guard<std::mutex> lk(rng_mu_);
      if (rng_.bernoulli(cfg.loss)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (cfg.jitter > 0.0) delay += rng_.uniform(0.0, cfg.jitter);
      if (cfg.reorder > 0.0 && rng_.bernoulli(cfg.reorder)) {
        delay += cfg.reorder_delay;
        reordered_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const auto now_tp = std::chrono::steady_clock::now();
    auto when = now_tp + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(delay));
    {
      // FIFO per directed pair, like the TCP channels a real deployment
      // runs on: jitter and reorder delays stretch latency, but a message
      // never overtakes an earlier one on the same channel.  (MinBFT's
      // counter-freshness check permanently discards a leapfrogged
      // counter, so a transport without this guarantee stalls the
      // protocol; the simulator gets the same property from its per-node
      // arrival-order inbound queues.)
      std::lock_guard<std::mutex> lk(channel_mu_);
      auto& frontier = channel_frontier_[{from, to}];
      if (when < frontier) when = frontier;
      frontier = when;
    }
    if (when <= now_tp) {
      enqueue_frame(to, Frame{from, std::move(bytes)});
      return;
    }
    std::lock_guard<std::mutex> lk(timer_mu_);
    if (stopping_) return;
    const bool new_front = timers_.empty() || when < timers_.begin()->first;
    timers_.emplace(
        when,
        TimerEntry{0, to, /*direct=*/true,
                   [this, to, f = Frame{from, std::move(bytes)}]() mutable {
                     enqueue_frame(to, std::move(f));
                   }});
    if (new_front) timer_cv_.notify_all();
  }

  void enqueue_frame(NodeId to, Frame frame) {
    const auto host = find_host(to);
    if (!host) return;
    std::lock_guard<std::mutex> lk(host->mu);
    if (!host->handler) return;
    if (host->inbox.size() >= options_.inbound_capacity) {
      host->inbox.pop_front();
      host->overflow += 1;
      overflow_.fetch_add(1, std::memory_order_relaxed);
    }
    host->inbox.push_back(std::move(frame));
    maybe_start_drain_locked(host);
  }

  // Requires host->mu held.
  void maybe_start_drain_locked(const std::shared_ptr<Host>& host) {
    if (host->draining) return;
    host->draining = true;
    {
      std::lock_guard<std::mutex> lk(tasks_mu_);
      ++tasks_in_flight_;
    }
    pool_->submit([this, host]() { drain(host); });
  }

  void drain(const std::shared_ptr<Host>& host) {
    // Dispatch a bounded burst, then requeue: one hot node cannot pin a
    // pool worker while other loops starve.
    for (int burst = 0; burst < kDrainBurst; ++burst) {
      std::function<void()> job;
      Frame frame;
      Handler handler;
      bool have_frame = false;
      {
        std::lock_guard<std::mutex> lk(host->mu);
        if (!host->jobs.empty()) {
          job = std::move(host->jobs.front());
          host->jobs.pop_front();
        } else if (!host->inbox.empty()) {
          frame = std::move(host->inbox.front());
          host->inbox.pop_front();
          handler = host->handler;  // copy: unregister may clear it
          have_frame = true;
        } else {
          host->draining = false;
          finish_task();
          return;
        }
      }
      try {
        if (job) {
          job();
        } else if (have_frame && handler) {
          dispatch_bundle(host->id, frame, handler);
        }
      } catch (const std::exception&) {
        // A throwing job must not take down the pool worker; surface
        // through the counter (tests assert it stays zero).
        handler_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    pool_->submit([this, host]() { drain(host); });  // keep the task slot
  }

  /// Authenticate one inbound bundle FIRST, then parse and dispatch its
  /// frames in order.  Verifying the tag before touching the bundle
  /// structure means any tampering — header, frame bytes, or tag — dies as
  /// one auth failure; the parser below only ever sees bytes an honest
  /// sender authenticated, so a decode error there flags a sender-side bug
  /// (or an injected frame too short to even carry a tag), never line noise.
  void dispatch_bundle(NodeId self, const Frame& frame,
                       const Handler& handler) {
    const Bytes& b = *frame.bytes;
    const std::size_t tag_size = crypto::Digest{}.size();
    if (b.size() < tag_size + 1) {
      // Not even a tag plus a frame-count byte: not a bundle at all.
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::size_t body = b.size() - tag_size;
    crypto::Digest tag{};
    std::copy(b.begin() + static_cast<std::ptrdiff_t>(body), b.end(),
              tag.begin());
    if (!link_key(frame.from, self)
             .verify(std::string_view(reinterpret_cast<const char*>(b.data()),
                                      body),
                     tag)) {
      auth_failures_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Walks the header, handing each frame to `on_frame`; false if it is
    // malformed.
    const auto walk = [&](auto&& on_frame) {
      wire::Reader r(b.data(), body);
      const auto count = r.varint();
      if (!count || *count > r.remaining()) return false;
      for (std::uint64_t i = 0; i < *count; ++i) {
        const auto len = r.varint();
        const auto span = len ? r.bytes(*len) : std::nullopt;
        if (!span) return false;
        on_frame(*span);
      }
      return r.done();
    };
    // The whole header parses before any frame is dispatched: a malformed
    // bundle delivers nothing.
    if (!walk([](std::span<const std::uint8_t>) {})) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    walk([&](std::span<const std::uint8_t> span) {
      const auto msg = Codec::decode(span.data(), span.size());
      if (!msg) {
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      delivered_.fetch_add(1, std::memory_order_relaxed);
      try {
        handler(frame.from, *msg);
      } catch (const std::exception&) {
        // A throwing handler must not poison the rest of the bundle (or
        // the pool worker); surface through the counter.
        handler_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  void finish_task() {
    std::lock_guard<std::mutex> lk(tasks_mu_);
    if (--tasks_in_flight_ == 0) tasks_cv_.notify_all();
  }

  void timer_loop() {
    std::vector<TimerEntry> due;
    std::unique_lock<std::mutex> lk(timer_mu_);
    while (!stopping_) {
      if (timers_.empty()) {
        timer_cv_.wait(lk);
        continue;
      }
      const auto when = timers_.begin()->first;
      if (when > std::chrono::steady_clock::now()) {
        timer_cv_.wait_until(lk, when);
        continue;
      }
      // Collect everything due, then dispatch outside the lock (posting
      // locks host mutexes; holding timer_mu_ across that invites
      // lock-order cycles with schedule()).
      const auto now_tp = std::chrono::steady_clock::now();
      while (!timers_.empty() && timers_.begin()->first <= now_tp) {
        TimerEntry& e = timers_.begin()->second;
        if (e.id != 0) live_timers_.erase(e.id);
        due.push_back(std::move(e));
        timers_.erase(timers_.begin());
      }
      lk.unlock();
      for (TimerEntry& e : due) {
        if (e.direct) {
          e.fn();
        } else {
          post(e.owner, std::move(e.fn));
        }
      }
      due.clear();
      lk.lock();
    }
  }

  static constexpr int kDrainBurst = 64;
  /// Size trigger for the coalescing window: a buffered bundle that reaches
  /// this many frames ships immediately instead of waiting out the window,
  /// so a high-rate pair pays amortized MACs without the full window's
  /// latency tax.
  static constexpr std::size_t kFlushMaxFrames = 16;
  /// Slots of each thread's link-key table: a power of two, 88 bytes a
  /// slot, so 352 KiB for each thread that frames or verifies a bundle.  A
  /// miss costs what an uncached key costs (one key string, two pad
  /// compressions), never more.  Measured: perfbench's service cluster
  /// (7 replicas, 4 clients) uses 98 directed pairs, and at most 0.5 % of
  /// its lookups missed on six seeds (the slot of a colliding pair);
  /// bench_fig10 --runtime with 100 clients uses 606 pairs at N = 3 and
  /// 7,130 at N = 31; its LAN cells missed 8-15 % of lookups up to N = 7
  /// and 38-41 % at N = 31 (WAN cells 22-39 %), and with its default 2,000
  /// clients (12,006 to 124,930 pairs) 62-76 % miss.
  static constexpr std::size_t kLinkKeySlots = 4096;

  /// A directed pair of one runtime seed: what a link key depends on.
  struct LinkId {
    std::uint64_t seed = 0;
    NodeId from = 0;
    NodeId to = 0;
    bool operator==(const LinkId&) const = default;
  };
  struct LinkIdHash {
    std::size_t operator()(const LinkId& l) const {
      return static_cast<std::size_t>(crypto::seeded_mix(
          crypto::seeded_mix(l.seed, l.from), l.to));
    }
  };
  struct LinkSlot {
    LinkId link;
    std::optional<crypto::HmacKey> key;  ///< empty until first use
  };

  util::ThreadPool* pool_;
  Options options_;

  mutable std::mutex rng_mu_;
  Rng rng_;

  const std::chrono::steady_clock::time_point start_;

  mutable std::mutex hosts_mu_;
  std::unordered_map<NodeId, std::shared_ptr<Host>> hosts_;

  mutable std::mutex net_state_mu_;
  std::set<std::pair<NodeId, NodeId>> blocked_;
  std::set<std::pair<NodeId, NodeId>> partition_blocked_;

  std::mutex channel_mu_;
  /// Latest scheduled arrival per directed pair (the FIFO frontier).
  std::map<std::pair<NodeId, NodeId>,
           std::chrono::steady_clock::time_point>
      channel_frontier_;

  /// Per-pair coalescing state (only touched when flush_window > 0):
  /// `queued` holds frames awaiting the armed flush; `last_ship` is the
  /// last bundle departure — a quiet channel (no departure within the
  /// window) ships the next message immediately, Nagle-style.  Sharded by
  /// sender so the hot path never funnels every node through one mutex.
  struct PairState {
    std::vector<std::shared_ptr<const Bytes>> queued;
    bool armed = false;
    std::chrono::steady_clock::time_point last_ship{};
  };
  struct BundleShard {
    std::mutex mu;
    std::map<std::pair<NodeId, NodeId>, PairState> pairs;
  };
  static constexpr std::size_t kBundleShards = 64;
  BundleShard& shard_for(NodeId from) {
    return bundle_shards_[static_cast<std::size_t>(from) % kBundleShards];
  }
  std::array<BundleShard, kBundleShards> bundle_shards_;

  std::atomic<bool> stop_requested_{false};  ///< lock-free send fence

  /// Chaos-lane fault injector (nullptr = faults off); owned by the caller.
  std::atomic<FaultInjector*> fault_injector_{nullptr};

  mutable std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  bool stopping_ = false;
  std::uint64_t next_timer_id_ = 1;
  using TimerQueue =
      std::multimap<std::chrono::steady_clock::time_point, TimerEntry>;
  TimerQueue timers_;
  /// Each live user timer's queue entry, by id.
  std::unordered_map<std::uint64_t, typename TimerQueue::iterator>
      live_timers_;

  std::mutex tasks_mu_;
  std::condition_variable tasks_cv_;
  int tasks_in_flight_ = 0;

  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> reordered_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> handler_errors_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> macs_computed_{0};
  std::atomic<std::uint64_t> bundled_frames_{0};
  std::atomic<std::uint64_t> auth_failures_{0};

  std::thread timer_thread_;  ///< last member: starts after state is ready
};

}  // namespace tolerance::net
