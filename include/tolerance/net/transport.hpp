// The message-passing surface the consensus layer programs against.
//
// Two backends implement it:
//  * net::SimNetwork — deterministic simulated time (golden traces, model
//    checking, the Fig. 10 simulated-cost lane);
//  * net::AsyncRuntime — real threads and wall-clock timers (the runtime
//    lane, where real crypto overlaps real I/O).
//
// The same MinBftReplica / MinBftClient logic runs on either: everything
// they need from a network is here.  Sim-only facilities (stepping the
// event loop, seeding, link surgery mid-run) stay on the concrete classes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace tolerance::net {

using NodeId = std::uint32_t;

template <class Msg>
class Transport {
 public:
  using Handler = std::function<void(NodeId from, const Msg&)>;

  virtual ~Transport() = default;

  /// Current time in seconds: simulated on the sim lane, monotonic
  /// wall-clock since runtime start on the async lane.
  virtual double now() const = 0;

  virtual void register_host(NodeId id, Handler handler) = 0;
  virtual void unregister_host(NodeId id) = 0;
  virtual bool is_registered(NodeId id) const = 0;

  /// Send a message; may be dropped (loss) or blocked (partition).
  virtual void send(NodeId from, NodeId to, Msg msg) = 0;

  /// Fan a message out to every recipient except the sender itself.  The
  /// async backend serializes the message once for the whole fan-out.
  virtual void broadcast(NodeId from, const std::vector<NodeId>& recipients,
                         const Msg& msg) = 0;

  /// Schedule `fn` to run after `delay` seconds in `owner`'s execution
  /// context (on the async lane each node is a serial event loop; the timer
  /// callback runs on it, never concurrently with the node's handler).
  /// Returns a cancellable id.
  virtual std::uint64_t schedule(NodeId owner, double delay,
                                 std::function<void()> fn) = 0;

  /// Cancel a scheduled timer.  A no-op for already-fired (or never-issued)
  /// ids; on the async lane a callback that is already being dispatched may
  /// still run.
  virtual void cancel(std::uint64_t timer_id) = 0;

  /// Account CPU time on a node (e.g. a signature).  The sim backend
  /// serializes subsequent deliveries/sends behind the busy window; the
  /// async backend's nodes burn real CPU instead and ignore the modelled
  /// cost.
  virtual void consume_cpu(NodeId node, double seconds) = 0;

  /// Undelivered inbound messages currently queued for `node` — the
  /// transport's contribution to the admission controller's queue* signal.
  /// SimNetwork reports its per-receiver FIFO; AsyncRuntime reports the
  /// node's bounded inbox.  0 for unknown nodes.
  virtual std::size_t queue_depth(NodeId node) const {
    (void)node;
    return 0;
  }
};

}  // namespace tolerance::net
