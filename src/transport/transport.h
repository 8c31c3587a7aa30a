// transport.h — the seam between protocol actors and the network.
//
// The actors in src/actors speak a UDP-like typed-message discipline:
// fire-and-forget send, per-RPC timers, loss handled by retry/failover.
// This interface captures exactly the services they consume, so the same
// BrokerActor/MerchantActor/ClientActor code runs over
//
//   (a) SimnetTransport (simnet_transport.h) — a zero-cost shim over the
//       deterministic simnet::Network.  Every call forwards verbatim to
//       the objects the actors used to touch directly, so deterministic
//       tests, chaos schedules and golden traces stay byte-identical; and
//   (b) TcpNet (tcp_net.h) — a real epoll-based TCP io-loop with
//       length-prefixed framing, per-peer outbound queues, a broken
//       connection dropped with its queue and redialed by the next send,
//       and a worker-thread pool delivering messages on per-endpoint
//       strands — real payments/sec on real cores.
//
// Contract every implementation must honor (the actors are written
// against it):
//   * send() is fire-and-forget and may silently lose messages — like UDP
//     to a dead host.  The actors' retry discipline supplies reliability.
//   * All callbacks for one endpoint — on_message deliveries, timers from
//     schedule_on(), tasks from post() — are mutually serialized (a
//     "strand").  Actor state therefore needs no locking of its own.
//     Nothing is serialized *across* endpoints: two different actors may
//     run concurrently, which is where the multicore throughput comes
//     from on the TCP implementation.
//   * now() is milliseconds on the transport's clock (virtual sim-time or
//     wall-clock since start); timers from schedule_on() fire on it.
//   * rng(node) returns a generator only ever touched from `node`'s
//     strand (the simnet implementation returns the network's shared
//     stream — safe there because the whole simulation is one thread, and
//     required for byte-identical replay of existing seeds).

#pragma once

#include <functional>

#include "bn/rng.h"
#include "obs/trace.h"
#include "simnet/net.h"

namespace p2pcash::transport {

using simnet::Message;
using simnet::NodeId;
using simnet::SimTime;

class Transport {
 public:
  virtual ~Transport();

  /// Registers an endpoint and assigns its NodeId.  Implementations may
  /// restrict when this is legal (TcpNet: only before start()).
  virtual NodeId attach(simnet::Node& node) = 0;

  /// Sends msg.from -> msg.to.  Fire-and-forget; may drop.
  virtual void send(Message msg) = 0;

  /// Current time in milliseconds on this transport's clock.
  virtual SimTime now() const = 0;

  /// Runs `fn` on `node`'s strand after `delay_ms` (>= 0).
  virtual void schedule_on(NodeId node, SimTime delay_ms,
                           std::function<void()> fn) = 0;

  /// Runs `fn` on `node`'s strand as soon as possible.  This is how code
  /// *outside* an actor (benches, runtime drivers) safely calls into it.
  virtual void post(NodeId node, std::function<void()> fn) = 0;

  /// RNG for `node`'s strand (retry jitter, cost sampling).
  virtual bn::Rng& rng(NodeId node) = 0;

  /// The tracer observing this transport, or nullptr when tracing is off.
  virtual obs::Tracer* tracer() const = 0;

  /// Takes `node` off the network (down) or back on (up): a crashed host.
  virtual void set_down(NodeId node, bool down) = 0;
};

}  // namespace p2pcash::transport
