// simnet_transport.h — the deterministic Transport: a forwarding shim
// over simnet::Network.
//
// Every method delegates to exactly the call the actors used to make
// directly (net.send, sim.schedule, sim.now, net.rng, net.tracer), in the
// same order, against the same objects.  That is the whole point: with
// this shim in place the simnet path is byte-identical to the
// pre-Transport code — same RNG draw sequence, same event ordering, same
// golden vectors, same chaos schedules.
//
// post() is the one genuinely new entry point (external injection onto an
// actor's strand).  On simnet a strand is just the single simulator
// thread, so it maps to schedule(0, fn): the task runs at the current
// sim-time, FIFO with everything else scheduled now.  Only new
// (transport-aware) drivers call it.

#pragma once

#include "transport/transport.h"

namespace p2pcash::transport {

class SimnetTransport final : public Transport {
 public:
  explicit SimnetTransport(simnet::Network& net) : net_(net) {}

  NodeId attach(simnet::Node& node) override { return net_.attach(node); }
  void send(Message msg) override { net_.send(std::move(msg)); }
  SimTime now() const override { return net_.sim().now(); }
  void schedule_on(NodeId, SimTime delay_ms,
                   std::function<void()> fn) override {
    net_.sim().schedule(delay_ms, std::move(fn));
  }
  void post(NodeId, std::function<void()> fn) override {
    net_.sim().schedule(0, std::move(fn));
  }
  bn::Rng& rng(NodeId) override { return net_.rng(); }
  obs::Tracer* tracer() const override { return net_.tracer(); }
  void set_down(NodeId node, bool down) override { net_.set_down(node, down); }

  simnet::Network& net() { return net_; }

 private:
  simnet::Network& net_;
};

}  // namespace p2pcash::transport
