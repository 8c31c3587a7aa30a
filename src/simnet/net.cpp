#include "simnet/net.h"

#include <stdexcept>

namespace p2pcash::simnet {

Network::Network(Simulator& sim, std::unique_ptr<LatencyModel> latency,
                 bn::Rng& rng, WireFormat format)
    : sim_(sim), latency_(std::move(latency)), rng_(rng), format_(format) {
  if (!latency_)
    throw std::invalid_argument("Network: latency model required");
}

NodeId Network::attach(Node& node) {
  node.id_ = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(&node);
  return node.id_;
}

double Network::sample_uniform() {
  return static_cast<double>(rng_.next_u64() >> 11) * 0x1.0p-53;
}

void Network::trace_event(const Message& msg, std::string_view name,
                          std::string_view detail) {
  if (!tracer_ || !msg.trace.valid()) return;
  std::string text(detail);
  text += " type=";
  text += msg.type;
  text += ' ';
  text += std::to_string(msg.from);
  text += "->";
  text += std::to_string(msg.to);
  tracer_->event(msg.trace, name, text);
}

void Network::deliver_copy(Message msg, SimTime delay,
                           std::size_t wire_bytes) {
  sim_.schedule(delay, [this, msg = std::move(msg), wire_bytes]() {
    if (down_.contains(msg.to)) {  // went down in flight
      trace_event(msg, "net.lost", "receiver went down in flight");
      return;
    }
    traffic_[msg.to].received.add(wire_bytes);
    nodes_[msg.to]->on_message(msg);
  });
}

void Network::send(Message msg) {
  if (msg.to >= nodes_.size())
    throw std::invalid_argument("Network::send: unknown destination");
  const std::size_t wire_bytes =
      encoded_size_exact(format_, msg.type, msg.payload);
  // The sender pays exactly once per send(), whatever the network then does
  // to the message (see the byte-accounting contract in net.h).
  traffic_[msg.from].sent.add(wire_bytes);

  if (down_.contains(msg.from) || down_.contains(msg.to)) {
    trace_event(msg, "net.drop", "endpoint down");
    return;
  }
  if (partition_separates(msg.from, msg.to)) {
    trace_event(msg, "net.drop", "partitioned");
    return;
  }
  const LinkFault* fault = link_fault(msg.from, msg.to);
  if (drop_rate_ > 0 && sample_uniform() < drop_rate_) {
    trace_event(msg, "net.drop", "ambient loss");
    return;
  }
  if (fault && fault->drop > 0 && sample_uniform() < fault->drop) {
    trace_event(msg, "net.drop", "link fault loss");
    return;
  }

  SimTime delay = latency_->one_way_ms(msg.from, msg.to, rng_);
  if (fault) {
    delay += fault->extra_latency_ms;
    if (fault->reorder > 0 && sample_uniform() < fault->reorder) {
      // Hold this message back so later sends on the link overtake it.
      delay += sample_uniform() * fault->reorder_hold_ms;
      trace_event(msg, "net.reorder", "held back");
    }
  }
  const bool duplicate =
      fault && fault->duplicate > 0 && sample_uniform() < fault->duplicate;
  if (duplicate) {
    SimTime dup_delay = latency_->one_way_ms(msg.from, msg.to, rng_) +
                        fault->extra_latency_ms;
    trace_event(msg, "net.dup", "spurious extra copy");
    deliver_copy(msg, dup_delay, wire_bytes);  // the spurious extra copy
  }
  deliver_copy(std::move(msg), delay, wire_bytes);
}

void Network::set_down(NodeId node, bool down) {
  if (down)
    down_.insert(node);
  else
    down_.erase(node);
}

void Network::set_link_fault(NodeId from, NodeId to, const LinkFault& fault) {
  if (fault.active())
    link_faults_[{from, to}] = fault;
  else
    link_faults_.erase({from, to});
}

void Network::clear_link_fault(NodeId from, NodeId to) {
  link_faults_.erase({from, to});
}

const LinkFault* Network::link_fault(NodeId from, NodeId to) const {
  auto it = link_faults_.find({from, to});
  return it == link_faults_.end() ? nullptr : &it->second;
}

void Network::set_partition(const std::vector<std::vector<NodeId>>& groups) {
  partition_group_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (NodeId node : groups[g]) partition_group_[node] = g;
  }
  partitioned_ = !partition_group_.empty();
}

bool Network::partition_separates(NodeId a, NodeId b) const {
  if (!partitioned_) return false;
  auto group = [this](NodeId n) {
    auto it = partition_group_.find(n);
    return it == partition_group_.end() ? std::size_t{0} : it->second;
  };
  return group(a) != group(b);
}

std::uint64_t Network::bytes_sent(NodeId node) const {
  auto it = traffic_.find(node);
  return it == traffic_.end() ? 0 : it->second.sent.total();
}

std::uint64_t Network::bytes_received(NodeId node) const {
  auto it = traffic_.find(node);
  return it == traffic_.end() ? 0 : it->second.received.total();
}

std::uint64_t Network::messages_sent(NodeId node) const {
  auto it = traffic_.find(node);
  return it == traffic_.end() ? 0 : it->second.sent.messages();
}

void Network::reset_byte_counts() { traffic_.clear(); }

}  // namespace p2pcash::simnet
