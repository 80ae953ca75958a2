// The network: a graph of nodes and links with static shortest-path routing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace rv::net {

class Network {
 public:
  explicit Network(sim::Simulator& sim) : sim_(sim) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator& simulator() { return sim_; }

  NodeId add_node(std::string name);
  // Adds a symmetric full-duplex link. Queue capacity defaults to roughly a
  // bandwidth-delay product floor of 32 KiB if not given.
  Link& add_link(NodeId a, NodeId b, BitsPerSec rate, SimTime prop_delay,
                 std::int64_t queue_capacity_bytes = 0);
  // Full control over the queue policy (drop-tail or RED).
  Link& add_link(NodeId a, NodeId b, BitsPerSec rate, SimTime prop_delay,
                 QueueConfig queue);

  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  Link& link(std::size_t index) { return *links_[index]; }
  const Link& link(std::size_t index) const { return *links_[index]; }

  // Recomputes all routing tables (Dijkstra, cost = propagation delay plus
  // MTU serialisation time). Must be called after topology changes and
  // before traffic flows.
  void compute_routes();

  // Injects a packet at its source node (local stack "transmit"). The
  // packet moves onto the heap once and travels the forwarding path
  // (queues, delivery events) by its owning pointer, without further
  // copies. Undelivered packets are owned by their pending events, so they
  // may outlive the Network.
  void send(Packet packet);

  // Observation tap (mmdump-style [MCCS00]): called for every packet as it
  // is delivered off a link, with the receiving node. Passive — the packet
  // continues unmodified. Cross traffic is background load that is never
  // delivered, so the tap sees foreground packets only. One tap at a time;
  // pass nullptr to clear.
  using DeliveryTap =
      std::function<void(const Packet& packet, NodeId at_node, SimTime when)>;
  void set_delivery_tap(DeliveryTap tap) { tap_ = std::move(tap); }

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  DeliveryTap tap_;
  bool routes_ready_ = false;
};

}  // namespace rv::net
