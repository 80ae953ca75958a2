#include "net/network.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "util/check.h"

namespace rv::net {
namespace {

constexpr std::int64_t kMtuBytes = 1500;

}  // namespace

NodeId Network::add_node(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, std::move(name)));
  routes_ready_ = false;
  return id;
}

Link& Network::add_link(NodeId a, NodeId b, BitsPerSec rate,
                        SimTime prop_delay,
                        std::int64_t queue_capacity_bytes) {
  QueueConfig queue;
  queue.capacity_bytes = queue_capacity_bytes;
  return add_link(a, b, rate, prop_delay, queue);
}

Link& Network::add_link(NodeId a, NodeId b, BitsPerSec rate,
                        SimTime prop_delay, QueueConfig queue) {
  RV_CHECK_LT(a, nodes_.size());
  RV_CHECK_LT(b, nodes_.size());
  RV_CHECK_NE(a, b);
  if (queue.capacity_bytes <= 0) {
    // Default: max(BDP over a 200 ms horizon, 32 KiB) — a plausible
    // router-buffer sizing rule for the period.
    const auto bdp =
        static_cast<std::int64_t>(rate * 0.200 / 8.0);
    queue.capacity_bytes = std::max<std::int64_t>(bdp, 32 * 1024);
  }
  links_.push_back(
      std::make_unique<Link>(sim_, a, b, rate, prop_delay, queue));
  Link& link = *links_.back();
  // Arriving packets are handled by the receiving node (after the optional
  // observation tap sees them).
  const auto deliver_at = [this](NodeId id, std::unique_ptr<Packet> p) {
    if (tap_) tap_(*p, id, sim_.now());
    nodes_[id]->handle(std::move(p));
  };
  link.direction_from(a).set_deliver(
      [deliver_at, id = b](std::unique_ptr<Packet> p) {
        deliver_at(id, std::move(p));
      });
  link.direction_from(b).set_deliver(
      [deliver_at, id = a](std::unique_ptr<Packet> p) {
        deliver_at(id, std::move(p));
      });
  routes_ready_ = false;
  return link;
}

Node& Network::node(NodeId id) {
  RV_CHECK_LT(id, nodes_.size());
  return *nodes_[id];
}

const Node& Network::node(NodeId id) const {
  RV_CHECK_LT(id, nodes_.size());
  return *nodes_[id];
}

void Network::compute_routes() {
  // Adjacency: node -> (neighbor, link index, cost).
  struct Edge {
    NodeId to;
    std::size_t link;
    SimTime cost;
  };
  std::vector<std::vector<Edge>> adj(nodes_.size());
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const Link& l = *links_[li];
    const auto cost_from = [&](NodeId from) {
      const LinkDirection& d = l.direction_from(from);
      return d.prop_delay() + transmission_time(kMtuBytes, d.rate());
    };
    adj[l.a()].push_back({l.b(), li, cost_from(l.a())});
    adj[l.b()].push_back({l.a(), li, cost_from(l.b())});
  }

  constexpr SimTime kInf = std::numeric_limits<SimTime>::max();
  for (NodeId src = 0; src < nodes_.size(); ++src) {
    std::vector<SimTime> dist(nodes_.size(), kInf);
    // first_hop[v] = link to take out of src on the shortest path to v.
    std::vector<std::size_t> first_hop(nodes_.size(),
                                       std::numeric_limits<std::size_t>::max());
    using HeapItem = std::pair<SimTime, NodeId>;
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    dist[src] = 0;
    heap.push({0, src});
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      for (const Edge& e : adj[u]) {
        const SimTime nd = d + e.cost;
        if (nd < dist[e.to]) {
          dist[e.to] = nd;
          first_hop[e.to] = (u == src) ? e.link : first_hop[u];
          heap.push({nd, e.to});
        }
      }
    }
    for (NodeId dst = 0; dst < nodes_.size(); ++dst) {
      if (dst == src || dist[dst] == kInf) continue;
      Link& l = *links_[first_hop[dst]];
      nodes_[src]->set_route(dst, &l.direction_from(src));
    }
  }
  routes_ready_ = true;
}

void Network::send(Packet packet) {
  RV_CHECK(routes_ready_) << "compute_routes() before sending";
  RV_CHECK_LT(packet.src, nodes_.size());
  RV_CHECK_LT(packet.dst, nodes_.size());
  const NodeId src = packet.src;
  nodes_[src]->handle(std::make_unique<Packet>(std::move(packet)));
}

}  // namespace rv::net
