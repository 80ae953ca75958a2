// Network nodes: routers and hosts.
//
// A node forwards packets via its static routing table; packets addressed to
// the node itself are handed to the registered local sink (the transport
// mux). Packets with no route or no sink are dropped and counted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/packet.h"

namespace rv::net {

class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  // Routing: the outgoing link direction that reaches `dst`.
  void set_route(NodeId dst, LinkDirection* out);
  LinkDirection* route_to(NodeId dst) const;

  // Local delivery sink for packets addressed to this node.
  void set_local_sink(std::function<void(Packet)> sink) {
    local_sink_ = std::move(sink);
  }

  // Entry point for packets arriving at (or originated by) this node. The
  // packet is forwarded onward, or moved into the local sink.
  void handle(std::unique_ptr<Packet> packet);

  std::uint64_t no_route_drops() const { return no_route_drops_; }
  std::uint64_t sink_drops() const { return sink_drops_; }

 private:
  NodeId id_;
  std::string name_;
  std::vector<LinkDirection*> routes_;  // by destination; null: no route
  std::function<void(Packet)> local_sink_;
  std::uint64_t no_route_drops_ = 0;
  std::uint64_t sink_drops_ = 0;
};

}  // namespace rv::net
