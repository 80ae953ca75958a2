#include "net/node.h"

#include <utility>

#include "util/check.h"

namespace rv::net {

void Node::set_route(NodeId dst, LinkDirection* out) {
  RV_CHECK(out != nullptr);
  if (dst >= routes_.size()) routes_.resize(dst + 1, nullptr);
  routes_[dst] = out;
}

LinkDirection* Node::route_to(NodeId dst) const {
  return dst < routes_.size() ? routes_[dst] : nullptr;
}

void Node::handle(std::unique_ptr<Packet> packet) {
  if (packet->dst == id_) {
    if (local_sink_) {
      local_sink_(std::move(*packet));
    } else {
      // Packets for a node with no transport bound land here by design.
      ++sink_drops_;
    }
    return;
  }
  LinkDirection* out = route_to(packet->dst);
  if (out == nullptr) {
    ++no_route_drops_;
    return;
  }
  out->send(std::move(packet));
}

}  // namespace rv::net
