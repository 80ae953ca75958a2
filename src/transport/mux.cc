#include "transport/mux.h"

#include <utility>

#include "util/check.h"

namespace rv::transport {

TransportMux::TransportMux(net::Network& network, net::NodeId node)
    : network_(network), node_(node) {
  network_.node(node_).set_local_sink(
      [this](net::Packet p) { deliver(std::move(p)); });
}

void TransportMux::bind(net::Protocol proto, net::Port local_port,
                        PacketSink* sink) {
  RV_CHECK(sink != nullptr);
  const auto [it, inserted] =
      wildcard_.insert({{proto, local_port}, sink});
  RV_CHECK(inserted) << "port already bound: " << local_port;
  (void)it;
}

void TransportMux::unbind(net::Protocol proto, net::Port local_port) {
  wildcard_.erase({proto, local_port});
}

void TransportMux::bind_connected(net::Protocol proto, net::Port local_port,
                                  net::Endpoint remote, PacketSink* sink) {
  RV_CHECK(sink != nullptr);
  const auto [it, inserted] = connected_.insert(
      {{proto, local_port, remote.node, remote.port}, sink});
  RV_CHECK(inserted) << "connected tuple already bound";
  (void)it;
}

void TransportMux::unbind_connected(net::Protocol proto,
                                    net::Port local_port,
                                    net::Endpoint remote) {
  connected_.erase({proto, local_port, remote.node, remote.port});
}

net::Port TransportMux::allocate_port() {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const net::Port p = next_ephemeral_++;
    if (next_ephemeral_ == 0) next_ephemeral_ = 49152;
    if (wildcard_.count({net::Protocol::kTcp, p}) == 0 &&
        wildcard_.count({net::Protocol::kUdp, p}) == 0) {
      return p;
    }
  }
  RV_CHECK(false) << "ephemeral ports exhausted";
  return 0;
}

void TransportMux::send(net::Packet packet) {
  packet.src = node_;
  network_.send(std::move(packet));
}

void TransportMux::deliver(net::Packet packet) {
  const auto cit = connected_.find(
      {packet.proto, packet.dst_port, packet.src, packet.src_port});
  if (cit != connected_.end()) {
    cit->second->on_packet(std::move(packet));
    return;
  }
  const auto wit = wildcard_.find({packet.proto, packet.dst_port});
  if (wit != wildcard_.end()) {
    wit->second->on_packet(std::move(packet));
  }
  // A packet for a closed port is dropped.
}

}  // namespace rv::transport
