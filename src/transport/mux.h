// Per-host transport demultiplexer.
//
// One TransportMux is installed as a host node's local packet sink. Sockets
// bind either a full 4-tuple (connected TCP) or a wildcard local port (UDP
// sockets, TCP listeners); delivery prefers the most specific match.
#pragma once

#include <functional>
#include <map>
#include <tuple>

#include "net/address.h"
#include "net/network.h"
#include "net/packet.h"

namespace rv::transport {

// Receives packets delivered by the mux.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_packet(net::Packet packet) = 0;
};

class TransportMux {
 public:
  // Installs itself as `node`'s local sink; must outlive all traffic to it.
  TransportMux(net::Network& network, net::NodeId node);

  net::NodeId node_id() const { return node_; }
  net::Network& network() { return network_; }
  sim::Simulator& simulator() { return network_.simulator(); }

  // Wildcard binding: all packets to (proto, local port).
  void bind(net::Protocol proto, net::Port local_port, PacketSink* sink);
  void unbind(net::Protocol proto, net::Port local_port);

  // Connected binding: packets to (proto, local port) from a specific remote
  // endpoint. Takes precedence over a wildcard on the same port.
  void bind_connected(net::Protocol proto, net::Port local_port,
                      net::Endpoint remote, PacketSink* sink);
  void unbind_connected(net::Protocol proto, net::Port local_port,
                        net::Endpoint remote);

  // Next unused ephemeral port.
  net::Port allocate_port();

  // Stamps the source node and transmits.
  void send(net::Packet packet);

 private:
  void deliver(net::Packet packet);

  using WildcardKey = std::pair<net::Protocol, net::Port>;
  using ConnectedKey =
      std::tuple<net::Protocol, net::Port, net::NodeId, net::Port>;

  net::Network& network_;
  net::NodeId node_;
  std::map<WildcardKey, PacketSink*> wildcard_;
  std::map<ConnectedKey, PacketSink*> connected_;
  net::Port next_ephemeral_ = 49152;
};

}  // namespace rv::transport
