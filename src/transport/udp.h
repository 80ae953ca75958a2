// UDP datagram socket over the simulated network.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.h"
#include "transport/mux.h"

namespace rv::transport {

class UdpSocket : public PacketSink {
 public:
  // Binds `port`, or an ephemeral port when 0.
  UdpSocket(TransportMux& mux, net::Port port = 0);
  ~UdpSocket() override;

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  net::Port local_port() const { return port_; }
  net::Endpoint local_endpoint() const { return {mux_.node_id(), port_}; }

  using DatagramCallback = std::function<void(
      net::Endpoint from, std::shared_ptr<const net::PayloadMeta> meta,
      std::int32_t payload_bytes)>;
  void set_on_datagram(DatagramCallback cb) { on_datagram_ = std::move(cb); }

  // Sends `payload_bytes` of application data (+ UDP/IP header overhead).
  void send_to(net::Endpoint to, std::int32_t payload_bytes,
               std::shared_ptr<const net::PayloadMeta> meta);

  // PacketSink:
  void on_packet(net::Packet packet) override;

 private:
  TransportMux& mux_;
  net::Port port_;
  DatagramCallback on_datagram_;
};

}  // namespace rv::transport
