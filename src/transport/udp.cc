#include "transport/udp.h"

#include <utility>

#include "util/check.h"

namespace rv::transport {

UdpSocket::UdpSocket(TransportMux& mux, net::Port port)
    : mux_(mux), port_(port == 0 ? mux.allocate_port() : port) {
  mux_.bind(net::Protocol::kUdp, port_, this);
}

UdpSocket::~UdpSocket() { mux_.unbind(net::Protocol::kUdp, port_); }

void UdpSocket::send_to(net::Endpoint to, std::int32_t payload_bytes,
                        std::shared_ptr<const net::PayloadMeta> meta) {
  RV_CHECK_GE(payload_bytes, 0);
  net::Packet p;
  p.dst = to.node;
  p.dst_port = to.port;
  p.src_port = port_;
  p.proto = net::Protocol::kUdp;
  p.size_bytes = net::kUdpHeaderBytes + payload_bytes;
  p.meta = std::move(meta);
  mux_.send(std::move(p));
}

void UdpSocket::on_packet(net::Packet packet) {
  if (on_datagram_) {
    on_datagram_({packet.src, packet.src_port}, packet.meta,
                 packet.payload_bytes());
  }
}

}  // namespace rv::transport
