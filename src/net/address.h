// Node/port addressing shared by the network and transport layers.
#pragma once

#include <cstdint>

namespace rv::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};

using Port = std::uint16_t;

// Well-known ports in the simulated world.
inline constexpr Port kRtspPort = 554;

enum class Protocol : std::uint8_t { kTcp, kUdp };
inline constexpr int kProtocolCount = 2;

constexpr const char* protocol_name(Protocol p) {
  return p == Protocol::kTcp ? "TCP" : "UDP";
}

// A transport endpoint.
struct Endpoint {
  NodeId node = kInvalidNode;
  Port port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

}  // namespace rv::net
