// The simulated packet.
//
// Packets are value types: cheap to copy (application payload is carried as a
// shared_ptr to immutable metadata rather than as bytes — this is a
// simulator, so only sizes travel the wire, not content). The short header
// lists (SACK blocks, chunk records) use inline SmallVec storage, so a
// typical packet owns no heap memory beyond itself. Network::send moves each
// packet into one heap allocation, and the forwarding path (link queue,
// delivery event, receiving node) passes the std::unique_ptr<Packet> along.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "net/address.h"
#include "util/small_vec.h"
#include "util/units.h"

namespace rv::net {

// Base for application-level payload metadata attached to packets (media
// packet descriptors, receiver feedback reports, RTSP messages, ...).
struct PayloadMeta {
  virtual ~PayloadMeta() = default;
};

// TCP header fields used by the simulation.
struct TcpHeader {
  std::uint64_t seq = 0;  // first byte carried by this segment
  std::uint64_t ack = 0;  // next byte expected by the sender of this packet
  bool syn = false;
  bool ack_flag = false;
  bool fin = false;
  std::int64_t window_bytes = 0;  // advertised receive window
  // SACK option (RFC 2018): up to 3 [start, end) blocks of received
  // out-of-order data. Empty when the option is off or nothing is queued.
  // Inline capacity matches the RFC's 3-block cap, so building the option
  // never allocates.
  util::SmallVec<std::pair<std::uint64_t, std::uint64_t>, 3> sack_blocks;
};

// Marks an application chunk (e.g. a video frame fragment handed to TCP as
// one write) that *ends* within this segment; the receiver uses these to
// re-frame the byte stream.
struct TcpChunkRecord {
  std::uint64_t end_offset = 0;  // stream offset one past the chunk's last byte
  std::shared_ptr<const PayloadMeta> meta;
};

inline constexpr std::int32_t kTcpHeaderBytes = 40;  // IP + TCP
inline constexpr std::int32_t kUdpHeaderBytes = 28;  // IP + UDP

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Port src_port = 0;
  Port dst_port = 0;
  Protocol proto = Protocol::kUdp;
  std::int32_t size_bytes = 0;  // total on-wire size, headers included

  TcpHeader tcp;  // valid when proto == kTcp
  // Chunk boundaries in this segment. MSS-sized writes end at most one chunk
  // per segment; inline room for 2 also covers a trailing sub-MSS chunk.
  util::SmallVec<TcpChunkRecord, 2> chunks;
  std::shared_ptr<const PayloadMeta> meta;  // app payload descriptor

  std::int32_t payload_bytes() const {
    const std::int32_t hdr =
        proto == Protocol::kTcp ? kTcpHeaderBytes : kUdpHeaderBytes;
    return size_bytes > hdr ? size_bytes - hdr : 0;
  }
};

}  // namespace rv::net
