// Builds the per-play network path between one user and one server site.
//
// Scale note (documented in DESIGN.md): backbone corridors are modelled at
// per-flow effective capacity (capped at a few Mbps) rather than full OC-x
// rates — a single video flow cannot use more, and it keeps the packet event
// rate tractable across ~2855 simulated plays. Queueing dynamics, cross
// traffic bursts and loss episodes are preserved, which is what the
// foreground flow actually experiences.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/cross_traffic.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "world/region_graph.h"
#include "world/servers.h"
#include "world/users.h"

namespace rv::world {

struct PlayPath {
  // PathBuilder's fixed link layout: index into network->link(). The fault
  // injector addresses segments through these (checked in build()).
  enum LinkIndex : std::size_t {
    kAccessLink = 0,    // client ↔ ISP POP
    kIspUplink = 1,     // ISP ↔ regional WAN
    kWanCorridor = 2,   // wide-area corridor
    kServerAccess = 3,  // WAN ↔ server site
    kLinkCount = 4,
  };

  std::unique_ptr<net::Network> network;
  net::NodeId client_node = 0;
  net::NodeId server_node = 0;
  std::vector<std::unique_ptr<net::CrossTrafficSource>> cross_traffic;

  // Arms every cross-traffic source (call before the session starts).
  void start_cross_traffic() {
    for (auto& src : cross_traffic) src->start();
  }
};

// Canonical name of a PlayPath::LinkIndex ("access", "isp-uplink",
// "wan-corridor", "server-access"); "link<i>" for anything beyond the fixed
// layout. Used by the telemetry bottleneck-attribution table and series CSV.
std::string path_link_name(std::size_t index);

struct PathBuilderConfig {
  // Per-flow effective capacity cap for wide-area segments.
  BitsPerSec wan_capacity_cap = kbps(2500);
  BitsPerSec isp_uplink_capacity = kbps(2000);
  // Per-flow share of a busy RealServer's uplink (a T3 serving hundreds of
  // concurrent streams leaves each flow far less than the line rate).
  BitsPerSec server_access_cap = kbps(1500);
  std::int32_t cross_packet_bytes = 1500;
  // Load below which a segment gets no cross-traffic source at all (the
  // foreground flow wouldn't notice it; saves events).
  double negligible_load = 0.05;
  // Queue discipline for wide-area segments (the 2001 default is drop-tail;
  // kRed enables the AQM ablation).
  net::QueuePolicy queue_policy = net::QueuePolicy::kDropTail;
  // Probability that a wide-area/ISP/server segment is in a sustained
  // congestion episode for this play (load pushed to ~capacity): the heavy
  // tail behind the paper's rebuffering and >=300 ms jitter population.
  double episode_probability = 0.035;
};

class PathBuilder {
 public:
  PathBuilder(const RegionGraph& graph, PathBuilderConfig config = {})
      : graph_(graph), config_(config) {}

  // Builds the client↔server path for one play. `rng` drives this play's
  // load samples; `access` is the user's (per-play) access spec.
  PlayPath build(sim::Simulator& sim, const UserProfile& user,
                 const AccessSpec& access, const ServerSite& site,
                 util::Rng& rng) const;

 private:
  const RegionGraph& graph_;
  PathBuilderConfig config_;
};

}  // namespace rv::world
