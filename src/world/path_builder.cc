#include "world/path_builder.h"

#include <algorithm>

#include "util/check.h"

namespace rv::world {
namespace {

// Queue sizing for wide-area segments: ~80 ms of the link rate, bounded.
std::int64_t wan_queue_bytes(BitsPerSec rate) {
  const auto bytes = static_cast<std::int64_t>(rate * 0.080 / 8.0);
  return std::clamp<std::int64_t>(bytes, 16 * 1024, 96 * 1024);
}

net::QueueConfig wan_queue(BitsPerSec rate, net::QueuePolicy policy) {
  net::QueueConfig q;
  q.policy = policy;
  q.capacity_bytes = wan_queue_bytes(rate);
  return q;
}

// Converts a long-run load fraction into an on/off burst process. Bursts are
// capped near link capacity: real cross traffic is mostly TCP, which backs
// off rather than blasting 25% over the line rate indefinitely — so a
// low-rate foreground flow rides out ON periods in the queue (delay spikes)
// while a high-rate one loses packets and must adapt.
net::CrossTrafficConfig cross_config(BitsPerSec capacity, double load,
                                     std::int32_t packet_bytes,
                                     util::Rng& rng) {
  net::CrossTrafficConfig cfg;
  cfg.packet_bytes = packet_bytes;
  if (load > 1.0) {
    // Saturation episode: a flash crowd offers far more than the line rate,
    // nearly continuously. Drop-tail sheds a third or more of *everyone's*
    // packets for seconds at a time — lethal to a streaming session, as a
    // 2001 server overload was.
    cfg.burst_rate = capacity * rng.uniform(1.5, 2.0);
    cfg.mean_on = msec(static_cast<std::int64_t>(rng.uniform(2000.0, 3500.0)));
    cfg.mean_off = static_cast<SimTime>(
        static_cast<double>(cfg.mean_on) * 0.25);
    return cfg;
  }
  // Normal regime: bursts capped near capacity, so a low-rate foreground
  // flow rides out ON periods in the queue while a high-rate one adapts.
  const double burst = std::clamp(2.0 * load, 0.10, 1.05);
  cfg.burst_rate = capacity * burst;
  const double duty = std::clamp(load / burst, 0.05, 0.95);
  cfg.mean_on = msec(static_cast<std::int64_t>(rng.uniform(300.0, 500.0)));
  cfg.mean_off = static_cast<SimTime>(
      static_cast<double>(cfg.mean_on) * (1.0 - duty) / duty);
  return cfg;
}

}  // namespace

PlayPath PathBuilder::build(sim::Simulator& sim, const UserProfile& user,
                            const AccessSpec& access, const ServerSite& site,
                            util::Rng& rng) const {
  PlayPath path;
  path.network = std::make_unique<net::Network>(sim);
  net::Network& net = *path.network;

  const net::NodeId client = net.add_node("client");
  const net::NodeId isp = net.add_node("isp");
  const net::NodeId wan_a = net.add_node("wan-a");
  const net::NodeId wan_b = net.add_node("wan-b");
  const net::NodeId server = net.add_node("server");
  path.client_node = client;
  path.server_node = server;

  auto add_cross = [&](net::NodeId from, net::NodeId to, BitsPerSec capacity,
                       double load, bool episodes = true) {
    // Occasionally a segment spends the whole play saturated (an outage-
    // grade congestion episode).
    if (episodes && rng.bernoulli(config_.episode_probability)) {
      load = rng.uniform(1.00, 1.15);
    }
    if (load < config_.negligible_load) return;
    path.cross_traffic.push_back(std::make_unique<net::CrossTrafficSource>(
        net, from, to,
        cross_config(capacity, load, config_.cross_packet_bytes, rng),
        rng.fork(path.cross_traffic.size() + 1)));
  };

  // 1. Client access link.
  net.add_link(client, isp, access.rate, access.delay, access.queue_bytes);
  if (access.cross_load_hi > 0.0) {
    // Shared corporate segment: contention in the download direction.
    add_cross(isp, client, access.rate,
              rng.uniform(access.cross_load_lo, access.cross_load_hi));
  }

  // 2. ISP uplink (user-side wiredness).
  const double isp_load = rng.uniform(user.isp_load_lo, user.isp_load_hi);
  net.add_link(isp, wan_a, config_.isp_uplink_capacity, msec(3),
               wan_queue(config_.isp_uplink_capacity, config_.queue_policy));
  add_cross(wan_a, isp, config_.isp_uplink_capacity, isp_load);

  // 3. Wide-area corridor: collapse the backbone path to its bottleneck leg
  // (per-flow effective capacity), keeping the full propagation delay.
  BitsPerSec wan_capacity = config_.wan_capacity_cap;
  double wan_load = rng.uniform(0.15, 0.45);  // intra-region floor
  SimTime wan_delay = msec(2);
  if (user.region != site.region) {
    wan_delay = graph_.path_delay(user.region, site.region) + msec(3);
    double min_available = 1e18;
    for (const auto li : graph_.path(user.region, site.region)) {
      const auto& leg = graph_.links()[li];
      const BitsPerSec eff = std::min(leg.capacity, config_.wan_capacity_cap);
      const double load = rng.uniform(leg.load_lo, leg.load_hi);
      const double available = eff * (1.0 - load);
      if (available < min_available) {
        min_available = available;
        wan_capacity = eff;
        wan_load = load;
      }
    }
  }
  net.add_link(wan_a, wan_b, wan_capacity, wan_delay,
               wan_queue(wan_capacity, config_.queue_policy));
  // Media flows server -> wan_b -> wan_a: load that direction.
  add_cross(wan_b, wan_a, wan_capacity, wan_load);

  // 4. Server access link (where broadband bottlenecks increasingly live,
  // §V.A). The popular sites saturate outright with per-site probability.
  const BitsPerSec srv_capacity =
      std::min(site.access_rate, config_.server_access_cap);
  double srv_load = rng.uniform(site.load_lo, site.load_hi);
  if (rng.bernoulli(site.overload_probability)) {
    srv_load = rng.uniform(1.00, 1.15);
  }
  net.add_link(wan_b, server, srv_capacity, msec(2),
               wan_queue(srv_capacity, config_.queue_policy));
  // Overload already sampled above; no double episode here.
  add_cross(server, wan_b, srv_capacity, srv_load, /*episodes=*/false);

  net.compute_routes();
  RV_CHECK_EQ(net.link_count(), PlayPath::kLinkCount)
      << "PlayPath link layout changed; update PlayPath::LinkIndex";
  return path;
}

std::string path_link_name(std::size_t index) {
  switch (index) {
    case PlayPath::kAccessLink:
      return "access";
    case PlayPath::kIspUplink:
      return "isp-uplink";
    case PlayPath::kWanCorridor:
      return "wan-corridor";
    case PlayPath::kServerAccess:
      return "server-access";
    default:
      return "link" + std::to_string(index);
  }
}

}  // namespace rv::world
