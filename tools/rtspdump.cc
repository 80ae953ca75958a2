// rtspdump — an mmdump-style monitor ([MCCS00], the paper's related work):
// attaches a passive tap to the simulated network, runs one streaming
// session, and dumps the control-protocol conversation plus per-second data
// flow totals, as a monitoring box on the path would see them.
//
// `rtspdump --help` prints its flags, rendered from the table below;
// --packets dumps every data packet too.
#include <iostream>
#include <map>

#include "client/real_player.h"
#include "media/stream_wire.h"
#include "server/real_server.h"
#include "shared_flags.h"
#include "study/study.h"
#include "tracer/real_tracer.h"
#include "util/args.h"
#include "util/strings.h"
#include "world/path_builder.h"
#include "world/region_graph.h"
#include "world/servers.h"

namespace {

using namespace rv;

// Re-implements the session wiring of RealTracer::run_single with a tap in
// the middle (the tracer's entry point doesn't expose the network).
int run(const util::Args& args) {
  study::StudyConfig study_cfg;
  study_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2001));
  const media::Catalog catalog = study::make_catalog(study_cfg);
  const world::RegionGraph graph;

  world::UserProfile user;
  user.country = "US";
  user.us_state = "MA";
  user.region = world::Region::kUsEast;
  user.group = world::UserRegionGroup::kUsCanada;
  user.connection = tools::parse_connection(args.get_or("connection", "dsl"));
  user.pc_class = "Pentium II / 128-256";
  user.isp_load_lo = 0.3;
  user.isp_load_hi = 0.5;
  user.seed = study_cfg.seed;

  const auto playlist_index =
      static_cast<std::size_t>(args.get_int("clip", 0));
  const auto& site =
      world::server_sites()[media::Catalog::site_of(
          catalog.clip(playlist_index).id())];

  sim::Simulator sim;
  util::Rng rng(user.seed ^ 0xD0D0ull);
  world::PathBuilderConfig path_cfg;
  path_cfg.episode_probability = 0.0;
  world::PathBuilder builder(graph, path_cfg);
  const auto access = world::access_spec_for(user.connection, rng);
  world::PlayPath path = builder.build(sim, user, access, site, rng);
  path.start_cross_traffic();

  // The tap: control messages verbatim; data flow as per-second counters.
  const bool dump_packets = args.has("packets");
  std::map<std::pair<net::NodeId, net::NodeId>, std::int64_t> second_bytes;
  SimTime current_second = 0;
  auto flush_second = [&](SimTime now) {
    if (now / kUsecPerSec == current_second / kUsecPerSec) return;
    for (const auto& [flow, bytes] : second_bytes) {
      if (bytes > 0) {
        std::cout << util::format_double(to_seconds(current_second), 0)
                  << "s  data " << flow.first << "->" << flow.second << "  "
                  << util::format_double(bytes * 8.0 / 1000.0, 1)
                  << " Kbit\n";
      }
    }
    second_bytes.clear();
    current_second = now;
  };
  path.network->set_delivery_tap([&](const net::Packet& p,
                                     net::NodeId at_node, SimTime when) {
    // Report each packet once, at its final hop into either endpoint (like
    // a monitor on the access links).
    if (at_node != p.dst ||
        (p.dst != path.client_node && p.dst != path.server_node)) {
      return;
    }
    flush_second(when);
    // Control messages (RTSP/HTTP text) in the clear.
    for (const auto& chunk : p.chunks) {
      if (const auto* text = dynamic_cast<const media::RtspTextMeta*>(
              chunk.meta.get())) {
        const auto first_line = util::split(text->text, '\r')[0];
        std::cout << util::format_double(to_seconds(when), 3) << "s  "
                  << net::protocol_name(p.proto) << " " << p.src << "->"
                  << p.dst << "  " << first_line << "\n";
      }
    }
    if (p.meta != nullptr &&
        dynamic_cast<const media::MediaPacketMeta*>(p.meta.get()) !=
            nullptr &&
        at_node == path.client_node) {
      second_bytes[{p.src, p.dst}] += p.payload_bytes();
      if (dump_packets) {
        const auto& m =
            static_cast<const media::MediaPacketMeta&>(*p.meta);
        std::cout << util::format_double(to_seconds(when), 3) << "s  UDP "
                  << p.src << "->" << p.dst << "  seq=" << m.seq
                  << " frame=" << m.frame_index << " level=" << m.level
                  << " bytes=" << m.payload_bytes << "\n";
      }
    }
  });

  server::RealServerApp server(*path.network, path.server_node, catalog,
                               server::RealServerConfig{}, rng.fork("srv"));
  client::RealPlayerConfig player_cfg;
  player_cfg.reported_bandwidth =
      world::reported_bandwidth_for(user.connection);
  player_cfg.prefer_udp = args.get_or("protocol", "auto") != "tcp";
  player_cfg.watch_duration = sec(20);
  client::RealPlayerApp player(*path.network, path.client_node,
                               {path.server_node, net::kRtspPort},
                               catalog.clip(playlist_index).id(), catalog,
                               player_cfg);
  player.start();
  sim.run_until(sec(60));
  flush_second(sim.now());
  std::cout << "\nsession: "
            << (player.stats().played_any_frame ? "played" : "did not play")
            << ", " << player.stats().packets_received
            << " media packets received\n";
  return 0;
}

const util::CommandSpec kCommand[] = {
    {.flags = util::join({tools::kPlayFlags, {{"packets"}}})},
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv, kCommand);
  if (args.has("help")) {
    std::cout << util::usage("rtspdump", kCommand);
    return 0;
  }
  if (!util::check_flags(args, kCommand[0], std::cerr)) return 2;
  return run(args);
}
