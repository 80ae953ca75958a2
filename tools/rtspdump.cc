// rtspdump — an mmdump-style monitor ([MCCS00], the paper's related work):
// taps the simulated network of the play `retracer` runs with the same
// flags, and dumps the control-protocol conversation plus per-second data
// flow totals, as a monitoring box on the path would see them.
//
// `rtspdump --help` prints its flags, rendered from the table below;
// --packets dumps every data packet too.
#include <iostream>
#include <map>

#include "media/stream_wire.h"
#include "shared_flags.h"
#include "study/study.h"
#include "tracer/real_tracer.h"
#include "util/args.h"
#include "util/strings.h"
#include "world/region_graph.h"

namespace {

using namespace rv;

int run(const util::Args& args) {
  study::StudyConfig study_cfg;
  study_cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2001));
  const media::Catalog catalog = study::make_catalog(study_cfg);
  const world::RegionGraph graph;
  const tracer::RealTracer tracer(catalog, graph, tracer::TracerConfig{});
  const tools::OnePlay play = tools::one_play(args);

  // The tap: control messages verbatim; data flow as per-second counters.
  const bool dump_packets = args.has("packets");
  std::map<std::pair<net::NodeId, net::NodeId>, std::int64_t> second_bytes;
  SimTime current_second = 0;
  auto print_second = [&] {
    for (const auto& [flow, bytes] : second_bytes) {
      if (bytes > 0) {
        std::cout << util::format_double(to_seconds(current_second), 0)
                  << "s  data " << flow.first << "->" << flow.second << "  "
                  << util::format_double(bytes * 8.0 / 1000.0, 1)
                  << " Kbit\n";
      }
    }
    second_bytes.clear();
  };
  auto tap = [&](const net::Packet& p, net::NodeId at_node, SimTime when) {
    // Report each packet once, at its final hop into its endpoint (like a
    // monitor on the access links).
    if (at_node != p.dst) return;
    if (when / kUsecPerSec != current_second / kUsecPerSec) {
      print_second();
      current_second = when;
    }
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
    const auto* media =
        dynamic_cast<const media::MediaPacketMeta*>(p.meta.get());
    if (media == nullptr) return;
    second_bytes[{p.src, p.dst}] += p.payload_bytes();
    if (dump_packets) {
      std::cout << util::format_double(to_seconds(when), 3) << "s  UDP "
                << p.src << "->" << p.dst << "  seq=" << media->seq
                << " frame=" << media->frame_index << " level=" << media->level
                << " bytes=" << media->payload_bytes << "\n";
    }
  };
  const tracer::TraceRecord rec =
      tracer.run_single(play.user, play.playlist_index, play.play_seed,
                        play.force_tcp, nullptr, tap);
  print_second();
  std::cout << "\nsession: "
            << (rec.stats.played_any_frame ? "played" : "did not play") << ", "
            << rec.stats.frames_played << " frames played, "
            << rec.stats.packets_received << " media packets received\n";
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
