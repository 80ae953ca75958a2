#include "shared_flags.h"

#include <chrono>
#include <iostream>
#include <thread>

#include "transport/congestion_control.h"

namespace rv::tools {
namespace {

world::ConnectionClass parse_connection(const std::string& s) {
  if (s == "modem") return world::ConnectionClass::kModem56k;
  if (s == "t1" || s == "lan") return world::ConnectionClass::kT1Lan;
  return world::ConnectionClass::kDslCable;
}

world::Region parse_region(const std::string& s) {
  for (int i = 0; i < world::kRegionCount; ++i) {
    const auto region = static_cast<world::Region>(i);
    if (world::region_name(region) == s) return region;
  }
  return world::Region::kUsEast;
}

}  // namespace

OnePlay one_play(const util::Args& args) {
  OnePlay play;
  world::UserProfile& user = play.user;
  user.country = "US";
  user.us_state = "MA";
  user.region = parse_region(args.get_or("region", "us-east"));
  user.group = world::UserRegionGroup::kUsCanada;
  user.connection = parse_connection(args.get_or("connection", "dsl"));
  user.pc_class = args.get_or("pc", "Pentium II / 128-256");
  user.isp_load_lo = 0.3;
  user.isp_load_hi = 0.6;
  user.seed = static_cast<std::uint64_t>(args.get_int("seed", 2001));
  play.playlist_index = static_cast<std::size_t>(args.get_int("clip", 0));
  play.play_seed = user.seed * 7919 + play.playlist_index;
  play.force_tcp = args.get_or("protocol", "auto") == "tcp";
  return play;
}

void apply_shared_flags(const util::Args& args, tracer::TracerConfig& tracer) {
  if (const auto cc = args.get("cc")) {
    tracer.tcp_cc = *transport::parse_cc_algorithm(*cc);
  }
  if (args.has("trace")) tracer.obs.enabled = true;
  // Telemetry settings are outside the cache fingerprint, so setting the
  // interval with sampling off changes nothing.
  tracer.telemetry.interval = msec(args.get_int("telemetry-interval-ms", 500));
  if (args.has("telemetry") || args.has("series-csv")) {
    tracer.telemetry.enabled = true;
  }
}

StatusExporter::~StatusExporter() {
  if (server_ && hold_ms_ > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms_));
  }
}

bool StatusExporter::start(const util::Args& args) {
  if (!args.has("status-port")) return true;
  server_ = std::make_unique<obs::StatusServer>(&metrics_);
  hold_ms_ = args.get_int("status-hold-ms", 0);
  std::string err;
  if (!server_->start(static_cast<int>(args.get_int("status-port", 0)),
                      &err)) {
    std::cerr << "--status-port: " << err << "\n";
    return false;
  }
  std::cerr << "status: serving http://127.0.0.1:" << server_->port()
            << "/{metrics,progress,healthz}\n";
  return true;
}

}  // namespace rv::tools
