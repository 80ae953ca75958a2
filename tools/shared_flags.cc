#include "shared_flags.h"

#include <iostream>

#include "transport/congestion_control.h"

namespace rv::tools {

std::optional<SharedFlags> parse_shared_flags(const util::Args& args,
                                              tracer::TracerConfig& tracer) {
  SharedFlags flags;
  if (const auto cc = args.get("cc")) {
    const auto parsed = transport::parse_cc_algorithm(*cc);
    if (!parsed) {
      std::cerr << "--cc expects one of reno|cubic|bbr (got '" << *cc
                << "')\n";
      return std::nullopt;
    }
    tracer.tcp_cc = *parsed;
  }
  if (args.has("trace")) {
    flags.trace_path = args.get_or("trace", "");
    if (flags.trace_path.empty()) {
      std::cerr << "--trace requires a file path\n";
      return std::nullopt;
    }
    tracer.obs.enabled = true;
  }
  if (args.has("series-csv")) {
    flags.series_csv = args.get_or("series-csv", "");
    if (flags.series_csv.empty()) {
      std::cerr << "--series-csv requires a file path\n";
      return std::nullopt;
    }
  }
  const auto interval_ms = args.get_int("telemetry-interval-ms", 500);
  if (args.has("telemetry-interval-ms") && interval_ms <= 0) {
    std::cerr << "--telemetry-interval-ms must be a positive integer (got "
              << interval_ms << ")\n";
    return std::nullopt;
  }
  // Telemetry settings are outside the cache fingerprint, so setting the
  // interval with sampling off changes nothing.
  tracer.telemetry.interval = msec(interval_ms);
  if (args.has("telemetry") || !flags.series_csv.empty()) {
    tracer.telemetry.enabled = true;
  }
  if (args.has("status-port")) {
    const std::string raw = args.get_or("status-port", "");
    const auto parsed = obs::parse_status_port(raw);
    if (!parsed) {
      std::cerr << "--status-port expects an integer in [0, 65535] (got '"
                << raw << "')\n";
      return std::nullopt;
    }
    flags.status_port = *parsed;
  }
  flags.status_hold_ms = args.get_int("status-hold-ms", 0);
  if (args.has("status-hold-ms") && flags.status_hold_ms < 0) {
    std::cerr << "--status-hold-ms must be a non-negative integer (got "
              << flags.status_hold_ms << ")\n";
    return std::nullopt;
  }
  return flags;
}

bool start_status_server(const SharedFlags& flags,
                         obs::MetricsRegistry* metrics,
                         std::unique_ptr<obs::StatusServer>& server) {
  if (flags.status_port < 0) return true;
  server = std::make_unique<obs::StatusServer>(metrics);
  std::string err;
  if (!server->start(flags.status_port, &err)) {
    std::cerr << "--status-port: " << err << "\n";
    return false;
  }
  std::cerr << "status: serving http://127.0.0.1:" << server->port()
            << "/{metrics,progress,healthz}\n";
  return true;
}

}  // namespace rv::tools
