#include "shared_flags.h"

#include <chrono>
#include <iostream>
#include <thread>

#include "transport/congestion_control.h"

namespace rv::tools {

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
