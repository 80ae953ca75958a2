// Flags realdata and retracer share, parsed and validated in one place:
// --cc, --trace, --series-csv, --telemetry / --telemetry-interval-ms,
// --status-port and --status-hold-ms.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "tracer/real_tracer.h"
#include "util/args.h"

namespace rv::tools {

// The --status-* settings are wall-clock-side: they never reach the
// simulation or the cache fingerprint.
struct SharedFlags {
  std::string trace_path;  // --trace PATH; empty = no trace
  std::string series_csv;  // --series-csv PATH; empty = no CSV export
  int status_port = -1;    // --status-port; -1 = no exporter, 0 = ephemeral
  std::int64_t status_hold_ms = 0;
};

// Applies --cc, --trace and the telemetry flags to `tracer` and returns the
// rest. A malformed value prints its diagnostic and returns std::nullopt;
// the tool then exits 2. Numeric typos (`--telemetry-interval-ms 5o0`) are
// left in args.errors() for the tool's own errors() check.
std::optional<SharedFlags> parse_shared_flags(const util::Args& args,
                                              tracer::TracerConfig& tracer);

// Starts the --status-port exporter over `metrics` into `server` and
// announces its URL on stderr. Leaves `server` empty without --status-port;
// returns false, after printing why, if the port cannot be bound.
bool start_status_server(const SharedFlags& flags,
                         obs::MetricsRegistry* metrics,
                         std::unique_ptr<obs::StatusServer>& server);

}  // namespace rv::tools
