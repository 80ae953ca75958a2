// Flags the tools share, declared and parsed in one place: --cc, --trace,
// --series-csv, --telemetry / --telemetry-interval-ms, --status-port and
// --status-hold-ms (realdata and retracer), and the one-play flags
// --connection, --clip, --protocol and --seed (retracer and rtspdump).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "media/catalog.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "tracer/real_tracer.h"
#include "util/args.h"
#include "world/types.h"

namespace rv::tools {

using util::FlagKind;

// The rows of the flags apply_shared_flags() and StatusExporter read,
// except the two outputs, which only a command that writes them reads.
inline const std::vector<util::FlagSpec> kSharedFlags = {
    {"cc", FlagKind::kChoice, "reno|cubic|bbr"},
    {"telemetry"},
    {"telemetry-interval-ms", FlagKind::kInt, "N", 1, util::kDayMs},
    {"status-port", FlagKind::kInt, "P", 0, 65535},
    util::beside({"status-hold-ms", FlagKind::kInt, "N", 0, util::kDayMs},
                 "status-port")};
inline constexpr util::FlagSpec kTraceFlag{"trace", FlagKind::kPath, "PATH"};
inline constexpr util::FlagSpec kSeriesCsvFlag{"series-csv", FlagKind::kPath,
                                               "PATH"};

// The one-play tools' rows: the user's connection, the playlist index of the
// clip, the transport (tcp forces TCP) and the seed.
inline const std::vector<util::FlagSpec> kPlayFlags = {
    {"connection", FlagKind::kChoice, "modem|dsl|t1|lan"},
    {"clip", FlagKind::kInt, "N", 0,
     media::CatalogSpec{}.playlist_size - 1.0},
    {"protocol", FlagKind::kChoice, "auto|tcp"},
    {"seed", FlagKind::kInt, "N"}};

inline world::ConnectionClass parse_connection(const std::string& s) {
  if (s == "modem") return world::ConnectionClass::kModem56k;
  if (s == "t1" || s == "lan") return world::ConnectionClass::kT1Lan;
  return world::ConnectionClass::kDslCable;
}

// Applies --cc, --trace and the telemetry flags to `tracer`. `args` has
// passed util::check_flags against the rows above.
void apply_shared_flags(const util::Args& args, tracer::TracerConfig& tracer);

// The process-wide metrics registry, installed while this lives, and the
// --status-port exporter over it. The --status-* settings are
// wall-clock-side: they never reach the simulation or the cache fingerprint.
class StatusExporter {
 public:
  StatusExporter() { obs::install_metrics(&metrics_); }
  // Keeps serving --status-hold-ms first, so a scraper polling /progress
  // can observe the final state.
  ~StatusExporter();
  StatusExporter(const StatusExporter&) = delete;
  StatusExporter& operator=(const StatusExporter&) = delete;

  // Starts the exporter (none without --status-port) and announces its URL
  // on stderr. Returns false, after printing why, if the port cannot be
  // bound.
  bool start(const util::Args& args);

 private:
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::StatusServer> server_;
  std::int64_t hold_ms_ = 0;
};

}  // namespace rv::tools
