// Core world-model vocabulary: regions, connection classes, countries.
#pragma once

#include <string>
#include <string_view>

#include "util/units.h"

namespace rv::world {

// Backbone regions (topology nodes). Analysis groupings (Figs 14/15) are
// coarser and derived from these.
enum class Region {
  kUsEast,
  kUsWest,
  kEurope,
  kAsia,
  kJapan,
  kAustralia,
  kSouthAmerica,
  kMiddleEast,
};
inline constexpr int kRegionCount = 8;

std::string_view region_name(Region r);

// The paper's server-side grouping (Fig 14): Asia, Brazil, US/Canada,
// Australia, Europe.
enum class ServerRegionGroup { kAsia, kBrazil, kUsCanada, kAustralia, kEurope };
inline constexpr int kServerRegionGroupCount = 5;
std::string_view server_region_group_name(ServerRegionGroup g);

// The paper's user-side grouping (Fig 15): Australia/NZ, US/Canada, Asia,
// Europe.
enum class UserRegionGroup { kAustraliaNz, kUsCanada, kAsia, kEurope };
inline constexpr int kUserRegionGroupCount = 4;
std::string_view user_region_group_name(UserRegionGroup g);

// End-host network configurations (Figs 12/13/21/27).
enum class ConnectionClass { kModem56k, kDslCable, kT1Lan };
inline constexpr int kConnectionClassCount = 3;
std::string_view connection_class_name(ConnectionClass c);

struct AccessSpec {
  BitsPerSec rate = 0;
  SimTime delay = 0;        // access one-way latency (modems are slow)
  std::int64_t queue_bytes = 0;
  // Contention on the access segment (corporate LANs share the uplink).
  double cross_load_lo = 0.0;
  double cross_load_hi = 0.0;
};

}  // namespace rv::world
