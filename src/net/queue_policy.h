// Queue management policies for link transmission queues.
//
// Drop-tail is the 2001 Internet default and what the study's paths use;
// RED (Floyd & Jacobson) is the active-queue-management alternative that the
// paper's congestion-collapse references [FF98] advocate — provided here so
// the ablation benches can ask "would RED have changed the findings?".
#pragma once

#include <cstdint>

#include "util/units.h"

namespace rv::net {

enum class QueuePolicy : std::uint8_t { kDropTail, kRed };

struct QueueConfig {
  QueuePolicy policy = QueuePolicy::kDropTail;
  std::int64_t capacity_bytes = 0;  // 0 = Network default sizing
  // RED parameters (used when policy == kRed), as fractions of capacity.
  double red_min_threshold = 0.25;
  double red_max_threshold = 0.75;
  double red_max_drop_probability = 0.10;
  double red_weight = 0.002;  // EWMA weight for the average queue size
  std::uint64_t red_seed = 0x9E3779B97F4A7C15ULL;
};

// Random Early Detection state for one link direction.
class RedState {
 public:
  RedState(const QueueConfig& config, std::int64_t capacity_bytes);

  // Decides whether to drop an arriving packet given the instantaneous
  // queue occupancy (bytes). Updates the averaged queue size.
  bool should_drop(std::int64_t queued_bytes, std::int32_t packet_bytes);

  double average_queue_bytes() const { return avg_; }

 private:
  double min_bytes_;
  double max_bytes_;
  double max_p_;
  double weight_;
  double avg_ = 0.0;
  int count_since_drop_ = -1;
  std::uint64_t rng_state_;

  double next_uniform();
};

}  // namespace rv::net
