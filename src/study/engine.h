// The plan/execute engine behind both study drivers. run_study is one chunk
// covering the paper population; run_campaign streams a shard of a scaled
// population through it chunk by chunk. Internal to src/study.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "study/study.h"

namespace rv::study {

// Gets each finished chunk: its users, then their records in slot
// (user-major, play-minor) order. It may move out of either vector.
using ChunkSink = std::function<void(std::vector<world::UserProfile>&,
                                     std::vector<tracer::TraceRecord>&)>;

// Runs users [first, last) of the plays_scale population. The constructor
// validates the config, ties the fault seed, resolves the thread count and
// runs the access-time prefix pass; run() does the rest.
class Engine {
 public:
  Engine(const StudyConfig& config, std::uint64_t plays_scale,
         std::uint64_t first, std::uint64_t last);
  // Pinned: tracer_ refers to catalog_ and graph_, workers to contexts_.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int threads() const { return n_threads_; }
  // Draws, play-scales, plans and executes chunks of up to chunk_users
  // users, feeds each to the metrics registry, then hands it to `sink`.
  void run(std::uint64_t chunk_users, const ChunkSink& sink);

  StudyProfile profile;  // filled when config.profile, summed over chunks

 private:
  StudyConfig config_;
  media::Catalog catalog_;
  world::RegionGraph graph_;
  tracer::RealTracer tracer_;
  world::PopulationStream stream_;
  std::uint64_t last_;
  int n_threads_ = 1;
  std::deque<tracer::PlayContext> contexts_;  // one per worker, reused
};

}  // namespace rv::study
