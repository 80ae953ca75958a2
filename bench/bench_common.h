// Shared plumbing for the figure bench binaries: the study config from the
// environment and the cached full study (2855 plays) it implies.
//
// Environment overrides (useful on slow machines):
//   RV_PLAY_SCALE  — fraction of each user's playlist to simulate (default 1)
//   RV_THREADS     — worker threads for the study (default: hardware)
//   RV_SEED        — study master seed (default 2001)
#pragma once

#include <cstdlib>

#include "study/cache.h"
#include "study/study.h"

namespace rv::bench {

inline study::StudyConfig config_from_env() {
  study::StudyConfig config;
  if (const char* scale = std::getenv("RV_PLAY_SCALE")) {
    config.play_scale = std::atof(scale);
  }
  if (const char* threads = std::getenv("RV_THREADS")) {
    config.threads = std::atoi(threads);
  }
  if (const char* seed = std::getenv("RV_SEED")) {
    config.seed = static_cast<std::uint64_t>(std::atoll(seed));
  }
  return config;
}

inline const study::StudyResult& shared_study() {
  static const study::StudyResult result =
      study::run_study_cached(config_from_env());
  return result;
}

}  // namespace rv::bench
