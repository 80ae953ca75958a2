// Shared plumbing for the figure bench binaries: the study config from the
// environment and the cached full study (2855 plays) it implies.
//
// Environment overrides (useful on slow machines):
//   RV_PLAY_SCALE  — fraction of each user's playlist to simulate (default 1)
//   RV_THREADS     — worker threads for the study (default: hardware)
//   RV_SEED        — study master seed (default 2001)
// A malformed value (`RV_SEED=abc`, `RV_THREADS=x`) exits with status 2 and
// a message naming the variable, instead of running with a wrong default.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "study/cache.h"
#include "study/study.h"
#include "util/args.h"

namespace rv::bench {

// The environment variable `name` parsed strictly by `parse`
// (util::parse_int or util::parse_double); std::nullopt when it is unset.
template <class Parse>
auto number_from_env(const char* name, Parse parse) -> decltype(parse("")) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  const auto value = parse(text);
  if (!value) {
    std::fprintf(stderr, "%s: malformed value '%s'\n", name, text);
    std::exit(2);
  }
  return value;
}

inline study::StudyConfig config_from_env() {
  study::StudyConfig config;
  if (const auto scale = number_from_env("RV_PLAY_SCALE", util::parse_double)) {
    config.play_scale = *scale;
  }
  if (const auto threads = number_from_env("RV_THREADS", util::parse_int)) {
    config.threads = static_cast<int>(*threads);
  }
  if (const auto seed = number_from_env("RV_SEED", util::parse_int)) {
    config.seed = static_cast<std::uint64_t>(*seed);
  }
  return config;
}

inline const study::StudyResult& shared_study() {
  static const study::StudyResult result =
      study::run_study_cached(config_from_env());
  return result;
}

}  // namespace rv::bench
