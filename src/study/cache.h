// Binary (de)serialisation of a StudyResult, so the tools and bench binaries
// can share one full study run instead of each re-simulating 2855 plays.
//
// The cache file is keyed by a hash of the study configuration; a stale or
// mismatched file is ignored and the study re-runs.
#pragma once

#include <optional>
#include <string>

#include "study/study.h"

namespace rv::study {

// A stable hash of every config field that affects the records.
std::uint64_t config_fingerprint(const StudyConfig& config);

// Cache path for a config inside `cache_dir` (empty = the default
// `./.rv_cache`). The file name is keyed by the config fingerprint; only
// the directory moved — cache bytes are unchanged, so pinned md5s survive.
std::string default_cache_path(const StudyConfig& config,
                               const std::string& cache_dir = std::string());

bool save_result(const std::string& path, const StudyConfig& config,
                 const StudyResult& result);

std::optional<StudyResult> load_result(const std::string& path,
                                       const StudyConfig& config);

// Loads from the default path when fresh, otherwise runs the study and
// saves; either way it feeds the result to /metrics (see feed_metrics).
// Benches call this. `force_run` skips the load (but still saves):
// needed when callers want fresh in-memory-only state — e.g. per-play
// traces, which a cache hit cannot supply because they are never
// serialized. The saved bytes are identical either way. `cache_dir`
// overrides where cache files live (empty = `./.rv_cache`, created on
// demand).
StudyResult run_study_cached(const StudyConfig& config, bool force_run = false,
                             const std::string& cache_dir = std::string());

}  // namespace rv::study
