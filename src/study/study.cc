#include "study/study.h"

#include "study/engine.h"
#include "world/servers.h"

namespace rv::study {

media::Catalog make_catalog(const StudyConfig& config) {
  std::vector<media::SiteProfile> profiles;
  for (const auto& site : world::server_sites()) {
    profiles.push_back(site.profile);
  }
  media::CatalogSpec spec = config.catalog;
  spec.seed = config.seed;
  return media::Catalog(spec, profiles);
}

StudyResult run_study(const StudyConfig& config) {
  // The paper population is one chunk of the scale-1 population.
  const std::uint64_t n_users =
      world::PopulationStream(config.population, 1).size();
  Engine engine(config, 1, 0, n_users);
  StudyResult result;
  engine.run(n_users, [&result](auto& users, auto& records) {
    result.users = std::move(users);
    result.records = std::move(records);
  });
  result.profile = std::move(engine.profile);
  return result;
}

std::vector<const tracer::TraceRecord*> StudyResult::accesses() const {
  std::vector<const tracer::TraceRecord*> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    if (!r.rtsp_blocked_user) out.push_back(&r);
  }
  return out;
}

std::vector<const tracer::TraceRecord*> StudyResult::played() const {
  std::vector<const tracer::TraceRecord*> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    if (r.analyzable()) out.push_back(&r);
  }
  return out;
}

std::vector<const tracer::TraceRecord*> StudyResult::rated() const {
  std::vector<const tracer::TraceRecord*> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    if (r.analyzable() && r.rated()) out.push_back(&r);
  }
  return out;
}

}  // namespace rv::study
