// Ablation: fault injection — outage intensity and per-play fault rates.
//
// Sweeps the mechanistic-unavailability intensity knob (outage_scale) and
// shows the emergent study-level availability, frame rate and protocol mix,
// then sweeps the per-play stochastic fault probabilities (overload stalls,
// link flaps, corruption bursts) and shows their performance cost. Scaled by
// RV_PLAY_SCALE (default 0.04 here: the sweep runs several studies).
#include "ablation_common.h"
#include "bench_common.h"
#include "faults/injector.h"
#include "study/analysis.h"

namespace {

double play_scale_from_env() {
  return rv::bench::number_from_env("RV_PLAY_SCALE", rv::util::parse_double)
      .value_or(0.04);
}

rv::study::StudyConfig faulted_config(double outage_scale,
                                      double per_play_rate) {
  rv::study::StudyConfig cfg;
  cfg.play_scale = play_scale_from_env();
  cfg.tracer.faults.enabled = true;
  cfg.tracer.faults.mechanistic_unavailability = outage_scale > 0.0;
  cfg.tracer.faults.outage_scale = outage_scale;
  cfg.tracer.faults.overload_probability = per_play_rate;
  cfg.tracer.faults.link_down_probability = per_play_rate;
  cfg.tracer.faults.corruption_probability = per_play_rate;
  if (const auto threads =
          rv::bench::number_from_env("RV_THREADS", rv::util::parse_int)) {
    cfg.threads = static_cast<int>(*threads);
  }
  return cfg;
}

void print_study_row(const std::string& label,
                     const rv::study::StudyResult& result) {
  const auto accesses = result.accesses();
  const auto played = result.played();
  std::size_t available = 0;
  for (const auto* r : accesses) available += r->available;
  rv::stats::Summary fps;
  rv::stats::Summary rebuf;
  std::size_t udp = 0;
  std::size_t retried = 0;
  for (const auto* r : played) {
    fps.add(r->stats.measured_fps);
    rebuf.add(r->stats.rebuffer_events);
    udp += r->stats.protocol == rv::net::Protocol::kUdp;
    retried += r->stats.rtsp_retries > 0;
  }
  const double avail_pct =
      accesses.empty()
          ? 0.0
          : 100.0 * static_cast<double>(available) / accesses.size();
  const double udp_pct =
      played.empty() ? 0.0
                     : 100.0 * static_cast<double>(udp) / played.size();
  std::cout << "  " << label
            << std::string(label.size() < 26 ? 26 - label.size() : 1, ' ')
            << " avail=" << rv::util::format_double(avail_pct, 1) << "%"
            << "  fps=" << rv::util::format_double(fps.mean(), 1)
            << "  udp=" << rv::util::format_double(udp_pct, 0) << "%"
            << "  rebuf=" << rv::util::format_double(rebuf.mean(), 2)
            << "  retried=" << retried << "/" << played.size() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "Ablation: fault injection (play_scale="
            << play_scale_from_env() << ")\n";

  std::cout << "outage intensity sweep (mechanistic schedules, Fig 10 "
               "targets x scale):\n";
  for (const double scale : {0.0, 0.5, 1.0, 2.0}) {
    const auto result = rv::study::run_study(faulted_config(scale, 0.0));
    print_study_row("outage_scale=" + rv::util::format_double(scale, 1),
                    result);
  }

  std::cout << "per-play fault sweep (overload + link flap + corruption, "
               "each at rate p):\n";
  for (const double rate : {0.0, 0.05, 0.15}) {
    const auto result = rv::study::run_study(faulted_config(0.0, rate));
    print_study_row("p=" + rv::util::format_double(rate, 2), result);
  }

  benchmark::RegisterBenchmark(
      "ablation/faulted_play", [](benchmark::State& state) {
        rv::tracer::TracerConfig cfg;
        cfg.path.episode_probability = 0.0;
        rv::study::StudyConfig study_cfg;
        study_cfg.tracer = cfg;
        const rv::media::Catalog catalog = rv::study::make_catalog(study_cfg);
        const rv::world::RegionGraph graph;
        const rv::tracer::RealTracer tracer(catalog, graph, cfg);
        const rv::world::UserProfile user =
            rv::bench::ablation_user(rv::world::ConnectionClass::kDslCable);
        rv::faults::PlayFaults pf;
        rv::faults::LinkFaultSpec burst;
        burst.link_index = rv::world::PlayPath::kWanCorridor;
        burst.kind = rv::faults::LinkFaultKind::kCorrupt;
        burst.start = rv::sec(10);
        burst.duration = rv::sec(20);
        burst.loss_rate = 0.10;
        pf.link_faults.push_back(burst);
        std::uint64_t seed = 101;
        for (auto _ : state) {
          benchmark::DoNotOptimize(
              tracer.run_single(user, 0, seed++, false, &pf));
        }
      });
  return rv::bench::run_benchmark_tail(argc, argv);
}
