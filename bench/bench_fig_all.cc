// Regenerates EVERY figure of the paper in one run, plus the study totals of
// §IV, and times the full analysis pass. The underlying study is shared via
// the on-disk cache with `realdata fig N`.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.h"
#include "study/figures.h"

namespace {

void print_everything(const rv::study::StudyResult& result,
                      const rv::study::StudyConfig& config) {
  using namespace rv::study;
  std::cout << study_summary(result) << "\n";
  std::cout << fig01_buffering(config) << "\n";
  for (const auto& text :
       {fig05_clips_per_user(result),  fig06_rated_per_user(result),
        fig07_user_countries(result),  fig08_server_countries(result),
        fig09_us_states(result),       fig10_availability(result),
        fig11_framerate_all(result),   fig12_framerate_by_net(result),
        fig13_bandwidth_by_net(result),
        fig14_framerate_by_server_region(result),
        fig15_framerate_by_user_region(result),
        fig16_protocol_mix(result),    fig17_framerate_by_protocol(result),
        fig18_bandwidth_by_protocol(result),
        fig19_framerate_by_pc(result), fig20_jitter_all(result),
        fig21_jitter_by_net(result),   fig22_jitter_by_server_region(result),
        fig23_jitter_by_user_region(result),
        fig24_jitter_by_protocol(result),
        fig25_jitter_by_bandwidth(result), fig26_quality_all(result),
        fig27_quality_by_net(result),  fig28_quality_vs_bandwidth(result)}) {
    std::cout << text << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const rv::study::StudyConfig config = rv::bench::config_from_env();
  const auto& result = rv::bench::shared_study();
  rv::study::set_csv_export_dir("fig_data");
  print_everything(result, config);
  rv::study::set_csv_export_dir("");

  benchmark::RegisterBenchmark(
      "fig_all/full_analysis", [&result](benchmark::State& state) {
        for (auto _ : state) {
          benchmark::DoNotOptimize(rv::study::fig11_framerate_all(result));
          benchmark::DoNotOptimize(rv::study::fig20_jitter_all(result));
          benchmark::DoNotOptimize(rv::study::fig26_quality_all(result));
        }
      });
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
