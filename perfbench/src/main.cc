// perfbench: the repo benchmark driver. Runs one workload for a fixed host
// time, checks its outputs, and prints every metric by name with its unit.
// The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Normally launched through perfbench/run.py, which builds this binary and
// passes pinned digests; see perfbench/README.md.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_stats.h"
#include "study/campaign.h"
#include "util/args.h"
#include "util/strings.h"
#include "workload.h"

namespace perfbench {
int run_selftest();
}

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. A workload that does not
// exercise a layer reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_play", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.packets_enqueued", "count"},
    {"net.packets_dropped", "count"},
    {"net.drop_ratio", "ratio"},
    {"net.ns_per_packet", "ns"},
    {"tracer.run_play_ms.modem.tcp", "ms"},
    {"tracer.run_play_ms.modem.udp", "ms"},
    {"tracer.run_play_ms.dsl.tcp", "ms"},
    {"tracer.run_play_ms.dsl.udp", "ms"},
    {"tracer.run_play_ms.t1.tcp", "ms"},
    {"tracer.run_play_ms.t1.udp", "ms"},
    {"transport.tcp_retransmits", "count"},
    {"transport.sack_retransmits", "count"},
    {"transport.cc_recovery_enters", "count"},
    {"transport.udp_loss_gaps", "count"},
    {"rtsp.retries", "count"},
    {"rtsp.tcp_fallbacks", "count"},
    {"rtsp.http_fallbacks", "count"},
    {"client.frames_played", "count"},
    {"client.frame_drops", "count"},
    {"client.rebuffers", "count"},
    {"server.packets_received", "count"},
    {"server.repairs_received", "count"},
    {"telemetry.samples", "count"},
    {"tracer.plan_s", "s"},
    {"world.population_s", "s"},
    {"tracer.worker_busy_s", "s"},
    {"tracer.worker_idle_frac", "ratio"},
    {"study.fold_ns_per_record", "ns"},
    {"study.spill_encode_ns_per_record", "ns"},
    {"study.spill_bytes_per_record", "B"},
    {"study.spill_decode_ns_per_record", "ns"},
    {"study.cache_save_s", "s"},
    {"study.cache_load_s", "s"},
    {"study.figures_ms", "ms"},
    {"study.rollup_merge_ms", "ms"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.accounting_gap_frac", "ratio"},
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// A fixed integer loop, timed: relates results from different hosts. The
// loop's final state is returned through `checksum` so it cannot be folded.
double calibration_ms(std::uint64_t* checksum) {
  const auto start = std::chrono::steady_clock::now();
  volatile std::uint64_t seed = 88172645463325252ull;
  std::uint64_t x = seed;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  *checksum = x;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::vector<Metric> end_to_end(const Report& r) {
  const TailPercentile tail = tail_percentile(r.op_ms);
  std::vector<Metric> m = {
      {"setup_s", median(r.setup_s), "s"},
      {"ops_per_s", static_cast<double>(r.ops) / r.ops_wall_s, "1/s"},
      {"op_ms_p50", r.op_ms.empty() ? 0.0 : median(r.op_ms), "ms"},
      {"op_ms_p99", tail.value, "ms"},
      {"records_per_s", static_cast<double>(r.records) / r.records_wall_s,
       "1/s"},
      {"peak_rss_mb", static_cast<double>(rv::study::peak_rss_kb()) / 1024.0,
       "MB"},
  };
  return m;
}

std::vector<Metric> per_layer(const Report& r) {
  std::vector<Metric> out;
  for (const auto& spec : kPerLayer) {
    Metric m{spec.name, 0.0, spec.unit};
    for (const auto& [name, v] : r.layers) {
      if (name == spec.name) m.value = v.first;
    }
    out.push_back(m);
  }
  for (const auto& [name, v] : r.layers) {
    bool known = false;
    for (const auto& spec : kPerLayer) known = known || name == spec.name;
    RV_CHECK(known) << "workload reported unlisted metric " << name;
  }
  return out;
}

int usage() {
  std::cerr << "usage: perfbench --workload paper-study|campaign-foreground|"
               "records-analysis [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--scale X]   (paper-study only)\n"
               "                 [--work-dir DIR] [--result-file PATH]\n"
               "                 [--spans-file PATH] [--counts-file PATH]\n"
               "                 [--pin name=md5]... [--commit ID]\n"
               "       perfbench --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to measure an unoptimised build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  const rv::util::Args args(argc, argv);
  if (args.has("selftest")) return run_selftest();

  Options opt;
  opt.workload = args.get_or("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 2001));
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.get_int("trace", 0) != 0;
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  opt.threads = std::max(nproc, 1);
  opt.scale = args.get_double("scale", 0.0);
  opt.work_dir = args.get_or("work-dir", ".perfbench-work");
  opt.spans_path = args.get_or("spans-file", "");
  opt.counts_path = args.get_or("counts-file", "");
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) != "--pin") continue;
    const std::string pin = argv[i + 1];
    const auto eq = pin.find('=');
    if (eq == std::string::npos) return usage();
    opt.pins[pin.substr(0, eq)] = pin.substr(eq + 1);
  }
  // --scale sizes paper-study only (1 = the full study).
  const bool bad_scale =
      opt.scale < 0 || opt.scale > 1 ||
      (opt.scale > 0 && opt.workload != "paper-study");
  if (!args.errors().empty() || opt.seconds <= 0 || bad_scale) {
    for (const auto& e : args.errors()) std::cerr << e << "\n";
    return usage();
  }
  Report (*run)(const Options&) = nullptr;
  if (opt.workload == "paper-study") run = &run_paper_study;
  if (opt.workload == "campaign-foreground") run = &run_campaign_foreground;
  if (opt.workload == "records-analysis") run = &run_records_analysis;
  if (run == nullptr) return usage();

  std::uint64_t calib_checksum = 0;
  const double calib = calibration_ms(&calib_checksum);
  std::ostringstream env;
  env << "{\"nproc\": " << nproc << ", \"workers\": " << opt.threads
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"commit\": " << json_string(args.get_or("commit", "unknown"))
      << ", \"workload\": " << json_string(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"seconds\": " << number(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"calibration_ms\": " << number(calib)
      << ", \"calibration_checksum\": " << calib_checksum << "}";

  Report report;
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  try {
    report = run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    std::filesystem::remove_all(opt.work_dir, ec);
    return 1;
  }
  std::filesystem::remove_all(opt.work_dir, ec);

  const std::vector<Metric> metrics =
      opt.trace ? per_layer(report) : end_to_end(report);
  for (const auto& m : metrics) {
    RV_CHECK(valid_metric_name(m.name)) << "bad metric name " << m.name;
  }
  const bool correct = report.checks.failed() == 0;

  std::cout << "env " << env.str() << "\n";
  for (const auto& note : report.notes) std::cout << "note " << note << "\n";
  if (!opt.trace) {
    const TailPercentile tail = tail_percentile(report.op_ms);
    const auto q = report.op_ms.empty() ? std::array<double, 3>{}
                                        : quartiles(report.op_ms);
    std::cout << "note op CPU ms over " << report.op_ms.size()
              << " ops: q1 " << number(q[0]) << ", median " << number(q[1])
              << ", q3 " << number(q[2]) << "; op_ms_p99 is the p"
              << number(tail.percentile) << " with " << tail.beyond
              << " samples beyond it\n";
  }
  for (const auto& m : metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "checks " << report.checks.attempted() << " attempted, "
            << report.checks.failed() << " failed\n";
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.checks.attempted()) +
      ", \"failed\": " + std::to_string(report.checks.failed()) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  if (const auto path = args.get("result-file")) {
    std::ofstream os(*path, std::ios::trunc);
    os << "{\"env\": " << env.str() << ", \"result\": " << result
       << ", \"notes\": [";
    for (std::size_t i = 0; i < report.notes.size(); ++i) {
      os << (i ? ", " : "") << json_string(report.notes[i]);
    }
    os << "]}\n";
  }
  std::cout << result << std::endl;
  return 0;
}
