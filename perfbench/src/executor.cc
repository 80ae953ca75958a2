#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string_view>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <ctime>

#include "obs/trace.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using rv::obs::Counter;

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

void remove_output(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Checker::expect(const std::string& what, const std::string& got,
                     const std::string& want) {
  ++attempted_;
  if (got == want) return;
  ++failed_;
  std::cerr << "perfbench: output check failed: " << what << " is '" << got
            << "', expected '" << want << "'\n";
}

void Checker::expect_pinned(const Options& opt, const std::string& what,
                            const std::string& got) {
  const auto it = opt.pins.find(what);
  if (it != opt.pins.end()) expect(what + " (pinned)", got, it->second);
}

namespace {

const char* class_key(rv::world::ConnectionClass c) {
  switch (c) {
    case rv::world::ConnectionClass::kModem56k: return "modem";
    case rv::world::ConnectionClass::kDslCable: return "dsl";
    case rv::world::ConnectionClass::kT1Lan: return "t1";
  }
  return "other";
}

std::string play_class(const rv::tracer::TraceRecord& rec) {
  return std::string(class_key(rec.connection)) +
         (rec.stats.protocol == rv::net::Protocol::kTcp ? ".tcp" : ".udp");
}

// What one worker measured; merged into ExecStats after the join.
struct WorkerTally {
  std::vector<double> play_ms;
  std::uint64_t sim_plays = 0, sim_events = 0;
  double busy_s = 0.0;
  Clock::time_point first_claim{}, last_claim{};
  std::map<std::string, std::pair<double, std::uint64_t>> by_class;
};

// Compares `counts` with the counts an earlier traced run of the same
// workload and seed stored at opt.counts_path (or stores them there when
// none were stored). Every count that differs is a failed check, reported
// by name.
void check_counts_file(const Options& opt, const LayerCounts& counts,
                       Checker& checks) {
  if (opt.counts_path.empty()) return;
  std::ifstream is(opt.counts_path);
  if (!is) {
    // Written whole, then renamed, so a run killed here leaves no torn file.
    const std::string tmp = opt.counts_path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::trunc);
      for (const auto& [name, v] : counts) os << name << ' ' << v << '\n';
    }
    std::error_code ec;
    std::filesystem::rename(tmp, opt.counts_path, ec);
    return;
  }
  std::map<std::string, std::uint64_t> stored;
  std::string name;
  std::uint64_t v = 0;
  while (is >> name >> v) stored[name] = v;
  for (const auto& [n, value] : counts) {
    const auto it = stored.find(n);
    checks.expect("count " + n + " vs earlier traced run",
                  std::to_string(value),
                  it == stored.end() ? "missing" : std::to_string(it->second));
  }
}

}  // namespace

TracerStack make_tracer(const rv::study::StudyConfig& cfg) {
  TracerStack t;
  t.catalog =
      std::make_unique<rv::media::Catalog>(rv::study::make_catalog(cfg));
  t.graph = std::make_unique<rv::world::RegionGraph>();
  rv::tracer::TracerConfig tracer_cfg = cfg.tracer;
  if (tracer_cfg.faults.seed == 0) tracer_cfg.faults.seed = cfg.seed;
  t.tracer = std::make_unique<rv::tracer::RealTracer>(*t.catalog, *t.graph,
                                                      tracer_cfg);
  return t;
}

void scale_plays(double play_scale, rv::world::UserProfile& user) {
  if (play_scale >= 1.0) return;
  user.clips_to_play = std::max(
      1, static_cast<int>(std::lround(user.clips_to_play * play_scale)));
  user.clips_to_rate = std::min(user.clips_to_rate, user.clips_to_play);
}

void execute_plan(const rv::tracer::RealTracer& tracer,
                  const rv::tracer::StudyPlan& plan,
                  const std::vector<rv::world::UserProfile>& users,
                  std::deque<rv::tracer::PlayContext>& contexts,
                  std::vector<rv::tracer::TraceRecord>& records,
                  ExecStats& stats, SpanRecorder& spans,
                  std::uint64_t parent) {
  records.resize(plan.tasks.size());
  const std::size_t workers = contexts.size();
  std::vector<WorkerTally> tallies(workers);
  alignas(64) std::atomic<std::size_t> next{0};
  auto worker = [&](std::size_t w) {
    rv::tracer::PlayContext& ctx = contexts[w];
    WorkerTally& t = tallies[w];
    const auto lane = static_cast<std::uint32_t>(w + 1);
    bool first = true;
    while (true) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      const auto claimed = Clock::now();
      if (first) t.first_claim = claimed;
      first = false;
      t.last_claim = claimed;
      if (k >= plan.order.size()) return;
      const rv::tracer::PlayTask& task = plan.tasks[plan.order[k]];
      const std::uint64_t span =
          spans.begin(lane, "tracer.run_play", parent, task.record_slot + 1);
      rv::tracer::TraceRecord& rec = records[task.record_slot];
      const double cpu_start = thread_cpu_ms();
      rec = tracer.run_play(task, users[task.user_index], ctx);
      const double cpu_ms = thread_cpu_ms() - cpu_start;
      t.busy_s += seconds_since(claimed);
      spans.end(span);
      if (!task.needs_sim) continue;
      ++t.sim_plays;
      t.sim_events += ctx.sim.events_executed();
      t.play_ms.push_back(cpu_ms);
      auto& cls = t.by_class[play_class(rec)];
      cls.first += cpu_ms;
      ++cls.second;
    }
  };
  const auto start = Clock::now();
  if (workers == 1 || plan.tasks.size() < 2) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker, w);
    for (auto& th : pool) th.join();
  }
  const auto end = Clock::now();
  for (auto& t : tallies) {
    stats.play_ms.insert(stats.play_ms.end(), t.play_ms.begin(),
                         t.play_ms.end());
    stats.sim_plays += t.sim_plays;
    stats.sim_events += t.sim_events;
    stats.busy_s += t.busy_s;
    if (t.first_claim != Clock::time_point{}) {  // the worker ran
      // Head wait (thread start to first claim) plus tail wait (the failed
      // claim that found the queue drained, to the end of the phase).
      stats.idle_s +=
          std::chrono::duration<double>(t.first_claim - start).count() +
          std::chrono::duration<double>(end - t.last_claim).count();
    }
    for (const auto& [key, v] : t.by_class) {
      stats.by_class[key].first += v.first;
      stats.by_class[key].second += v.second;
    }
  }
}

void tally_records(const std::vector<rv::tracer::TraceRecord>& records,
                   LayerCounts& counts) {
  auto& c = counts;
  for (const auto& rec : records) {
    const auto& s = rec.stats;
    c["client.frames_played"] += static_cast<std::uint64_t>(s.frames_played);
    c["client.frame_drops"] += static_cast<std::uint64_t>(s.frames_dropped);
    c["client.rebuffers"] += static_cast<std::uint64_t>(s.rebuffer_events);
    c["server.packets_received"] +=
        static_cast<std::uint64_t>(s.packets_received);
    c["server.repairs_received"] +=
        static_cast<std::uint64_t>(s.repairs_received);
    c["rtsp.retries"] += static_cast<std::uint64_t>(s.rtsp_retries);
    c["rtsp.tcp_fallbacks"] += s.fell_back_to_tcp ? 1 : 0;
    c["rtsp.http_fallbacks"] += s.fell_back_to_http ? 1 : 0;
    c["telemetry.samples"] += rec.series.data.t.size();
    const auto& oc = rec.obs.counters;
    c["net.packets_enqueued"] += oc.get(Counter::kPacketsEnqueued);
    c["net.packets_dropped"] += oc.get(Counter::kPacketsDropped);
    c["transport.tcp_retransmits"] += oc.get(Counter::kTcpRetransmits);
    c["transport.sack_retransmits"] += oc.get(Counter::kSackRetransmits);
    c["transport.cc_recovery_enters"] += oc.get(Counter::kCcRecoveryEnters);
    c["transport.udp_loss_gaps"] += oc.get(Counter::kUdpLossGaps);
    c["sim.events"] += oc.get(Counter::kSimEvents);
  }
}

void report_sim_layers(const ExecStats& stats, std::size_t iterations,
                       const LayerCounts& counts, Report& report) {
  const auto count = [&](const char* name) -> double {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double n = static_cast<double>(iterations);
  const double events = static_cast<double>(stats.sim_events);
  const double enqueued = count("net.packets_enqueued");
  report.layer("sim.events", events / n, "count");
  report.layer("sim.events_per_play",
               ratio(events, static_cast<double>(stats.sim_plays)), "count");
  report.layer("sim.ns_per_event", ratio(stats.busy_s * 1e9, events), "ns");
  report.layer("net.packets_enqueued", enqueued, "count");
  report.layer("net.packets_dropped", count("net.packets_dropped"), "count");
  report.layer("net.drop_ratio", ratio(count("net.packets_dropped"), enqueued),
               "ratio");
  report.layer("net.ns_per_packet", ratio(stats.busy_s * 1e9, enqueued * n),
               "ns");
  for (const char* conn : {"modem", "dsl", "t1"}) {
    for (const char* proto : {"tcp", "udp"}) {
      const std::string key = std::string(conn) + "." + proto;
      const auto it = stats.by_class.find(key);
      const double ms = it == stats.by_class.end()
                            ? 0.0
                            : ratio(it->second.first,
                                    static_cast<double>(it->second.second));
      report.layer("tracer.run_play_ms." + key, ms, "ms");
    }
  }
  for (const char* name :
       {"transport.tcp_retransmits", "transport.sack_retransmits",
        "transport.cc_recovery_enters", "transport.udp_loss_gaps",
        "rtsp.retries", "rtsp.tcp_fallbacks", "rtsp.http_fallbacks",
        "client.frames_played", "client.frame_drops", "client.rebuffers",
        "server.packets_received", "server.repairs_received",
        "telemetry.samples"}) {
    report.layer(name, count(name), "count");
  }
}

double accounting_gap(const std::vector<Span>& spans, double worker_seconds,
                      int workers, double wall) {
  double accounted = workers > 0 ? worker_seconds / workers : 0.0;
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].lane != 0) continue;
    if (std::string_view(spans[i].name) == "tracer.execute") continue;
    accounted += self[i];
  }
  return std::abs(wall - accounted) / wall;
}

LayerCounts check_traced_counts(const Options& opt,
                                const std::vector<LayerCounts>& per_iteration,
                                const ExecStats& exec, Checker& checks) {
  const LayerCounts& first = per_iteration.front();
  for (const auto& c : per_iteration) {
    checks.expect("traced counts repeat across iterations",
                  c == first ? "same" : "drift", "same");
  }
  const auto it = first.find("sim.events");
  const std::uint64_t obs_events = it == first.end() ? 0 : it->second;
  checks.expect("sim.events: obs counter vs Simulator",
                std::to_string(obs_events * per_iteration.size()),
                std::to_string(exec.sim_events));
  check_counts_file(opt, first, checks);
  return first;
}


}  // namespace perfbench
