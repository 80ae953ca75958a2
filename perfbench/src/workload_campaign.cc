// campaign-foreground: run_campaign's streaming chunked driver — population
// stream, per-chunk plan/execute, rollup fold and RVSP spill — with cross
// traffic removed, so the per-play foreground work (set-up, TCP/SACK
// recovery, pacing, playout, the RTSP retry ladder, telemetry) and
// fold/spill carry the host time. The end-to-end rates time run_campaign
// itself; per-play latencies and the traced run come from a re-drive of its
// public steps, whose rollup and spill must equal the driver's byte for
// byte.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bench_stats.h"
#include "record_path.h"
#include "study/campaign.h"
#include "study/spill.h"
#include "util/md5.h"
#include "workload.h"
#include "world/region_graph.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace study = rv::study;
namespace tracer = rv::tracer;

study::CampaignConfig campaign_config(const Options& opt, bool observe) {
  study::CampaignConfig c;
  c.study.seed = opt.seed;
  c.study.threads = opt.threads;
  auto& t = c.study.tracer;
  // No segment's load reaches this, so no cross-traffic source is built.
  t.path.negligible_load = 2.0;
  // Mechanistic outages and server overload stalls. Link-down and
  // corruption bursts stay off: with them on, some seeds abort in
  // TcpConnection::send_chunk ("write after close"; see README.md).
  t.faults.enabled = true;
  t.faults.overload_probability = 0.05;
  t.tcp_sack = true;
  t.telemetry.enabled = true;
  t.obs.enabled = observe;
  return c;
}

// What run_campaign builds before its chunk loop, via the same public calls.
struct CampaignSetup {
  study::CampaignConfig cfg;
  TracerStack stack;
  std::uint64_t total_users = 0;
  double population_s = 0.0;  // the access-plan population pass
  double total_s = 0.0;
};

std::unique_ptr<CampaignSetup> set_up(const study::CampaignConfig& cfg) {
  const auto start = Clock::now();
  auto s = std::make_unique<CampaignSetup>();
  s->cfg = cfg;
  const study::StudyConfig& sc = cfg.study;
  s->total_users =
      rv::world::PopulationStream(sc.population, cfg.plays_scale).size();
  s->stack = make_tracer(sc);
  tracer::RealTracer& tracer = *s->stack.tracer;
  const auto pop_start = Clock::now();
  if (sc.tracer.faults.enabled && sc.tracer.faults.mechanistic_unavailability) {
    tracer.access_plan_begin();
    rv::world::PopulationStream all(sc.population, cfg.plays_scale);
    for (std::uint64_t id = 0; id < s->total_users; ++id) {
      rv::world::UserProfile u = all.next();
      scale_plays(sc.play_scale, u);
      tracer.access_plan_add(u, /*keep_base=*/true);
    }
  }
  s->population_s = seconds_since(pop_start);
  s->total_s = seconds_since(start);
  return s;
}

struct PassResult {
  std::vector<std::string> rollup_digests, spill_digests;
  std::vector<double> walls;  // whole iterations, checks included
  ExecStats exec;
  std::uint64_t records = 0;
  double plan_s = 0.0, fold_s = 0.0, spill_s = 0.0;
  std::uint64_t spill_bytes = 0;
  std::vector<LayerCounts> counts;  // traced passes only
};

// The re-drive: iterations over one set-up. An iteration is one whole
// campaign on fresh worker contexts, as each run_campaign call makes them.
// Untraced, fold and spill interleave per record as in run_campaign;
// traced, each chunk's fold and spill run as separate loops under their own
// spans (they share no state, so outputs match), and the benchmark's own
// counting and digesting run under "bench.check" spans.
class Pass {
 public:
  Pass(CampaignSetup& s, int workers, const std::string& dir,
       SpanRecorder& spans)
      : s_(s),
        workers_(static_cast<std::size_t>(workers)),
        spill_path_(dir + "/records.spill"),
        rollup_path_(dir + "/rollup.bin"),
        spans_(spans) {}

  void iterate();
  PassResult out;
  // With spans on: the users and records of the latest iteration's last
  // chunk. Untraced, nothing is kept between iterations, so the re-drive
  // does not add to the driver's peak RSS.
  study::StudyResult last_chunk;

 private:
  CampaignSetup& s_;
  std::size_t workers_;
  std::string spill_path_, rollup_path_;
  SpanRecorder& spans_;
};

void Pass::iterate() {
  const study::StudyConfig& sc = s_.cfg.study;
  const auto it_start = Clock::now();
  study::CampaignRollup rollup;
  rollup.user_count = s_.total_users;
  remove_output(spill_path_);
  remove_output(rollup_path_);
  study::SpillWriter writer(spill_path_);
  if (!writer.ok()) throw std::runtime_error("cannot write " + spill_path_);
  rv::world::PopulationStream stream(sc.population, s_.cfg.plays_scale);
  std::deque<tracer::PlayContext> contexts(workers_);
  std::vector<rv::world::UserProfile> users;
  std::vector<tracer::TraceRecord> records;
  LayerCounts counts;
  for (std::uint64_t pos = 0; pos < s_.total_users;) {
    const std::uint64_t n =
        std::min<std::uint64_t>(s_.cfg.chunk_users, s_.total_users - pos);
    const auto plan_start = Clock::now();
    users.clear();
    {
      ScopedSpan span(spans_, 0, "world.population_chunk");
      for (std::uint64_t i = 0; i < n; ++i) {
        users.push_back(stream.next());
        scale_plays(sc.play_scale, users.back());
      }
    }
    tracer::StudyPlan plan;
    {
      ScopedSpan span(spans_, 0, "tracer.plan");
      plan = s_.stack.tracer->build_plan(users, sc.seed);
    }
    out.plan_s += seconds_since(plan_start);
    {
      ScopedSpan span(spans_, 0, "tracer.execute");
      execute_plan(*s_.stack.tracer, plan, users, contexts, records,
                   out.exec, spans_, span.id());
    }
    const auto fold_start = Clock::now();
    if (spans_.enabled()) {
      {
        ScopedSpan span(spans_, 0, "study.fold");
        for (const auto& rec : records) rollup.fold(rec);
      }
      const auto spill_start = Clock::now();
      out.fold_s += std::chrono::duration<double>(spill_start - fold_start)
                        .count();
      {
        ScopedSpan span(spans_, 0, "study.spill_append");
        for (const auto& rec : records) writer.append(rec);
      }
      out.spill_s += seconds_since(spill_start);
      ScopedSpan span(spans_, 0, "bench.check");
      tally_records(records, counts);
    } else {
      for (const auto& rec : records) {
        rollup.fold(rec);
        writer.append(rec);
      }
    }
    out.records += records.size();
    pos += n;
  }
  const auto finish_start = Clock::now();
  {
    ScopedSpan span(spans_, 0, "study.spill_finish");
    if (!writer.finish()) throw std::runtime_error("cannot finish spill");
  }
  out.spill_s += seconds_since(finish_start);
  {
    ScopedSpan span(spans_, 0, "study.rollup_save");
    if (!rollup.save(rollup_path_)) {
      throw std::runtime_error("cannot write " + rollup_path_);
    }
  }
  out.spill_bytes = writer.bytes_written();
  {
    ScopedSpan span(spans_, 0, "bench.check");
    out.rollup_digests.push_back(rv::util::md5_file_hex(rollup_path_));
    out.spill_digests.push_back(rv::util::md5_file_hex(spill_path_));
    if (spans_.enabled()) {
      out.counts.push_back(std::move(counts));
      last_chunk.users = std::move(users);
      last_chunk.records = std::move(records);
    }
  }
  out.walls.push_back(seconds_since(it_start));
}

// The library's driver, timed from outside: whole run_campaign calls, each
// spilling into `dir`.
class Driver {
 public:
  Driver(study::CampaignConfig cfg, const std::string& dir)
      : cfg_(std::move(cfg)) {
    cfg_.spill_dir = dir;
  }

  void iterate() {
    remove_output(cfg_.spill_dir + "/records.spill");
    remove_output(cfg_.spill_dir + "/rollup.bin");
    const auto start = Clock::now();
    const study::CampaignResult res = study::run_campaign(cfg_);
    wall_s += seconds_since(start);
    plays += res.plays;
    execute_s += res.execute_seconds;
    rollup_digests.push_back(rv::util::md5_file_hex(res.rollup_path));
    spill_digests.push_back(rv::util::md5_file_hex(res.spill_path));
  }

  std::uint64_t plays = 0;
  double execute_s = 0.0;  // run_campaign's chunk loops
  double wall_s = 0.0;     // whole run_campaign calls
  std::vector<std::string> rollup_digests, spill_digests;

 private:
  study::CampaignConfig cfg_;
};

}  // namespace

Report run_campaign_foreground(const Options& opt) {
  Report report;
  const study::CampaignConfig cfg = campaign_config(opt, /*observe=*/false);
  const auto make_setup = [&] { return set_up(cfg); };
  std::unique_ptr<CampaignSetup> setup;
  while (report.setup_s.size() < kMinSetupSamples) {
    setup = sample_setup(make_setup, report.setup_s);
  }
  // Untraced, each round of the timed phase calls the library driver, which
  // gives the end-to-end rates, and runs a re-drive iteration, which gives
  // the per-play CPU times (in every round, so they span the run too). A
  // traced run alternates an untraced and a traced re-drive (obs counters
  // on, spans around every public call), then calls the driver once for the
  // reference outputs.
  const std::string dir = opt.work_dir;
  Driver driver(cfg, dir + "/driver");
  SpanRecorder off(false, 1);
  SpanRecorder spans(true, static_cast<std::size_t>(opt.threads) + 1);
  PassResult pass, traced;
  study::StudyResult last_chunk;
  double traced_population_s = 0.0;
  {
    Pass untraced(*setup, opt.threads, dir, off);
    if (opt.trace) {
      const std::unique_ptr<CampaignSetup> traced_setup =
          set_up(campaign_config(opt, /*observe=*/true));
      traced_population_s = traced_setup->population_s;
      Pass traced_side(*traced_setup, opt.threads, dir, spans);
      alternate(untraced, traced_side, opt.seconds);
      traced = std::move(traced_side.out);
      last_chunk = std::move(traced_side.last_chunk);
    } else {
      const auto start = Clock::now();
      do {
        driver.iterate();
        untraced.iterate();
        sample_setup(make_setup, report.setup_s);
      } while (seconds_since(start) < opt.seconds ||
               untraced.out.exec.sim_plays < kMinTimedOps);
    }
    pass = std::move(untraced.out);
  }
  if (opt.trace) driver.iterate();
  report.ops = driver.plays;
  report.ops_wall_s = driver.execute_s;
  report.records = driver.plays;
  report.records_wall_s = driver.wall_s;
  report.op_ms = pass.exec.play_ms;

  // run_campaign must write the same rollup and spill bytes every time, and
  // the re-drive of its steps (traced or not) the same bytes as
  // run_campaign.
  const std::string want_rollup = driver.rollup_digests.front();
  const std::string want_spill = driver.spill_digests.front();
  for (std::size_t i = 0; i < driver.rollup_digests.size(); ++i) {
    report.checks.expect("rollup.bin: run_campaign repeats",
                         driver.rollup_digests[i], want_rollup);
    report.checks.expect("records.spill: run_campaign repeats",
                         driver.spill_digests[i], want_spill);
    report.checks.expect_pinned(opt, "campaign.rollup",
                                driver.rollup_digests[i]);
    report.checks.expect_pinned(opt, "campaign.spill", driver.spill_digests[i]);
  }
  const auto check_redrive = [&](const PassResult& p, const std::string& how) {
    for (std::size_t i = 0; i < p.walls.size(); ++i) {
      report.checks.expect("rollup.bin: " + how + " vs run_campaign",
                           p.rollup_digests[i], want_rollup);
      report.checks.expect("records.spill: " + how + " vs run_campaign",
                           p.spill_digests[i], want_spill);
    }
  };
  check_redrive(pass, "re-drive");
  report.notes.push_back("campaign.rollup md5 " + want_rollup +
                         ", campaign.spill md5 " + want_spill + " (" +
                         std::to_string(pass.records / pass.walls.size()) +
                         " plays per pass)");
  if (!opt.trace) return report;

  check_redrive(traced, "traced re-drive");
  const LayerCounts counts =
      check_traced_counts(opt, traced.counts, traced.exec, report.checks);

  double wall = 0.0;
  for (double w : traced.walls) wall += w;
  const std::vector<Span> all = spans.spans();
  const double gap = accounting_gap(
      all, traced.exec.busy_s + traced.exec.idle_s, opt.threads, wall);
  report.checks.expect("accounting gap within tolerance",
                       gap <= kAccountingTolerance ? "yes" : "no", "yes");
  if (!opt.spans_path.empty() && !write_spans_json(all, opt.spans_path)) {
    throw std::runtime_error("cannot write " + opt.spans_path);
  }

  const std::size_t iters = traced.walls.size();
  report_sim_layers(traced.exec, iters, counts, report);
  report.layer("tracer.worker_busy_s", traced.exec.busy_s, "s");
  report.layer("tracer.worker_idle_frac",
               1.0 - traced.exec.busy_s / (opt.threads * wall), "ratio");
  const double recs = static_cast<double>(traced.records);
  report.layer("tracer.plan_s", traced.plan_s / iters, "s");
  report.layer("world.population_s", traced_population_s, "s");
  report.layer("study.fold_ns_per_record", traced.fold_s * 1e9 / recs, "ns");
  report.layer("study.spill_encode_ns_per_record", traced.spill_s * 1e9 / recs,
               "ns");
  report.layer("study.spill_bytes_per_record",
               static_cast<double>(traced.spill_bytes) * iters / recs, "B");
  // The campaign writes no study cache and reads nothing back; that part
  // of the record path runs on the last chunk after the timed phase.
  const RecordPathTimes rp =
      measure_record_path(cfg.study, last_chunk, opt.work_dir, report.checks);
  report.layer("study.spill_decode_ns_per_record",
               rp.spill_decode_ns_per_record, "ns");
  report.layer("study.cache_save_s", rp.cache_save_s, "s");
  report.layer("study.cache_load_s", rp.cache_load_s, "s");
  report.layer("study.figures_ms", rp.figures_ms, "ms");
  report.layer("study.rollup_merge_ms", rp.rollup_merge_ms, "ms");
  const double untraced_it = median(pass.walls);
  const double traced_it = median(traced.walls);
  report.layer("trace.overhead_s", traced_it - untraced_it, "s");
  report.layer("trace.overhead_frac", (traced_it - untraced_it) / untraced_it,
               "ratio");
  report.layer("trace.accounting_gap_frac", gap, "ratio");
  return report;
}

}  // namespace perfbench
