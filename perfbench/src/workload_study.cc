// paper-study: the run_study plan/execute pipeline at the default config,
// followed by the study-cache save — what `realdata` runs on a cold cache.
// The end-to-end rates time run_study and save_result themselves; per-play
// latencies and the traced run come from a re-drive of run_study's public
// steps, whose cache must equal the driver's byte for byte.
#include <chrono>
#include <memory>
#include <stdexcept>

#include "bench_stats.h"
#include "record_path.h"
#include "study/cache.h"
#include "util/md5.h"
#include "workload.h"
#include "world/region_graph.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace study = rv::study;
namespace tracer = rv::tracer;

// Share of the paper's per-user play counts one pass simulates.
constexpr double kDefaultPlayScale = 0.25;

// Everything run_study builds before its execute phase, via the same public
// calls, in the same order.
struct StudySetup {
  study::StudyConfig cfg;
  std::vector<rv::world::UserProfile> users;
  TracerStack stack;
  tracer::StudyPlan plan;
  double population_s = 0.0;
  double total_s = 0.0;
};

std::unique_ptr<StudySetup> set_up(const study::StudyConfig& cfg) {
  const auto start = Clock::now();
  auto s = std::make_unique<StudySetup>();
  s->cfg = cfg;
  s->users = rv::world::generate_population(cfg.population);
  for (auto& u : s->users) scale_plays(cfg.play_scale, u);
  s->population_s = seconds_since(start);
  s->stack = make_tracer(cfg);
  s->stack.tracer->plan_access_times(s->users);
  s->plan = s->stack.tracer->build_plan(s->users, cfg.seed);
  s->total_s = seconds_since(start);
  return s;
}

struct PassResult {
  std::vector<std::string> digests;  // study-cache md5, one per iteration
  std::vector<double> walls;         // whole iterations, checks included
  std::vector<double> save_s;
  ExecStats exec;
  std::vector<LayerCounts> counts;   // traced passes only
  study::StudyResult last;           // the latest traced iteration's study
};

// The re-drive: iterations over one set-up. An iteration executes the plan
// on fresh worker contexts, as each run_study call does, and saves the study
// cache; with spans on it records "tracer.execute", "study.cache_save" and,
// around the benchmark's own digesting and counting, "bench.check"
// top-level spans. Untraced, it keeps no records between iterations, so
// they do not add to the driver's peak RSS.
class Pass {
 public:
  Pass(StudySetup& s, int workers, std::string cache_path, SpanRecorder& spans)
      : s_(s),
        workers_(static_cast<std::size_t>(workers)),
        cache_path_(std::move(cache_path)),
        spans_(spans) {}

  void iterate();
  PassResult out;

 private:
  StudySetup& s_;
  std::size_t workers_;
  std::string cache_path_;
  SpanRecorder& spans_;
};

void Pass::iterate() {
  const auto it_start = Clock::now();
  study::StudyResult result;
  result.users = s_.users;
  {
    std::deque<tracer::PlayContext> contexts(workers_);
    ScopedSpan span(spans_, 0, "tracer.execute");
    execute_plan(*s_.stack.tracer, s_.plan, s_.users, contexts,
                 result.records, out.exec, spans_, span.id());
  }
  remove_output(cache_path_);
  const auto save_start = Clock::now();
  {
    ScopedSpan span(spans_, 0, "study.cache_save");
    if (!study::save_result(cache_path_, s_.cfg, result)) {
      throw std::runtime_error("cannot write study cache " + cache_path_);
    }
  }
  out.save_s.push_back(seconds_since(save_start));
  {
    ScopedSpan span(spans_, 0, "bench.check");
    out.digests.push_back(rv::util::md5_file_hex(cache_path_));
    if (spans_.enabled()) {
      LayerCounts counts;
      tally_records(result.records, counts);
      out.counts.push_back(std::move(counts));
      out.last = std::move(result);
    }
  }
  out.walls.push_back(seconds_since(it_start));
}

// The library's driver, timed from outside: run_study with its
// self-profile on (for the execute-phase wall), then save_result.
class Driver {
 public:
  Driver(const study::StudyConfig& cfg, std::string cache_path)
      : cfg_(cfg), cache_path_(std::move(cache_path)) {}

  void iterate() {
    study::StudyConfig profiled = cfg_;
    profiled.profile = true;
    remove_output(cache_path_);
    const auto start = Clock::now();
    study::StudyResult r = study::run_study(profiled);
    if (!study::save_result(cache_path_, cfg_, r)) {
      throw std::runtime_error("cannot write study cache " + cache_path_);
    }
    wall_s += seconds_since(start);
    plays += r.records.size();
    execute_s += r.profile.execute_seconds;
    profile = std::move(r.profile);
    digests.push_back(rv::util::md5_file_hex(cache_path_));
  }

  std::uint64_t plays = 0;
  double execute_s = 0.0;  // run_study's execute phases
  double wall_s = 0.0;     // whole run_study + save_result calls
  std::vector<std::string> digests;
  study::StudyProfile profile;  // the latest call's

 private:
  study::StudyConfig cfg_;
  std::string cache_path_;
};

// tracer.plan_s, tracer.worker_busy_s and tracer.worker_idle_frac as
// run_study's own self-profile measured them.
void report_profile_layers(const study::StudyProfile& p, Report& report) {
  double busy = 0.0, idle = 0.0;
  for (const auto& w : p.workers) {
    busy += w.busy_seconds;
    idle += w.idle_seconds;
  }
  report.layer("tracer.plan_s", p.plan_seconds, "s");
  report.layer("tracer.worker_busy_s", busy, "s");
  report.layer("tracer.worker_idle_frac",
               idle / (static_cast<double>(p.workers.size()) *
                       p.execute_seconds),
               "ratio");
}

// The checks and layer metrics of a traced pass: its caches must equal
// `want`, its deterministic counts must repeat (check_traced_counts), and
// its spans plus worker waits must account for the wall of its whole
// iterations. Reports the layers inside run_play, the plan and worker
// figures of run_study's `profile`, the set-up's `population_s`, and
// study.cache_save_s, and returns the accounting gap.
double report_traced_pass(const Options& opt, const PassResult& traced,
                          const SpanRecorder& spans, const std::string& want,
                          const study::StudyProfile& profile,
                          double population_s, Report& report) {
  for (const auto& d : traced.digests) {
    report.checks.expect("study.cache traced vs untraced", d, want);
  }
  const LayerCounts counts =
      check_traced_counts(opt, traced.counts, traced.exec, report.checks);
  double wall = 0.0;
  for (double w : traced.walls) wall += w;
  const double gap =
      accounting_gap(spans.spans(), traced.exec.busy_s + traced.exec.idle_s,
                     opt.threads, wall);
  report.checks.expect("accounting gap within tolerance",
                       gap <= kAccountingTolerance ? "yes" : "no", "yes");
  report_sim_layers(traced.exec, traced.walls.size(), counts, report);
  report_profile_layers(profile, report);
  report.layer("world.population_s", population_s, "s");
  report.layer("study.cache_save_s", median(traced.save_s), "s");
  return gap;
}

study::StudyConfig traced_config(study::StudyConfig cfg) {
  cfg.tracer.obs.enabled = true;
  return cfg;
}

}  // namespace

void report_study_setup_layers(const Options& opt,
                               const study::StudyConfig& cfg,
                               const study::StudyProfile& profile,
                               const std::string& want, Report& report) {
  const std::unique_ptr<StudySetup> setup = set_up(traced_config(cfg));
  SpanRecorder spans(true, static_cast<std::size_t>(opt.threads) + 1);
  Pass pass(*setup, opt.threads, opt.work_dir + "/setup-traced.cache", spans);
  pass.iterate();
  report_traced_pass(opt, pass.out, spans, want, profile, setup->population_s,
                     report);
}

Report run_paper_study(const Options& opt) {
  Report report;
  study::StudyConfig cfg;
  cfg.seed = opt.seed;
  cfg.threads = opt.threads;
  cfg.play_scale = opt.scale > 0.0 ? opt.scale : kDefaultPlayScale;
  const std::string cache_path = opt.work_dir + "/study.cache";

  std::vector<double> population_s;
  const auto make_setup = [&] {
    std::unique_ptr<StudySetup> s = set_up(cfg);
    population_s.push_back(s->population_s);
    return s;
  };
  std::unique_ptr<StudySetup> setup;
  while (report.setup_s.size() < kMinSetupSamples) {
    setup = sample_setup(make_setup, report.setup_s);
  }

  // Untraced, each round of the timed phase calls the library driver, which
  // gives the end-to-end rates, and runs a re-drive iteration, which gives
  // the per-play CPU times. Sampling these in every round, not only until
  // kMinTimedOps are in, spreads them over the run like the rates: the
  // host's CPU speed drifts by tens of percent over seconds. A traced run
  // alternates an untraced and a traced re-drive (obs counters on, spans
  // around every public call), then calls the driver once for its profile.
  Driver driver(cfg, opt.work_dir + "/driver.cache");
  SpanRecorder off(false, 1);
  SpanRecorder spans(true, static_cast<std::size_t>(opt.threads) + 1);
  PassResult pass, traced;
  {
    Pass untraced(*setup, opt.threads, cache_path, off);
    if (opt.trace) {
      const std::unique_ptr<StudySetup> traced_setup =
          set_up(traced_config(cfg));
      Pass traced_side(*traced_setup, opt.threads, cache_path, spans);
      alternate(untraced, traced_side, opt.seconds);
      traced = std::move(traced_side.out);
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

  // run_study must write the same cache bytes every time, and the re-drive
  // of its public steps must write the same bytes as run_study.
  const std::string want = driver.digests.front();
  for (const auto& d : driver.digests) {
    report.checks.expect("study.cache: run_study repeats", d, want);
    report.checks.expect_pinned(opt, "study.cache", d);
  }
  for (const auto& d : pass.digests) {
    report.checks.expect("study.cache: re-drive vs run_study", d, want);
  }
  report.notes.push_back("study.cache md5 " + want + " (" +
                         std::to_string(setup->plan.tasks.size()) +
                         " plays, play_scale " + std::to_string(cfg.play_scale) +
                         ")");
  if (!opt.trace) return report;

  const double gap = report_traced_pass(opt, traced, spans, want,
                                        driver.profile, median(population_s),
                                        report);
  if (!opt.spans_path.empty() && !write_spans_json(spans.spans(), opt.spans_path)) {
    throw std::runtime_error("cannot write " + opt.spans_path);
  }
  // run_study stops at the cache; the rest of the record path runs on the
  // study's records after the timed phase.
  const RecordPathTimes rp =
      measure_record_path(cfg, traced.last, opt.work_dir, report.checks);
  report.layer("study.fold_ns_per_record", rp.fold_ns_per_record, "ns");
  report.layer("study.spill_encode_ns_per_record",
               rp.spill_encode_ns_per_record, "ns");
  report.layer("study.spill_bytes_per_record", rp.spill_bytes_per_record, "B");
  report.layer("study.spill_decode_ns_per_record",
               rp.spill_decode_ns_per_record, "ns");
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
