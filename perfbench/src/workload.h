// The benchmark's workloads and the pieces they share: run options, the
// output checker, the per-run report, and the closed-loop play executor.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "study/study.h"
#include "tracer/real_tracer.h"
#include "world/region_graph.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2001;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;          // closed-loop workers: nproc
  double scale = 0.0;       // paper-study play_scale; 0 = the default
  std::string work_dir;     // scratch files, removed at exit
  std::string spans_path;   // span JSON path ("" = not written)
  std::string counts_path;  // traced counts of an earlier run ("" = none)
  std::map<std::string, std::string> pins;  // output name -> pinned md5
};

// Output checks: every comparison counts as attempted; a mismatch counts as
// failed and is reported by name.
class Checker {
 public:
  void expect(const std::string& what, const std::string& got,
              const std::string& want);
  // Checks `got` against the pinned digest of `what`, when one is pinned.
  void expect_pinned(const Options& opt, const std::string& what,
                     const std::string& got);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Report {
  std::vector<double> setup_s;  // one entry per set-up
  std::uint64_t ops = 0;        // plays (simulation) or queries (analysis)
  double ops_wall_s = 0.0;      // execute-phase wall (simulation) / query wall
  std::vector<double> op_ms;    // CPU ms per op (thread_cpu_ms)
  std::uint64_t records = 0;    // records produced, or decoded and folded
  double records_wall_s = 0.0;  // whole timed wall
  Checker checks;
  // Per-layer metrics (traced runs only), in report order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> layers;
  std::vector<std::string> notes;  // human-readable lines

  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, {value, unit}});
  }
};

Report run_paper_study(const Options& opt);
Report run_campaign_foreground(const Options& opt);
Report run_records_analysis(const Options& opt);

// For a workload whose set-up simulates the study `cfg`: runs it once more
// through paper-study's traced re-drive (obs on, spans recorded), checks
// that the cache it saves has md5 `want`, makes paper-study's count and
// accounting checks, and reports the layers inside run_play,
// world.population_s and study.cache_save_s from it. tracer.plan_s and the
// worker figures come from `profile`, the self-profile of the set-up's
// run_study call.
void report_study_setup_layers(const Options& opt,
                               const rv::study::StudyConfig& cfg,
                               const rv::study::StudyProfile& profile,
                               const std::string& want, Report& report);

// ---------------------------------------------------------------------------
// Closed-loop execution of a study plan, shared by the simulation workloads.

// The simulator objects run_study and run_campaign build before planning:
// the catalog, the region graph and the tracer (which refers to both), with
// the fault seed tied to the study seed unless pinned.
struct TracerStack {
  std::unique_ptr<rv::media::Catalog> catalog;
  std::unique_ptr<rv::world::RegionGraph> graph;
  std::unique_ptr<rv::tracer::RealTracer> tracer;
};
TracerStack make_tracer(const rv::study::StudyConfig& cfg);

// run_study's and run_campaign's play_scale rule for one user profile.
void scale_plays(double play_scale, rv::world::UserProfile& user);

// Deterministic per-layer counts (name -> count), summed over plays.
using LayerCounts = std::map<std::string, std::uint64_t>;

// Host-side measurements of one or more executed plans.
struct ExecStats {
  std::vector<double> play_ms;     // thread CPU ms per simulated run_play
  std::uint64_t sim_plays = 0;     // calls that simulated a session
  std::uint64_t sim_events = 0;    // Simulator::events_executed summed
  double busy_s = 0.0;             // worker time inside run_play
  double idle_s = 0.0;             // measured worker waits (head + tail)
  // Per play class "<connection>.<protocol>": CPU ms sum and play count.
  std::map<std::string, std::pair<double, std::uint64_t>> by_class;
};

// Runs every task of `plan` on one worker per context. Each worker claims
// the next task (in plan.order) only when its previous play has finished,
// times its run_play call, and writes the record into its preassigned slot
// of `records`, which is resized to the plan. With spans enabled, every
// play gets a "tracer.run_play" span on lane worker+1 under `parent`, and
// worker head/tail waits are measured into stats.idle_s.
void execute_plan(const rv::tracer::RealTracer& tracer,
                  const rv::tracer::StudyPlan& plan,
                  const std::vector<rv::world::UserProfile>& users,
                  std::deque<rv::tracer::PlayContext>& contexts,
                  std::vector<rv::tracer::TraceRecord>& records,
                  ExecStats& stats, SpanRecorder& spans, std::uint64_t parent);

// Adds the deterministic counts of `records` (ClipStats, obs counters,
// telemetry samples) to `counts`.
void tally_records(const std::vector<rv::tracer::TraceRecord>& records,
                   LayerCounts& counts);

// The per-layer metrics every simulation workload reports from a traced
// pass of `iterations` identical iterations: counts of one iteration
// (`counts`), and ratios and the run_play split by class over the whole
// pass.
void report_sim_layers(const ExecStats& stats, std::size_t iterations,
                       const LayerCounts& counts, Report& report);

// Timed phases run whole iterations until --seconds have passed and at
// least this many op latencies were sampled, so op_ms_p99 is always the
// p99 and has ten or more samples beyond it.
constexpr std::uint64_t kMinTimedOps = 1100;

// Set-up timing. A sample is the mean time of a batch of set-ups sized to
// take about kSetupBatchSeconds (at least one set-up), and setup_s is the
// median sample. A run takes kMinSetupSamples samples before its timed
// phase; paper-study and campaign-foreground take one more after each
// timed round. On a shared host, campaign-foreground's 0.2 ms set-up
// runs at one of two speeds (0.14 or 0.25 ms) in phases lasting from a
// fraction of a second to seconds; timing single set-ups only at the start
// made setup_s flip between them from run to run.
constexpr double kSetupBatchSeconds = 0.2;
constexpr std::size_t kMinSetupSamples = 3;

// Adds one sample to `samples`, running `set_up` (which returns a pointer
// to a set-up with a `total_s` field) as often as the batch needs: sized by
// the previous sample, or by the first set-up when there is none. Returns
// the last set-up made.
template <typename SetUp>
auto sample_setup(SetUp&& set_up, std::vector<double>& samples) {
  auto s = set_up();
  double sum = s->total_s;
  const double each = samples.empty() ? s->total_s : samples.back();
  const int batch = static_cast<int>(
      std::min(1e6, std::max(1.0, std::ceil(kSetupBatchSeconds / each))));
  for (int i = 1; i < batch; ++i) {
    s = set_up();
    sum += s->total_s;
  }
  samples.push_back(sum / batch);
  return s;
}

// The accounting check's tolerance: spans plus measured worker waits must
// explain the traced wall to within this share of it. The wall is that of
// whole traced iterations (rounds, on records-analysis), timed apart from
// the spans and including the benchmark's own digesting and bookkeeping, so
// work that no span covers shows up as a gap.
constexpr double kAccountingTolerance = 0.03;

// |wall - accounted| / wall, where accounted is the self time of every
// main-lane span except the execute phases ("tracer.execute"), plus each
// execute phase as the worker average of play time and measured waits
// (`worker_seconds` / `workers`; pass workers 0 when nothing ran on worker
// lanes).
double accounting_gap(const std::vector<Span>& spans, double worker_seconds,
                      int workers, double wall);

// The checks every traced simulation pass makes on its deterministic
// counts: they repeat across its iterations, the obs sim-events counter
// agrees with Simulator::events_executed(), and they match the counts an
// earlier traced run of the same workload and seed stored at
// opt.counts_path (stored there when none were). Any count that differs is
// a failed check, reported by name. Returns the counts of one iteration.
LayerCounts check_traced_counts(const Options& opt,
                                const std::vector<LayerCounts>& per_iteration,
                                const ExecStats& exec, Checker& checks);

// Runs iterations of `a` and `b` in turn until `seconds` have passed (at
// least one each). The traced run compares an untraced and a traced side
// this way, so drift in host speed during the run affects both alike.
template <typename Pass>
void alternate(Pass& a, Pass& b, double seconds) {
  const auto start = std::chrono::steady_clock::now();
  do {
    a.iterate();
    b.iterate();
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < seconds);
}

// CPU time of the calling thread in ms. Op latencies are CPU time: every
// timed op is CPU-bound host work, and on a shared host its wall time also
// counts whatever the scheduler or hypervisor takes away mid-op, which made
// the tail percentiles swing by a third between runs.
double thread_cpu_ms();

// Removes the output a pass is about to rewrite. Rewriting a file in place
// truncates it, and ext4 then flushes the old blocks on close
// (auto_da_alloc), which adds disk waits the program's users do not see when
// they write fresh outputs.
void remove_output(const std::string& path);

// Seconds since `start` on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point start);

}  // namespace perfbench
