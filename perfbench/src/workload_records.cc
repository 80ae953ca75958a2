// records-analysis: no simulation in the timed phase. Set-up simulates a
// small two-shard spilled campaign and a small study cache; the timed phase
// repeats a fixed query mix over them: the rvmerge path (concat_spills plus
// rollup load/merge/save), a full spill scan folded into a fresh rollup and
// rendered, seeded read_record random reads, and load_result followed by
// every figure, the study summary and slices.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench_stats.h"
#include "record_path.h"
#include "study/cache.h"
#include "study/campaign.h"
#include "study/spill.h"
#include "util/md5.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace study = rv::study;
namespace tracer = rv::tracer;

// Per-user play share of the spilled campaign and of the study cache.
constexpr double kCampaignPlayScale = 0.2;
constexpr double kStudyPlayScale = 0.1;
// Single-record reads per round of the mix.
constexpr int kReadsPerRound = 8;
// Set-up samples an untraced run takes after its timed phase.
constexpr std::size_t kEndSetupSamples = 2;

study::CampaignConfig shard_config(const Options& opt, std::uint32_t shard,
                                   std::uint32_t shards,
                                   const std::string& dir) {
  study::CampaignConfig c;
  c.study.seed = opt.seed;
  c.study.threads = opt.threads;
  c.study.play_scale = kCampaignPlayScale;
  auto& t = c.study.tracer;
  t.path.negligible_load = 2.0;  // no cross traffic: cheap set-up
  // Mechanistic outages and server overload stalls. Link-down and
  // corruption bursts stay off: with them on, some seeds abort in
  // TcpConnection::send_chunk ("write after close"; see README.md).
  t.faults.enabled = true;
  t.faults.overload_probability = 0.05;
  t.tcp_sack = true;
  c.shard_index = shard;
  c.shard_count = shards;
  c.spill_dir = dir;
  return c;
}

study::StudyConfig cache_config(const Options& opt) {
  study::StudyConfig s = shard_config(opt, 0, 1, "").study;
  s.play_scale = kStudyPlayScale;
  return s;
}

struct Setup {
  std::string shard_spill[2], shard_rollup[2], cache_path;
  study::StudyConfig cache_cfg;
  study::StudyResult study;  // in memory, for the figures reference
  double total_s = 0.0;
};

std::unique_ptr<Setup> set_up(const Options& opt, const std::string& dir) {
  const std::string shard_dir[2] = {dir + "/shard0", dir + "/shard1"};
  for (const auto& d : shard_dir) {
    remove_output(d + "/records.spill");
    remove_output(d + "/rollup.bin");
  }
  remove_output(dir + "/study.cache");
  const auto start = Clock::now();
  auto s = std::make_unique<Setup>();
  for (std::uint32_t i = 0; i < 2; ++i) {
    const study::CampaignResult res =
        study::run_campaign(shard_config(opt, i, 2, shard_dir[i]));
    s->shard_spill[i] = res.spill_path;
    s->shard_rollup[i] = res.rollup_path;
  }
  s->cache_cfg = cache_config(opt);
  study::StudyConfig profiled = s->cache_cfg;
  profiled.profile = true;  // for the traced run's plan and worker figures
  s->study = study::run_study(profiled);
  s->cache_path = dir + "/study.cache";
  if (!study::save_result(s->cache_path, s->cache_cfg, s->study)) {
    throw std::runtime_error("cannot write " + s->cache_path);
  }
  s->total_s = seconds_since(start);
  return s;
}

// Outputs of the mix and host time per layer, accumulated over rounds.
struct PassResult {
  std::vector<double> op_ms;
  std::vector<double> query_walls;  // wall time of the queries per round
  std::vector<double> round_walls;  // whole rounds, checks included
  std::map<std::string, std::vector<double>> op_ms_by_query;
  std::uint64_t records = 0;
  double wall = 0.0;                // the sum of query_walls
  std::vector<std::string> spill_digests, rollup_digests, report_digests,
      figure_digests;
  std::uint64_t read_mismatches = 0;
  // Layer times.
  double decode_s = 0.0, fold_s = 0.0, concat_s = 0.0;
  std::uint64_t scanned = 0, concatenated = 0, spill_bytes = 0;
  std::vector<double> merge_ms, load_s, figures_ms;
};

class Mix {
 public:
  // `name` is the directory, under the work dir, for this mix's outputs.
  Mix(const Options& opt, const Setup& setup, SpanRecorder& spans,
      const std::string& name)
      : opt_(opt), setup_(setup), spans_(spans) {
    merged_spill_ = opt.work_dir + "/" + name + "/records.spill";
    merged_rollup_ = opt.work_dir + "/" + name + "/rollup.bin";
    std::filesystem::create_directories(opt.work_dir + "/" + name);
    // The merged spill is the shard spills in order, so its records' keys
    // can be taken from the shards before any query runs.
    std::vector<tracer::TraceRecord> frame;
    for (const auto& path : setup.shard_spill) {
      study::SpillReader reader;
      if (!reader.open(path)) throw std::runtime_error(reader.error());
      for (std::size_t f = 0; f < reader.frames(); ++f) {
        if (!reader.read_frame(f, frame)) {
          throw std::runtime_error("shard spill decode failed: " + path);
        }
        for (const auto& rec : frame) keys_.push_back(record_key(rec));
      }
    }
  }

  // Runs one round of the mix. Outputs are digested and compared between
  // the timed queries, under "bench.check" spans, so checking adds nothing
  // to the query times.
  void iterate() {
    const auto round_start = Clock::now();
    round_s_ = 0.0;
    timed("merge", [&] { merge(); });
    std::string merged_report;
    {
      ScopedSpan span(spans_, 0, "bench.check");
      out.spill_digests.push_back(rv::util::md5_file_hex(merged_spill_));
      out.rollup_digests.push_back(rv::util::md5_file_hex(merged_rollup_));
      out.spill_bytes = std::filesystem::file_size(merged_spill_);
      merged_report = merged_.render();
    }
    timed("scan", [&] { scan(); });
    {
      ScopedSpan span(spans_, 0, "bench.check");
      out.report_digests.push_back(rv::util::md5_hex(report_));
      scan_matches_merge_ = scan_matches_merge_ && report_ == merged_report;
    }
    rv::util::Rng rng(opt_.seed * 1000003 + out.round_walls.size());
    for (int i = 0; i < kReadsPerRound; ++i) {
      const std::uint64_t index = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(keys_.size()) - 1));
      timed("read", [&] { read(index); });
      ScopedSpan span(spans_, 0, "bench.check");
      if (record_key(record_) != keys_[index]) ++out.read_mismatches;
    }
    timed("figures", [&] { figures(); });
    {
      ScopedSpan span(spans_, 0, "bench.check");
      out.figure_digests.push_back(rv::util::md5_hex(figures_text_));
    }
    out.query_walls.push_back(round_s_);
    out.wall += round_s_;
    out.round_walls.push_back(seconds_since(round_start));
  }

  PassResult out;

 private:
  template <typename F>
  void timed(const char* kind, F&& query) {
    const auto t = Clock::now();
    const double cpu_start = thread_cpu_ms();
    query();
    const double cpu_ms = thread_cpu_ms() - cpu_start;
    out.op_ms.push_back(cpu_ms);
    out.op_ms_by_query[kind].push_back(cpu_ms);
    round_s_ += seconds_since(t);
  }

  // rvmerge: concatenate the shard spills, then load, merge and save the
  // shard rollups.
  void merge() {
    ScopedSpan q(spans_, 0, "query.merge");
    const auto t0 = Clock::now();
    std::string error;
    remove_output(merged_spill_);
    remove_output(merged_rollup_);
    {
      ScopedSpan span(spans_, 0, "study.concat_spills", q.id());
      if (!study::concat_spills({setup_.shard_spill[0], setup_.shard_spill[1]},
                                merged_spill_, &error)) {
        throw std::runtime_error("concat_spills: " + error);
      }
    }
    const auto t1 = Clock::now();
    {
      ScopedSpan span(spans_, 0, "study.rollup_merge", q.id());
      study::CampaignRollup a, b;
      if (!study::CampaignRollup::load(setup_.shard_rollup[0], &a, &error) ||
          !study::CampaignRollup::load(setup_.shard_rollup[1], &b, &error) ||
          !a.merge(b, &error) || !a.save(merged_rollup_)) {
        throw std::runtime_error("rollup merge: " + error);
      }
      merged_ = std::move(a);
    }
    const auto t2 = Clock::now();
    out.concat_s += std::chrono::duration<double>(t1 - t0).count();
    out.concatenated += keys_.size();
    out.records += keys_.size();  // decoded and re-encoded by the concat
    out.merge_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
  }

  // Full scan of the merged spill folded into a fresh rollup, rendered.
  void scan() {
    ScopedSpan q(spans_, 0, "query.scan");
    study::SpillReader reader;
    if (!reader.open(merged_spill_)) {
      throw std::runtime_error("spill open: " + reader.error());
    }
    study::CampaignRollup rollup;
    rollup.user_count = merged_.user_count;
    std::vector<tracer::TraceRecord> frame;
    for (std::size_t f = 0; f < reader.frames(); ++f) {
      const auto t0 = Clock::now();
      {
        ScopedSpan span(spans_, 0, "study.spill_read_frame", q.id());
        if (!reader.read_frame(f, frame)) {
          throw std::runtime_error("spill frame decode failed");
        }
      }
      const auto t1 = Clock::now();
      {
        ScopedSpan span(spans_, 0, "study.fold", q.id());
        for (const auto& rec : frame) rollup.fold(rec);
      }
      out.decode_s += std::chrono::duration<double>(t1 - t0).count();
      out.fold_s += seconds_since(t1);
      out.scanned += frame.size();
      out.records += frame.size();
    }
    ScopedSpan span(spans_, 0, "study.rollup_render", q.id());
    report_ = rollup.render();
  }

  void read(std::uint64_t index) {
    ScopedSpan q(spans_, 0, "query.read");
    if (!reader_.ok() && !reader_.open(merged_spill_)) {
      throw std::runtime_error("spill open: " + reader_.error());
    }
    {
      ScopedSpan span(spans_, 0, "study.read_record", q.id());
      if (!reader_.read_record(index, record_)) {
        throw std::runtime_error("read_record failed");
      }
    }
    ++out.records;
  }

  void figures() {
    ScopedSpan q(spans_, 0, "query.figures");
    const auto t0 = Clock::now();
    std::optional<study::StudyResult> loaded;
    {
      ScopedSpan span(spans_, 0, "study.load_result", q.id());
      loaded = study::load_result(setup_.cache_path, setup_.cache_cfg);
    }
    if (!loaded) throw std::runtime_error("load_result failed");
    const auto t1 = Clock::now();
    {
      ScopedSpan span(spans_, 0, "study.figures", q.id());
      figures_text_ = render_figures(*loaded);
    }
    out.load_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    out.figures_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t1).count());
    out.records += loaded->records.size();
  }

 public:
  bool scan_matches_merge() const { return scan_matches_merge_; }

 private:
  const Options& opt_;
  const Setup& setup_;
  SpanRecorder& spans_;
  std::string merged_spill_, merged_rollup_;
  // The latest outputs of the queries, checked between them.
  study::CampaignRollup merged_;
  std::string report_, figures_text_;
  tracer::TraceRecord record_;
  double round_s_ = 0.0;  // query wall time of the current round
  std::vector<std::string> keys_;  // record_key per merged-spill ordinal
  study::SpillReader reader_;      // kept open across random reads
  bool scan_matches_merge_ = true;
};

// Runs rounds of every mix on a thread of its own, a closed loop of one
// worker per mix, until `seconds` have passed and the workers together
// sampled kMinTimedOps queries. Each worker writes its own output files.
void run_workers(const std::vector<std::unique_ptr<Mix>>& mixes,
                 double seconds) {
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::exception_ptr> errors(mixes.size());
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t w = 0; w < mixes.size(); ++w) {
    threads.emplace_back([&, w] {
      Mix& mix = *mixes[w];
      try {
        do {
          const std::size_t before = mix.out.op_ms.size();
          mix.iterate();
          ops += mix.out.op_ms.size() - before;
        } while (seconds_since(start) < seconds || ops.load() < kMinTimedOps);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// The outputs of every worker's mix as one pass. `wall` is the workers'
// mean query wall, so ops over it is the rate of all workers together.
PassResult combine(const std::vector<std::unique_ptr<Mix>>& mixes) {
  PassResult all;
  const auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const auto& mix : mixes) {
    const PassResult& p = mix->out;
    append(all.op_ms, p.op_ms);
    append(all.query_walls, p.query_walls);
    append(all.round_walls, p.round_walls);
    for (const auto& [kind, ms] : p.op_ms_by_query) {
      append(all.op_ms_by_query[kind], ms);
    }
    all.records += p.records;
    all.wall += p.wall / static_cast<double>(mixes.size());
    append(all.spill_digests, p.spill_digests);
    append(all.rollup_digests, p.rollup_digests);
    append(all.report_digests, p.report_digests);
    append(all.figure_digests, p.figure_digests);
    all.read_mismatches += p.read_mismatches;
    all.scanned += p.scanned;
  }
  return all;
}

void check_all(Checker& checks, const std::string& what,
               const std::vector<std::string>& got, const std::string& want) {
  for (const auto& d : got) checks.expect(what, d, want);
}

}  // namespace

Report run_records_analysis(const Options& opt) {
  Report report;
  std::unique_ptr<Setup> setup;
  while (report.setup_s.size() < kMinSetupSamples) {
    setup = sample_setup([&] { return set_up(opt, opt.work_dir); },
                         report.setup_s);
  }

  // An untraced run times nproc workers, each with a mix of its own. A
  // traced run alternates rounds of one untraced mix and a traced mix.
  SpanRecorder off(false, 1);
  SpanRecorder spans(true, 1);
  std::vector<std::unique_ptr<Mix>> mixes;
  const int workers = opt.trace ? 1 : opt.threads;
  for (int w = 0; w < workers; ++w) {
    mixes.push_back(std::make_unique<Mix>(opt, *setup, off,
                                          "merged" + std::to_string(w)));
  }
  Mix traced_mix(opt, *setup, spans, "merged-traced");
  if (opt.trace) {
    alternate(*mixes[0], traced_mix, opt.seconds);
  } else {
    run_workers(mixes, opt.seconds);
    // Set-up samples at the end of the run as well as at its start, made
    // apart from the files the mixes read.
    for (std::size_t i = 0; i < kEndSetupSamples; ++i) {
      sample_setup([&] { return set_up(opt, opt.work_dir + "/setup-sample"); },
                   report.setup_s);
    }
  }
  const PassResult pass = combine(mixes);
  report.ops = pass.op_ms.size();
  report.op_ms = pass.op_ms;
  report.ops_wall_s = pass.wall;
  report.records = pass.records;
  report.records_wall_s = pass.wall;

  // References: figures rendered from the in-memory study the cache was
  // saved from; the rollup report of the merged shard rollups; and, for
  // untraced runs, a single-process campaign, whose spill and rollup the
  // two-shard merge must reproduce byte for byte.
  Checker& checks = report.checks;
  const std::string want_figures = rv::util::md5_hex(render_figures(setup->study));
  std::string want_spill = pass.spill_digests.front();
  std::string want_rollup = pass.rollup_digests.front();
  if (!opt.trace) {
    const study::CampaignResult single =
        study::run_campaign(shard_config(opt, 0, 1, opt.work_dir + "/single"));
    want_spill = rv::util::md5_file_hex(single.spill_path);
    want_rollup = rv::util::md5_file_hex(single.rollup_path);
  }
  const auto check_pass = [&](const PassResult& p, const std::string& how) {
    check_all(checks, "merged spill vs " + how, p.spill_digests, want_spill);
    check_all(checks, "merged rollup vs " + how, p.rollup_digests, want_rollup);
    check_all(checks, "figures vs in-memory study", p.figure_digests,
              want_figures);
    check_all(checks, "rollup report repeats", p.report_digests,
              pass.report_digests.front());
    checks.expect("random reads match the scan",
                  std::to_string(p.read_mismatches), "0");
    for (const auto& d : p.figure_digests) {
      checks.expect_pinned(opt, "records.figures", d);
    }
    for (const auto& d : p.report_digests) {
      checks.expect_pinned(opt, "records.report", d);
    }
    for (const auto& d : p.spill_digests) {
      checks.expect_pinned(opt, "records.merged_spill", d);
    }
  };
  check_pass(pass, opt.trace ? "untraced pass" : "single-process campaign");
  checks.expect("scan-folded report equals merged rollup report",
                std::all_of(mixes.begin(), mixes.end(),
                            [](const auto& m) { return m->scan_matches_merge(); })
                    ? "yes"
                    : "no",
                "yes");
  report.notes.push_back("records.figures md5 " + pass.figure_digests.front() +
                         ", records.report md5 " + pass.report_digests.front() +
                         ", records.merged_spill md5 " +
                         pass.spill_digests.front() + " (" +
                         std::to_string(pass.scanned / pass.round_walls.size()) +
                         " spilled records, " +
                         std::to_string(setup->study.records.size()) +
                         " cached records)");
  std::string by_query = "query CPU ms (median/max):";
  for (const auto& [kind, ms] : pass.op_ms_by_query) {
    by_query += " " + kind + " " + rv::util::format_double(median(ms), 3) +
                "/" +
                rv::util::format_double(*std::max_element(ms.begin(), ms.end()),
                                        3);
  }
  report.notes.push_back(by_query);
  if (!opt.trace) return report;

  const PassResult& traced = traced_mix.out;
  check_pass(traced, "untraced pass");
  const std::vector<Span> all = spans.spans();
  double traced_wall = 0.0;
  for (double w : traced.round_walls) traced_wall += w;
  const double gap = accounting_gap(all, 0.0, 0, traced_wall);
  checks.expect("accounting gap within tolerance",
                gap <= kAccountingTolerance ? "yes" : "no", "yes");
  if (!opt.spans_path.empty() && !write_spans_json(all, opt.spans_path)) {
    throw std::runtime_error("cannot write " + opt.spans_path);
  }

  const double scanned = static_cast<double>(traced.scanned);
  const double decode_ns = traced.decode_s * 1e9 / scanned;
  report.layer("study.spill_decode_ns_per_record", decode_ns, "ns");
  report.layer("study.fold_ns_per_record", traced.fold_s * 1e9 / scanned, "ns");
  report.layer("study.spill_encode_ns_per_record",
               traced.concat_s * 1e9 / static_cast<double>(traced.concatenated),
               "ns");
  report.layer("study.spill_bytes_per_record",
               static_cast<double>(traced.spill_bytes) /
                   static_cast<double>(traced.concatenated /
                                       traced.round_walls.size()),
               "B");
  report.layer("study.cache_load_s", median(traced.load_s), "s");
  report.layer("study.figures_ms", median(traced.figures_ms), "ms");
  report.layer("study.rollup_merge_ms", median(traced.merge_ms), "ms");
  const double untraced_round = median(pass.round_walls);
  const double traced_round = median(traced.round_walls);
  report.layer("trace.overhead_s", traced_round - untraced_round, "s");
  report.layer("trace.overhead_frac",
               (traced_round - untraced_round) / untraced_round, "ratio");
  report.layer("trace.accounting_gap_frac", gap, "ratio");
  // The timed phase simulates nothing; the layers inside run_play, the
  // planner and the cache save are measured on the set-up's study.
  report_study_setup_layers(opt, setup->cache_cfg, setup->study.profile,
                            rv::util::md5_file_hex(setup->cache_path), report);
  return report;
}

}  // namespace perfbench
