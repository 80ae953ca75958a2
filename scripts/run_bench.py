#!/usr/bin/env python3
"""Benchmark harness for the simulation fast path.

Runs the Google-benchmark microbench binary once, with every benchmark
repeated and the repetitions randomly interleaved, keeps the per-benchmark
minimum (the least-noise estimator on shared/virtualised hardware),
derives the headline metrics (ns/event, packets/sec), and
optionally times a full `realdata summary` study run at a fixed seed,
fingerprinting the result cache so byte-identity across kernel changes is
checked, not assumed.

Modes:
  --update   rewrite the `after` numbers in BENCH_sim.json (preserving the
             committed `before` seed-kernel numbers and study fingerprint)
  --check    re-measure and fail (exit 1) if any tracked benchmark regressed
             more than --tolerance (default 20%) versus the committed
             `after` numbers, after rescaling by the calibration benchmark
             (BM_CdfBuildAndQuery — pure arithmetic, untouched by kernel
             work) so a slower CI machine does not read as a regression.
  --study    also run the full study (slow: minutes) and record wall time,
             peak RSS (the child's ru_maxrss), and the cache fingerprint;
             --check gates the RSS against the committed number under
             --rss-tolerance.
  --threads-sweep 1,2,4,8
             with --study: run the full study once per thread count, record
             the scaling curve under study.scaling in BENCH_sim.json, and
             fail if the cache md5 differs across thread counts (the
             per-play executor must be byte-identical at any width).
  --scaling-smoke
             cheap CI gate for multicore scaling: run a --scaling-scale
             mini-study at 1 and 2 threads (min-of-N walls) and, on machines
             with >= 2 cores, fail unless 2 threads actually beat 1
             (--scaling-speedup). Single-core runners skip the gate
             explicitly — a scaling number measured there would be noise,
             not signal. (Thread-count byte identity is a ctest check:
             Determinism.ThreadCountInvariant*.)
  --obs-overhead-check
             cheap CI gate for the tracing hooks: measure the disabled-hook
             cost (BM_ObsHookDisabled) and fail if the worst-case hook tax
             on the packet-forwarding hot path exceeds --obs-tolerance
             (default 2%). Runs only the three benchmarks it needs.
  --cc-grid
             run the full bench_ablation_cc loss x jitter grid (minutes)
             and rewrite the `cc_grid` section of BENCH_sim.json with the
             per-backend goodput/CV cells and tracer rebuffer rates.
  --campaign
             run a full campaign (hours at the default --campaign-scale 350
             ~= 1M plays, --campaign-watch 5) and rewrite the `campaign`
             section of BENCH_sim.json with plays/s/core and the campaign
             process's peak RSS — the bounded-memory headline numbers.

With no mode flag it measures and prints, changing nothing. This script
only measures; every correctness check of the tools (strict flags, byte
identity under tracing, telemetry, --cc, sharding and the status exporter)
is a ctest entry.

The --check perf gates only ever compare like with like: microbench numbers
against the committed numbers (calibration-rescaled), and study wall time
against the committed scaling-curve entry for the *same thread count* — a
4-thread run is never judged against an 8-thread baseline. The cache md5 is
thread-invariant by design, so it is compared unconditionally.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BENCH = os.path.join(REPO_ROOT, "build", "bench", "bench_microbench")
DEFAULT_CC_BENCH = os.path.join(REPO_ROOT, "build", "bench",
                                "bench_ablation_cc")
DEFAULT_REALDATA = os.path.join(REPO_ROOT, "build", "tools", "realdata")
DEFAULT_JSON = os.path.join(REPO_ROOT, "BENCH_sim.json")

# Benchmarks tracked for regressions. BM_CdfBuildAndQuery is the calibration
# reference and is exempt from the regression gate itself.
TRACKED = [
    "BM_SimulatorScheduleRun",
    "BM_SimulatorCancelHeavy",
    "BM_SimulatorTimerChurn",
    "BM_SimulatorStudyShape",
    "BM_PacketForwardingChain/2",
    "BM_PacketForwardingChain/8",
    "BM_LinkBurstForward",
    "BM_CrossTrafficLink",
    "BM_TcpBulkTransfer",
    "BM_TcpChunkedSegments",
    "BM_FrameScheduleGenerate",
    "BM_PacketizeReassemble",
]
CALIBRATION = "BM_CdfBuildAndQuery"

# Derived headline metrics: benchmark name -> (work items per iteration).
EVENTS_PER_SCHEDULE_RUN = 1000  # events per BM_SimulatorScheduleRun iteration
PACKETS_PER_FORWARD_ITER = 100  # packets per BM_PacketForwardingChain iteration

# Observability-hook accounting for --obs-overhead-check.
# BM_ObsHookDisabled runs this many emit+count pairs per iteration:
HOOK_PAIRS_PER_OBS_ITER = 1000
# BM_PacketForwardingChain/8 forwards 100 packets over 8 hops; each hop-send
# hits one obs::count() hook in net::Link::send. Pricing each call at the
# full emit+count *pair* cost overstates the tax, making the gate an upper
# bound:
HOOK_CALLS_PER_FORWARD_ITER_8 = 800
# The event kernel itself (BM_SimulatorScheduleRun) contains no obs hooks by
# construction — per-play sim_events are counted once per play from the
# simulator's own executed-events tally, not per event.
#
# Telemetry-sampler accounting, same shape: BM_SeriesSampleDisabled runs this
# many sample_if_active guards per iteration against an inactive sampler:
GUARDS_PER_SERIES_ITER = 1000
# The sampler is timer-driven, so hot paths never call it per packet; pricing
# one guard per hop anyway folds the telemetry-off tax into the same upper
# bound the obs hooks are held to:
GUARD_CALLS_PER_FORWARD_ITER_8 = 800
# Process-metrics accounting, same shape again: BM_MetricsDisabled runs this
# many metrics_add hooks per iteration with no registry installed:
METRIC_CALLS_PER_METRICS_ITER = 1000
# Real metrics hooks live in the campaign chunk loop (per chunk, not per
# packet); pricing one call per hop anyway folds the metrics-off tax into
# the same combined <2% upper bound:
METRIC_CALLS_PER_FORWARD_ITER_8 = 800


def run_microbench(binary, repetitions, min_time, bench_filter=None):
    """Runs the bench binary once; returns {name: min_ns}.

    Every benchmark runs `repetitions` times with the repetitions of all
    benchmarks in random interleaved order, so the calibration benchmark and
    the tracked ones sample the same phases of a noisy shared host; the
    per-benchmark minimum over the repetitions is kept.
    """
    with tempfile.NamedTemporaryFile(mode="r", suffix=".json") as out:
        cmd = [
            binary,
            "--benchmark_format=console",
            "--benchmark_out_format=json",
            "--benchmark_out=%s" % out.name,
            "--benchmark_min_time=%g" % min_time,
            "--benchmark_repetitions=%d" % max(1, repetitions),
            "--benchmark_enable_random_interleaving=true",
        ]
        if bench_filter:
            cmd.append("--benchmark_filter=%s" % bench_filter)
        subprocess.run(
            cmd, check=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        data = json.load(open(out.name))
    best = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue  # mean/median/stddev rows; the minimum is taken here
        name = b["name"]
        # JSON reports real_time in the benchmark's display unit.
        unit = b.get("time_unit", "ns")
        to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
        assert unit in to_ns, "%s: unknown time unit %r" % (name, unit)
        ns = float(b["real_time"]) * to_ns[unit]
        if name not in best or ns < best[name]:
            best[name] = ns
    return best


def derive(results):
    d = {}
    if "BM_SimulatorScheduleRun" in results:
        d["event_ns"] = results["BM_SimulatorScheduleRun"] / EVENTS_PER_SCHEDULE_RUN
    if "BM_PacketForwardingChain/8" in results:
        per_packet_ns = results["BM_PacketForwardingChain/8"] / PACKETS_PER_FORWARD_ITER
        d["packets_per_sec"] = 1e9 / per_packet_ns
    return d


def run_traced(cmd, cwd=None, capture=False):
    """Runs cmd to completion; returns (returncode, stdout, peak_rss_kb).

    Peak RSS is the child's ru_maxrss from wait4 — the same number the
    kernel reports in /proc/<pid>/status as VmHWM, in KiB on Linux — so the
    bench harness measures memory the same way the campaign driver does.
    """
    proc = subprocess.Popen(
        cmd, cwd=cwd,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    out = proc.stdout.read().decode() if capture else ""
    _, status, rusage = os.wait4(proc.pid, 0)
    # Record the exit status on the Popen so its finalizer does not try to
    # reap the already-waited child.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, rusage.ru_maxrss


def run_study(realdata, seed, threads, scale=None):
    """Runs the full study in a scratch dir.

    Returns (wall_s, cache_md5, peak_rss_kb). The study cache lands in
    ./.rv_cache/ under the scratch cwd.
    """
    scratch = tempfile.mkdtemp(prefix="rv_bench_study_")
    try:
        cmd = [realdata, "summary", "--seed", str(seed), "--threads",
               str(threads)]
        if scale is not None:
            cmd += ["--scale", "%g" % scale]
        t0 = time.monotonic()
        rc, _, peak_rss_kb = run_traced(cmd, cwd=scratch)
        if rc != 0:
            raise RuntimeError("realdata summary exited %d" % rc)
        wall = time.monotonic() - t0
        cache_dir = os.path.join(scratch, ".rv_cache")
        caches = sorted(
            f for f in os.listdir(cache_dir) if f.endswith(".cache")
        ) if os.path.isdir(cache_dir) else []
        if len(caches) != 1:
            raise RuntimeError("expected one .cache file, got %r" % caches)
        digest = hashlib.md5(
            open(os.path.join(cache_dir, caches[0]), "rb").read()).hexdigest()
        return wall, digest, peak_rss_kb
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-binary", default=DEFAULT_BENCH)
    ap.add_argument("--realdata-binary", default=DEFAULT_REALDATA)
    ap.add_argument("--baseline", default=DEFAULT_JSON,
                    help="path to BENCH_sim.json")
    ap.add_argument("--repetitions", type=int, default=5,
                    help="repetitions per benchmark, randomly interleaved "
                         "in one run; the per-benchmark minimum is kept")
    ap.add_argument("--min-time", type=float, default=0.25,
                    help="--benchmark_min_time per repetition (seconds)")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="--check fails on regressions beyond this fraction")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--update", action="store_true")
    ap.add_argument("--study", action="store_true",
                    help="also run the full study (minutes)")
    ap.add_argument("--threads-sweep", default=None,
                    help="with --study: comma-separated thread counts for "
                         "the scaling curve, e.g. 1,2,4,8")
    ap.add_argument("--scaling-smoke", action="store_true",
                    help="run a mini-study at 1 and 2 threads (min of "
                         "--scaling-runs each); on multi-core machines only, "
                         "fail unless 2 threads beat 1 by --scaling-speedup. "
                         "On a single-core runner the gate is skipped (and "
                         "says so): there is nothing to scale onto")
    ap.add_argument("--scaling-scale", type=float, default=0.05,
                    help="play_scale for --scaling-smoke (big enough that "
                         "the speedup is measurable)")
    ap.add_argument("--scaling-runs", type=int, default=2,
                    help="runs per thread count for --scaling-smoke and "
                         "--threads-sweep; the minimum wall is kept")
    ap.add_argument("--scaling-speedup", type=float, default=1.15,
                    help="minimum 2-thread speedup --scaling-smoke demands "
                         "when the machine has >= 2 cores")
    ap.add_argument("--obs-overhead-check", action="store_true",
                    help="fail if the disabled tracing hooks cost more than "
                         "--obs-tolerance of the packet-forwarding hot path")
    ap.add_argument("--obs-tolerance", type=float, default=0.02,
                    help="max allowed disabled-hook overhead fraction")
    ap.add_argument("--cc-bench-binary", default=DEFAULT_CC_BENCH)
    ap.add_argument("--cc-grid", action="store_true",
                    help="run the full CC loss x jitter grid (minutes) and "
                         "rewrite the cc_grid section of BENCH_sim.json")
    ap.add_argument("--rss-tolerance", type=float, default=0.30,
                    help="--check fails if the study's peak RSS exceeds the "
                         "committed number by more than this fraction")
    ap.add_argument("--campaign", action="store_true",
                    help="run a full campaign (hours at --campaign-scale "
                         "350 ~= 1M plays) and rewrite the `campaign` "
                         "section of BENCH_sim.json with plays/s/core and "
                         "peak RSS")
    ap.add_argument("--campaign-scale", type=int, default=350,
                    help="--plays-scale for --campaign (350 ~= 1M plays)")
    ap.add_argument("--campaign-watch", type=float, default=5.0,
                    help="per-play watch duration (seconds) for --campaign")
    ap.add_argument("--seed", type=int, default=2001)
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args()

    if args.scaling_smoke:
        if not os.path.exists(args.realdata_binary):
            sys.exit("realdata binary not found: %s (build Release first)" %
                     args.realdata_binary)
        cores = os.cpu_count() or 1
        walls = {}
        for threads in (1, 2):
            walls[threads] = min(
                run_study(args.realdata_binary, args.seed, threads,
                          scale=args.scaling_scale)[0]
                for _ in range(max(1, args.scaling_runs)))
            print("scaling smoke threads=%d wall=%.1fs (min of %d)" %
                  (threads, walls[threads], max(1, args.scaling_runs)),
                  file=sys.stderr)
        if cores < 2:
            print("scaling smoke SKIPPED — single-core runner (cores=%d), 2 "
                  "workers have nothing to scale onto (walls 1t=%.1fs "
                  "2t=%.1fs)" % (cores, walls[1], walls[2]))
            return
        speedup = walls[1] / walls[2] if walls[2] > 0 else 0.0
        if speedup < args.scaling_speedup:
            sys.exit("scaling smoke FAILED: 2-thread speedup %.2fx < "
                     "required %.2fx on a %d-core machine "
                     "(walls 1t=%.1fs 2t=%.1fs)" %
                     (speedup, args.scaling_speedup, cores,
                      walls[1], walls[2]))
        print("scaling smoke passed: 2-thread speedup %.2fx >= %.2fx on %d "
              "cores" % (speedup, args.scaling_speedup, cores))
        return

    if args.campaign:
        if not os.path.exists(args.realdata_binary):
            sys.exit("realdata binary not found: %s (build Release first)" %
                     args.realdata_binary)
        scratch = tempfile.mkdtemp(prefix="rv_campaign_")
        try:
            cmd = [args.realdata_binary, "campaign",
                   "--seed", str(args.seed),
                   "--threads", str(args.threads),
                   "--plays-scale", str(args.campaign_scale),
                   "--watch", "%g" % args.campaign_watch]
            print("running campaign (plays-scale=%d, watch=%gs, "
                  "threads=%d)..." % (args.campaign_scale,
                                      args.campaign_watch, args.threads),
                  file=sys.stderr)
            t0 = time.monotonic()
            rc, out, peak_rss_kb = run_traced(cmd, cwd=scratch, capture=True)
            wall = time.monotonic() - t0
            if rc != 0:
                sys.exit("campaign FAILED: realdata campaign exited %d:\n%s"
                         % (rc, out))
            plays = threads = None
            plays_per_sec_per_core = None
            for line in out.splitlines():
                if line.startswith("campaign:") and " plays over " in line:
                    tail = line.split(": ", 2)[-1]
                    plays = int(tail.split(" plays over ")[0])
                if line.startswith("throughput:"):
                    plays_per_sec_per_core = float(line.split()[1])
                    threads = int(line.split("(")[1].split("s wall, ")[1]
                                  .split(" thread")[0])
            if plays is None or plays_per_sec_per_core is None:
                sys.exit("campaign FAILED: could not parse realdata "
                         "campaign output:\n%s" % out)
            print(out)
            print("campaign: %d plays in %.0fs wall, %.1f plays/s/core, "
                  "peak rss %d KiB" % (plays, wall,
                                       plays_per_sec_per_core, peak_rss_kb))
            doc = json.load(open(args.baseline)) if os.path.exists(
                args.baseline) else {}
            doc["campaign"] = {
                "seed": args.seed,
                "plays_scale": args.campaign_scale,
                "watch_seconds": args.campaign_watch,
                "threads": threads,
                "plays": plays,
                "wall_seconds": round(wall, 1),
                "plays_per_sec_per_core": plays_per_sec_per_core,
                "peak_rss_kb": peak_rss_kb,
            }
            with open(args.baseline, "w") as f:
                json.dump(doc, f, indent=2, sort_keys=True)
                f.write("\n")
            print("wrote campaign section to %s" % args.baseline)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return

    if args.cc_grid:
        if not os.path.exists(args.cc_bench_binary):
            sys.exit("cc bench binary not found: %s (build Release first)" %
                     args.cc_bench_binary)
        scratch = tempfile.mkdtemp(prefix="rv_cc_grid_")
        try:
            grid_path = os.path.join(scratch, "cc_grid.json")
            print("running full CC loss x jitter grid (minutes)...",
                  file=sys.stderr)
            subprocess.run(
                [args.cc_bench_binary, "--grid-json=" + grid_path,
                 "--benchmark_filter=nonexistent"],
                check=True, stderr=subprocess.DEVNULL)
            cc_grid = json.load(open(grid_path))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        doc = json.load(open(args.baseline)) if os.path.exists(
            args.baseline) else {}
        doc["cc_grid"] = cc_grid
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote cc_grid section (%d backends x %d cells) to %s" %
              (len(cc_grid["grid"]),
               len(next(iter(cc_grid["grid"].values()))), args.baseline))
        return

    if args.obs_overhead_check:
        if not os.path.exists(args.bench_binary):
            sys.exit("bench binary not found: %s (build Release first)" %
                     args.bench_binary)
        wanted = ("^(BM_ObsHookDisabled|BM_SeriesSampleDisabled|"
                  "BM_MetricsDisabled|BM_PacketForwardingChain/8)$")
        print("measuring disabled-hook overhead (x%d reps)..." %
              args.repetitions, file=sys.stderr)
        results = run_microbench(args.bench_binary, args.repetitions,
                                 args.min_time, bench_filter=wanted)
        try:
            pair_ns = results["BM_ObsHookDisabled"] / HOOK_PAIRS_PER_OBS_ITER
            guard_ns = (results["BM_SeriesSampleDisabled"] /
                        GUARDS_PER_SERIES_ITER)
            metric_ns = (results["BM_MetricsDisabled"] /
                         METRIC_CALLS_PER_METRICS_ITER)
            forward_ns = results["BM_PacketForwardingChain/8"]
        except KeyError as missing:
            sys.exit("obs overhead check FAILED: benchmark %s not found "
                     "(stale bench binary?)" % missing)
        tax_ns = (pair_ns * HOOK_CALLS_PER_FORWARD_ITER_8 +
                  guard_ns * GUARD_CALLS_PER_FORWARD_ITER_8 +
                  metric_ns * METRIC_CALLS_PER_FORWARD_ITER_8)
        ratio = tax_ns / forward_ns
        print("disabled hook pair %.3f ns + sampler guard %.3f ns + "
              "metrics hook %.3f ns; forwarding-chain tax upper bound "
              "%.0f ns / %.0f ns = %.2f%% "
              "(event kernel: 0 hooks, 0.00%%)" %
              (pair_ns, guard_ns, metric_ns, tax_ns, forward_ns,
               ratio * 100.0))
        if ratio > args.obs_tolerance:
            sys.exit("obs overhead check FAILED: %.2f%% > %.0f%% budget" %
                     (ratio * 100.0, args.obs_tolerance * 100.0))
        print("obs overhead check passed: %.2f%% <= %.0f%% budget" %
              (ratio * 100.0, args.obs_tolerance * 100.0))
        return

    if not os.path.exists(args.bench_binary):
        sys.exit("bench binary not found: %s (build Release first)" %
                 args.bench_binary)

    print("running %s (%d interleaved repetitions, min_time=%gs each)..." %
          (args.bench_binary, args.repetitions, args.min_time),
          file=sys.stderr)
    results = run_microbench(args.bench_binary, args.repetitions,
                             args.min_time)
    derived = derive(results)

    study = None
    scaling = None
    if args.study:
        sweep = [args.threads]
        if args.threads_sweep:
            sweep = [int(t) for t in args.threads_sweep.split(",") if t]
        scaling = {}
        digests = {}
        peak_rss_kb = 0
        runs = max(1, args.scaling_runs) if args.threads_sweep else 1
        for threads in sweep:
            best = None
            for rep in range(runs):
                print("running full study (seed=%d, threads=%d, run %d/%d)"
                      "..." % (args.seed, threads, rep + 1, runs),
                      file=sys.stderr)
                wall, digest, rss_kb = run_study(args.realdata_binary,
                                                 args.seed, threads)
                peak_rss_kb = max(peak_rss_kb, rss_kb)
                if threads in digests and digests[threads] != digest:
                    sys.exit("FATAL: cache md5 differs between repeat runs "
                             "at threads=%d" % threads)
                digests[threads] = digest
                best = wall if best is None else min(best, wall)
            scaling[threads] = round(best, 1)
            print("  threads=%d wall=%.1fs (min of %d) md5=%s" %
                  (threads, scaling[threads], runs, digests[threads]),
                  file=sys.stderr)
        if len(set(digests.values())) != 1:
            sys.exit("FATAL: cache md5 differs across thread counts: %r" %
                     digests)
        study = {"seed": args.seed, "threads": args.threads,
                 "wall_seconds": scaling.get(args.threads,
                                             scaling[sweep[0]]),
                 "cache_md5": digests[sweep[0]],
                 "cache_md5s": {str(t): digests[t] for t in sweep},
                 "peak_rss_kb": peak_rss_kb,
                 "runs_per_point": runs}

    for name in TRACKED + [CALIBRATION]:
        if name in results:
            print("%-32s %12.0f ns" % (name, results[name]))
    for k, v in sorted(derived.items()):
        print("%-32s %12.1f" % (k, v))
    if study:
        print("study wall %.1fs  peak rss %d KiB  cache md5 %s" %
              (study["wall_seconds"], study["peak_rss_kb"],
               study["cache_md5"]))
        if scaling and len(scaling) > 1:
            base = scaling[max(scaling)]
            for t in sorted(scaling):
                print("  scaling threads=%-2d wall %6.1fs  (%.2fx vs widest)"
                      % (t, scaling[t], scaling[t] / base))

    if args.check:
        committed = json.load(open(args.baseline))
        cal_committed = committed["benchmarks"][CALIBRATION]["after_ns"]
        cal_measured = results[CALIBRATION]
        scale = cal_measured / cal_committed
        print("calibration scale %.2fx (machine vs committed baseline)" %
              scale, file=sys.stderr)
        failures = []
        for name in TRACKED:
            entry = committed["benchmarks"].get(name)
            if entry is None or name not in results:
                continue
            allowed = entry["after_ns"] * scale * (1.0 + args.tolerance)
            if results[name] > allowed:
                failures.append(
                    "%s: %.0f ns > allowed %.0f ns (committed %.0f ns x "
                    "%.2f scale x %.0f%% tolerance)" %
                    (name, results[name], allowed, entry["after_ns"], scale,
                     (1.0 + args.tolerance) * 100))
        if args.study and study is not None:
            committed_study = committed.get("study", {})
            # The md5 is thread-invariant by design: compare unconditionally.
            want = committed_study.get("cache_md5")
            if want and study["cache_md5"] != want:
                failures.append(
                    "study output changed: cache md5 %s != committed %s" %
                    (study["cache_md5"], want))
            # Peak RSS does not scale with CPU speed, so it is compared
            # without the calibration rescale, under its own (looser)
            # tolerance: a memory regression on a study run means the
            # streaming discipline broke somewhere.
            want_rss = committed_study.get("peak_rss_kb")
            if want_rss and study["peak_rss_kb"] > 0:
                allowed_rss = want_rss * (1.0 + args.rss_tolerance)
                if study["peak_rss_kb"] > allowed_rss:
                    failures.append(
                        "study peak RSS: %d KiB > allowed %.0f KiB "
                        "(committed %d KiB x %.0f%% tolerance)" %
                        (study["peak_rss_kb"], allowed_rss, want_rss,
                         (1.0 + args.rss_tolerance) * 100))
            # Wall time is NOT thread-invariant: only gate a measured run
            # against the committed number for the same thread count.
            committed_scaling = committed_study.get("scaling", {})
            # New schema nests walls under "walls" (beside "cores"); the
            # pre-rework flat {threads: wall} map is still accepted.
            committed_walls = committed_scaling.get("walls",
                                                    committed_scaling)
            for threads, wall in (scaling or {}).items():
                want_wall = committed_walls.get(str(threads))
                if want_wall is None:
                    continue
                allowed = want_wall * scale * (1.0 + args.tolerance)
                if wall > allowed:
                    failures.append(
                        "study wall (threads=%d): %.1fs > allowed %.1fs "
                        "(committed %.1fs x %.2f scale x %.0f%% tolerance)" %
                        (threads, wall, allowed, want_wall, scale,
                         (1.0 + args.tolerance) * 100))
        if failures:
            print("REGRESSION:", file=sys.stderr)
            for f in failures:
                print("  " + f, file=sys.stderr)
            sys.exit(1)
        print("check passed: no benchmark regressed beyond %.0f%%" %
              (args.tolerance * 100))

    if args.update:
        doc = json.load(open(args.baseline)) if os.path.exists(
            args.baseline) else {"benchmarks": {}}
        for name, ns in results.items():
            entry = doc["benchmarks"].setdefault(name, {})
            entry["after_ns"] = round(ns, 1)
            if "before_ns" in entry:
                entry["speedup"] = round(entry["before_ns"] / ns, 2)
        doc["derived_after"] = {k: round(v, 1) for k, v in derived.items()}
        if study is not None:
            doc.setdefault("study", {}).update({
                "seed": study["seed"], "threads": study["threads"],
                "after_wall_seconds": study["wall_seconds"],
                "cache_md5": study["cache_md5"],
                "peak_rss_kb": study["peak_rss_kb"],
            })
            if "before_wall_seconds" in doc["study"]:
                before = doc["study"]["before_wall_seconds"]
                doc["study"]["wall_reduction_percent"] = round(
                    100.0 * (before - study["wall_seconds"]) / before, 1)
            if scaling:
                # The curve is only interpretable next to the machine that
                # produced it: record the runner's core count and the
                # min-of-N methodology beside the walls. Per-thread md5s
                # are redundant (the sweep fails if they diverge) but make
                # the determinism claim auditable from the JSON alone.
                doc["study"]["scaling"] = {
                    "cores": os.cpu_count() or 1,
                    "runs_per_point": study.get("runs_per_point", 1),
                    "walls": {str(t): w for t, w in sorted(scaling.items())},
                    "cache_md5s": study.get("cache_md5s", {}),
                }
        json.dump(doc, open(args.baseline, "w"), indent=2, sort_keys=True)
        open(args.baseline, "a").write("\n")
        print("updated %s" % args.baseline)


if __name__ == "__main__":
    main()
