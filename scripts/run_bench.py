#!/usr/bin/env python3
"""Benchmark harness for the simulation fast path.

Runs the Google-benchmark microbench binary several times, keeps the
per-benchmark minimum (the least-noise estimator on shared/virtualised
hardware), derives the headline metrics (ns/event, packets/sec), and
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
             mini-study at 1 and 2 threads (min-of-N walls), fail if the
             md5s differ, and on machines with >= 2 cores fail unless 2
             threads actually beat 1 (--scaling-speedup). Single-core
             runners skip the wall gate explicitly — a scaling number
             measured there would be noise, not signal.
  --obs-overhead-check
             cheap CI gate for the tracing hooks: measure the disabled-hook
             cost (BM_ObsHookDisabled) and fail if the worst-case hook tax
             on the packet-forwarding hot path exceeds --obs-tolerance
             (default 2%). Runs only the three benchmarks it needs.
  --trace-smoke
             cheap CI gate for --trace: run a mini-study with and without
             --trace, validate the emitted Chrome trace JSON, check the
             cache md5 is identical either way, and check that malformed
             numeric flags exit non-zero. Needs only the realdata binary.
  --telemetry-smoke
             cheap CI gate for the time-series sampler: run a mini-study
             with --telemetry --series-csv --trace --profile, validate the
             CSV schema, check the series bytes are identical at 1 and 2
             threads, check the Chrome trace carries "C" counter tracks,
             check the cache md5 is identical with telemetry off/on, and
             check strict telemetry-flag parsing exits non-zero. Needs only
             the realdata binary.
  --cc-smoke
             cheap CI gate for pluggable congestion control: check that
             malformed --cc values exit non-zero, that an explicit
             `--cc reno` mini-study is byte-identical to the default (the
             plug-in seam must not perturb the committed study), and run
             the single-cell bench_ablation_cc --quick grid, asserting BBR
             out-delivers Reno under 5% random loss (the paper-facing
             ordering). Needs the realdata and bench_ablation_cc binaries.
  --cc-grid
             run the full bench_ablation_cc loss x jitter grid (minutes)
             and rewrite the `cc_grid` section of BENCH_sim.json with the
             per-backend goodput/CV cells and tracer rebuffer rates.
  --shard-smoke
             cheap CI gate for multi-process sharding: run a smoke-scale
             campaign once single-process and once as 4 shards, merge the
             shards with rvmerge, and fail unless the merged rollup.bin and
             records.spill are byte-identical to the single-process files.
             Also checks that a gap in the shard sequence is a hard merge
             error, that strict --plays-scale/--shard/--spill-dir/
             --cache-dir parsing exits 2, and that --cache-dir actually
             redirects the study cache. Needs realdata and rvmerge.
  --status-smoke
             cheap CI gate for live observability: check strict
             --status-port/--status-hold-ms/--heartbeat-dir parsing exits 2
             (including an unwritable heartbeat dir), start a smoke-scale
             campaign with --status-port 0, poll /progress until done=true,
             validate /metrics parses as Prometheus text exposition and
             /healthz answers, check the final heartbeat reports done and
             `rvmerge --status` renders it, check a synthesized dead shard
             is reported DEAD with exit 1, and fail unless the campaign
             rollup/spill and the study cache are byte-identical with the
             exporter on and off. Needs realdata and rvmerge.
  --campaign
             run a full campaign (hours at the default --campaign-scale 350
             ~= 1M plays, --campaign-watch 5) and rewrite the `campaign`
             section of BENCH_sim.json with plays/s/core and the campaign
             process's peak RSS — the bounded-memory headline numbers.

With no mode flag it measures and prints, changing nothing.

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
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BENCH = os.path.join(REPO_ROOT, "build", "bench", "bench_microbench")
DEFAULT_CC_BENCH = os.path.join(REPO_ROOT, "build", "bench",
                                "bench_ablation_cc")
DEFAULT_REALDATA = os.path.join(REPO_ROOT, "build", "tools", "realdata")
DEFAULT_RVMERGE = os.path.join(REPO_ROOT, "build", "tools", "rvmerge")
DEFAULT_JSON = os.path.join(REPO_ROOT, "BENCH_sim.json")

# Benchmarks tracked for regressions. BM_CdfBuildAndQuery is the calibration
# reference and is exempt from the regression gate itself.
TRACKED = [
    "BM_SimulatorScheduleRun",
    "BM_SimulatorCancelHeavy",
    "BM_SimulatorTimerChurn",
    "BM_SimulatorTimerChurn/64k",
    "BM_SimulatorWheelCascade",
    "BM_PacketForwardingChain/2",
    "BM_PacketForwardingChain/8",
    "BM_LinkBurstForward",
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
    """Runs the bench binary `repetitions` times; returns {name: min_ns}."""
    best = {}
    for rep in range(repetitions):
        with tempfile.NamedTemporaryFile(mode="r", suffix=".json") as out:
            cmd = [
                binary,
                "--benchmark_format=console",
                "--benchmark_out_format=json",
                "--benchmark_out=%s" % out.name,
                "--benchmark_min_time=%g" % min_time,
            ]
            if bench_filter:
                cmd.append("--benchmark_filter=%s" % bench_filter)
            subprocess.run(
                cmd, check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            data = json.load(open(out.name))
        for b in data.get("benchmarks", []):
            name = b["name"]
            # JSON reports real_time in the benchmark's display unit.
            unit = b.get("time_unit", "ns")
            to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
            assert unit in to_ns, "%s: unknown time unit %r" % (name, unit)
            ns = float(b["real_time"]) * to_ns[unit]
            if name not in best or ns < best[name]:
                best[name] = ns
        print("  rep %d/%d done" % (rep + 1, repetitions), file=sys.stderr)
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


def md5_file(path):
    return hashlib.md5(open(path, "rb").read()).hexdigest()


def study_cache_md5(cwd):
    """md5 of the single study cache file under cwd's default ./.rv_cache."""
    cache_dir = os.path.join(cwd, ".rv_cache")
    caches = (sorted(f for f in os.listdir(cache_dir)
                     if f.endswith(".cache"))
              if os.path.isdir(cache_dir) else [])
    if len(caches) != 1:
        raise RuntimeError("expected one .cache file under %s, got %r" %
                           (cache_dir, caches))
    return md5_file(os.path.join(cache_dir, caches[0]))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-binary", default=DEFAULT_BENCH)
    ap.add_argument("--realdata-binary", default=DEFAULT_REALDATA)
    ap.add_argument("--baseline", default=DEFAULT_JSON,
                    help="path to BENCH_sim.json")
    ap.add_argument("--repetitions", type=int, default=5,
                    help="external repetitions; per-benchmark minimum is kept")
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
    ap.add_argument("--smoke-scale", type=float, default=0.02,
                    help="play_scale for the mini-study smokes")
    ap.add_argument("--scaling-smoke", action="store_true",
                    help="run a mini-study at 1 and 2 threads (min of "
                         "--scaling-runs each); fail if the md5s differ, "
                         "and — on multi-core machines only — fail unless "
                         "2 threads beat 1 by --scaling-speedup. On a "
                         "single-core runner the wall gate is skipped (and "
                         "says so): there is nothing to scale onto")
    ap.add_argument("--scaling-scale", type=float, default=0.05,
                    help="play_scale for --scaling-smoke (bigger than "
                         "--smoke-scale so the speedup is measurable)")
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
    ap.add_argument("--trace-smoke", action="store_true",
                    help="run a mini-study with --trace; validate the JSON, "
                         "cache-md5 invariance, and strict flag parsing")
    ap.add_argument("--telemetry-smoke", action="store_true",
                    help="run a mini-study with the time-series sampler on; "
                         "validate the series CSV, thread-count byte-"
                         "identity, Chrome counter tracks, cache-md5 "
                         "invariance, and strict flag parsing")
    ap.add_argument("--cc-bench-binary", default=DEFAULT_CC_BENCH)
    ap.add_argument("--cc-smoke", action="store_true",
                    help="validate strict --cc parsing, the --cc reno "
                         "byte-identity invariant, and the quick CC-grid "
                         "ordering (BBR > Reno under random loss)")
    ap.add_argument("--cc-grid", action="store_true",
                    help="run the full CC loss x jitter grid (minutes) and "
                         "rewrite the cc_grid section of BENCH_sim.json")
    ap.add_argument("--rss-tolerance", type=float, default=0.30,
                    help="--check fails if the study's peak RSS exceeds the "
                         "committed number by more than this fraction")
    ap.add_argument("--rvmerge-binary", default=DEFAULT_RVMERGE)
    ap.add_argument("--status-smoke", action="store_true",
                    help="strict status-flag parsing, live /metrics and "
                         "/progress endpoints, heartbeats + rvmerge "
                         "--status, and exporter-on/off byte identity")
    ap.add_argument("--shard-smoke", action="store_true",
                    help="run a smoke-scale campaign single-process and as "
                         "4 merged shards; fail unless the merged rollup "
                         "and spill are byte-identical to the single-"
                         "process files, and check strict campaign/cache "
                         "flag parsing exits 2")
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
        digests = {}
        for threads in (1, 2):
            best = None
            for rep in range(max(1, args.scaling_runs)):
                wall, digest, _ = run_study(args.realdata_binary, args.seed,
                                            threads, scale=args.scaling_scale)
                if threads in digests and digests[threads] != digest:
                    sys.exit("scaling smoke FAILED: md5 differs between "
                             "repeat runs at threads=%d (%s vs %s)" %
                             (threads, digests[threads], digest))
                digests[threads] = digest
                best = wall if best is None else min(best, wall)
            walls[threads] = best
            print("scaling smoke threads=%d wall=%.1fs (min of %d) md5=%s" %
                  (threads, walls[threads], max(1, args.scaling_runs),
                   digests[threads]), file=sys.stderr)
        if digests[1] != digests[2]:
            sys.exit("scaling smoke FAILED: 1-thread md5 %s != 2-thread "
                     "md5 %s (scale=%g seed=%d)" %
                     (digests[1], digests[2], args.scaling_scale, args.seed))
        if cores < 2:
            print("scaling smoke passed: md5 invariant (md5 %s); wall gate "
                  "SKIPPED — single-core runner (cores=%d), 2 workers have "
                  "nothing to scale onto (walls 1t=%.1fs 2t=%.1fs)" %
                  (digests[1], cores, walls[1], walls[2]))
            return
        speedup = walls[1] / walls[2] if walls[2] > 0 else 0.0
        if speedup < args.scaling_speedup:
            sys.exit("scaling smoke FAILED: 2-thread speedup %.2fx < "
                     "required %.2fx on a %d-core machine "
                     "(walls 1t=%.1fs 2t=%.1fs)" %
                     (speedup, args.scaling_speedup, cores,
                      walls[1], walls[2]))
        print("scaling smoke passed: md5 invariant (md5 %s), 2-thread "
              "speedup %.2fx >= %.2fx on %d cores" %
              (digests[1], speedup, args.scaling_speedup, cores))
        return

    if args.trace_smoke:
        if not os.path.exists(args.realdata_binary):
            sys.exit("realdata binary not found: %s (build Release first)" %
                     args.realdata_binary)
        # Malformed numeric flags must exit non-zero, not silently truncate.
        for bad in (["summary", "--seed=20o1"],
                    ["summary", "--scale=0.5x"],
                    ["summary", "--trace"]):  # --trace needs a path
            proc = subprocess.run(
                [args.realdata_binary] + bad, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            if proc.returncode == 0:
                sys.exit("trace smoke FAILED: %r exited 0, expected a "
                         "non-zero strict-parsing failure" % bad)
        scratch = tempfile.mkdtemp(prefix="rv_trace_smoke_")
        try:
            digests = {}
            trace_doc = None
            for traced in (False, True):
                cmd = [args.realdata_binary, "summary",
                       "--seed", str(args.seed), "--threads", "2",
                       "--scale", "%g" % args.smoke_scale]
                if traced:
                    cmd += ["--trace", "trace.json"]
                subprocess.run(cmd, check=True, cwd=scratch,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
                digests[traced] = study_cache_md5(scratch)
                if traced:
                    trace_doc = json.load(
                        open(os.path.join(scratch, "trace.json")))
            if digests[False] != digests[True]:
                sys.exit("trace smoke FAILED: cache md5 with tracing on %s "
                         "!= off %s — observation perturbed the study" %
                         (digests[True], digests[False]))
            events = trace_doc.get("traceEvents")
            if not isinstance(events, list) or not events:
                sys.exit("trace smoke FAILED: trace.json has no traceEvents")
            phases = {e.get("ph") for e in events}
            if not phases & {"B", "i", "X"}:
                sys.exit("trace smoke FAILED: no span/instant events in "
                         "trace.json (phases seen: %r)" % sorted(phases))
            print("trace smoke passed: %d trace events, cache md5 invariant "
                  "under tracing (md5 %s), strict flags exit non-zero" %
                  (len(events), digests[False]))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return

    if args.telemetry_smoke:
        if not os.path.exists(args.realdata_binary):
            sys.exit("realdata binary not found: %s (build Release first)" %
                     args.realdata_binary)
        # Strictly validated telemetry flags must exit non-zero.
        for bad in (["summary", "--telemetry-interval-ms=0"],
                    ["summary", "--telemetry-interval-ms=5o0"],
                    ["summary", "--trace", "t.json", "--trace-play=1,2,3"],
                    ["summary", "--trace", "t.json", "--trace-play=-1,2"],
                    ["summary", "--series-csv"],   # needs a path
                    ["summary", "--flight-dir"]):  # needs a path
            proc = subprocess.run(
                [args.realdata_binary] + bad, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            if proc.returncode == 0:
                sys.exit("telemetry smoke FAILED: %r exited 0, expected a "
                         "non-zero strict-parsing failure" % bad)
        expected_header = ("user_id,record_slot,clip_id,server,t_usec,"
                           "buffer_sec,fps,bandwidth_kbps,cwnd_bytes,"
                           "retx_per_sec,pacing_kbps,cc_state,"
                           "access_occupancy,access_drops,"
                           "isp-uplink_occupancy,isp-uplink_drops,"
                           "wan-corridor_occupancy,wan-corridor_drops,"
                           "server-access_occupancy,server-access_drops")
        scratch = tempfile.mkdtemp(prefix="rv_telemetry_smoke_")
        try:
            digests = {}
            series_bytes = {}
            for mode in ("off", "t1", "t2"):
                cmd = [args.realdata_binary, "summary",
                       "--seed", str(args.seed),
                       "--threads", "1" if mode == "t1" else "2",
                       "--scale", "%g" % args.smoke_scale]
                if mode != "off":
                    cmd += ["--telemetry",
                            "--series-csv", "series_%s.csv" % mode,
                            "--trace", "trace_%s.json" % mode, "--profile"]
                out = subprocess.run(
                    cmd, check=True, cwd=scratch, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL).stdout.decode()
                digests[mode] = study_cache_md5(scratch)
                if mode != "off":
                    series_bytes[mode] = open(
                        os.path.join(scratch, "series_%s.csv" % mode),
                        "rb").read()
                    for marker in ("Telemetry rollup", "bottleneck",
                                   "Study profile", "worker"):
                        if marker not in out:
                            sys.exit("telemetry smoke FAILED: %r missing "
                                     "from summary output (mode %s)" %
                                     (marker, mode))
            if len(set(digests.values())) != 1:
                sys.exit("telemetry smoke FAILED: cache md5 not invariant "
                         "under telemetry/threads: %r — sampling perturbed "
                         "the study" % digests)
            header = series_bytes["t2"].split(b"\n", 1)[0].decode()
            if header != expected_header:
                sys.exit("telemetry smoke FAILED: series CSV header\n  %s\n"
                         "!= expected\n  %s" % (header, expected_header))
            if len(series_bytes["t2"].splitlines()) < 2:
                sys.exit("telemetry smoke FAILED: series CSV has no samples")
            if series_bytes["t1"] != series_bytes["t2"]:
                sys.exit("telemetry smoke FAILED: series CSV differs "
                         "between 1 and 2 threads")
            trace_doc = json.load(
                open(os.path.join(scratch, "trace_t2.json")))
            events = trace_doc.get("traceEvents")
            if not isinstance(events, list) or not events:
                sys.exit("telemetry smoke FAILED: trace_t2.json has no "
                         "traceEvents")
            counter_names = {e.get("name") for e in events
                             if e.get("ph") == "C"}
            for want in ("buffer_sec", "fps", "bandwidth_kbps",
                         "access_occupancy"):
                if want not in counter_names:
                    sys.exit("telemetry smoke FAILED: no %r counter track "
                             "in trace (C-phase names: %r)" %
                             (want, sorted(counter_names)))
            print("telemetry smoke passed: cache md5 invariant (md5 %s), "
                  "series CSV byte-identical at 1/2 threads (%d bytes), "
                  "%d counter tracks in the Chrome trace, strict flags "
                  "exit non-zero" %
                  (digests["off"], len(series_bytes["t2"]),
                   len(counter_names)))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return

    if args.cc_smoke:
        if not os.path.exists(args.realdata_binary):
            sys.exit("realdata binary not found: %s (build Release first)" %
                     args.realdata_binary)
        if not os.path.exists(args.cc_bench_binary):
            sys.exit("cc bench binary not found: %s (build Release first)" %
                     args.cc_bench_binary)
        # Strict --cc parsing: unknown algorithms, wrong case, and a
        # missing value must all exit non-zero rather than fall back.
        for bad in (["summary", "--cc", "newreno"],
                    ["summary", "--cc", "Reno"],
                    ["summary", "--cc"]):
            proc = subprocess.run(
                [args.realdata_binary] + bad, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            if proc.returncode == 0:
                sys.exit("cc smoke FAILED: %r exited 0, expected a "
                         "non-zero strict-parsing failure" % bad)
        # The CC seam must be invisible when it selects the incumbent:
        # an explicit `--cc reno` study must be byte-identical to the
        # default-configured one.
        scratch = tempfile.mkdtemp(prefix="rv_cc_smoke_")
        try:
            digests = {}
            for cc in (None, "reno"):
                for f in os.listdir(scratch):
                    path = os.path.join(scratch, f)
                    if os.path.isdir(path):
                        shutil.rmtree(path)
                    else:
                        os.unlink(path)
                cmd = [args.realdata_binary, "summary",
                       "--seed", str(args.seed), "--threads", "2",
                       "--scale", "%g" % args.smoke_scale]
                if cc:
                    cmd += ["--cc", cc]
                subprocess.run(cmd, check=True, cwd=scratch,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
                digests[cc] = study_cache_md5(scratch)
            if digests[None] != digests["reno"]:
                sys.exit("cc smoke FAILED: --cc reno cache md5 %s != "
                         "default %s — the CC seam perturbed the study" %
                         (digests["reno"], digests[None]))
            # Single-cell grid: under 5% random (non-congestive) loss the
            # model-based controller must clearly out-deliver the
            # loss-based one — the ordering the whole ablation exists to
            # demonstrate. The quick cell is deterministic (one seed).
            grid_path = os.path.join(scratch, "cc_quick.json")
            subprocess.run(
                [args.cc_bench_binary, "--quick",
                 "--grid-json=" + grid_path,
                 "--benchmark_filter=nonexistent"],
                check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            grid = json.load(open(grid_path))["grid"]
            cell = "loss05_jitter00"
            goodput = {cc: grid[cc][cell]["goodput"]
                       for cc in ("reno", "cubic", "bbr")}
            for cc, v in goodput.items():
                if v <= 0:
                    sys.exit("cc smoke FAILED: %s goodput %r at %s — "
                             "transfer did not run" % (cc, v, cell))
            if goodput["bbr"] < 2.0 * goodput["reno"]:
                sys.exit("cc smoke FAILED: bbr goodput %.0f < 2x reno "
                         "%.0f at 5%% random loss — the model-based "
                         "controller lost its headroom" %
                         (goodput["bbr"], goodput["reno"]))
            print("cc smoke passed: strict --cc flags exit non-zero, "
                  "--cc reno study byte-identical to default (md5 %s), "
                  "quick grid bbr/reno = %.1fx at 5%% loss" %
                  (digests[None], goodput["bbr"] / goodput["reno"]))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return

    if args.shard_smoke:
        for binary in (args.realdata_binary, args.rvmerge_binary):
            if not os.path.exists(binary):
                sys.exit("binary not found: %s (build Release first)" %
                         binary)
        # Strict campaign/cache flag parsing: each of these must exit 2
        # (the CLI-validation convention), not 0 and not a crash.
        for bad in (["campaign", "--plays-scale", "0"],
                    ["campaign", "--plays-scale", "3x"],
                    ["campaign", "--shard", "4/4"],
                    ["campaign", "--shard", "1-4"],
                    ["campaign", "--shard", "0/0"],
                    ["campaign", "--spill-dir"],   # needs a directory
                    ["campaign", "--chunk-users", "0"],
                    ["campaign", "--watch", "0"],
                    ["summary", "--cache-dir"]):   # needs a directory
            proc = subprocess.run(
                [args.realdata_binary] + bad, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            if proc.returncode != 2:
                sys.exit("shard smoke FAILED: %r exited %d, expected the "
                         "strict-parsing exit code 2" %
                         (bad, proc.returncode))
        scratch = tempfile.mkdtemp(prefix="rv_shard_smoke_")
        try:
            # --cache-dir must redirect the study cache (and only that).
            cache_dir = os.path.join(scratch, "alt_cache")
            subprocess.run(
                [args.realdata_binary, "summary", "--seed", str(args.seed),
                 "--threads", "2", "--scale", "%g" % args.smoke_scale,
                 "--cache-dir", cache_dir],
                check=True, cwd=scratch, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            if not [f for f in os.listdir(cache_dir)
                    if f.endswith(".cache")]:
                sys.exit("shard smoke FAILED: --cache-dir %s holds no "
                         ".cache file" % cache_dir)
            if os.path.isdir(os.path.join(scratch, ".rv_cache")):
                sys.exit("shard smoke FAILED: --cache-dir run also wrote "
                         "the default ./.rv_cache/")

            # Smoke campaign: single process vs 4 merged shards must agree
            # byte-for-byte on both the rollup and the spill.
            shards = 4
            base_cmd = [args.realdata_binary, "campaign",
                        "--seed", str(args.seed), "--threads", "2",
                        "--scale", "%g" % args.smoke_scale,
                        "--plays-scale", "2", "--watch", "2"]
            whole_dir = os.path.join(scratch, "whole")
            subprocess.run(base_cmd + ["--spill-dir", whole_dir],
                           check=True, cwd=scratch,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            shard_dirs = []
            for i in range(shards):
                shard_dir = os.path.join(scratch, "shard%d" % i)
                subprocess.run(
                    base_cmd + ["--shard", "%d/%d" % (i, shards),
                                "--spill-dir", shard_dir],
                    check=True, cwd=scratch, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
                shard_dirs.append(shard_dir)
            merged_dir = os.path.join(scratch, "merged")
            merge = subprocess.run(
                [args.rvmerge_binary] + shard_dirs +
                ["--out", merged_dir, "--report"],
                cwd=scratch, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT)
            if merge.returncode != 0:
                sys.exit("shard smoke FAILED: rvmerge exited %d:\n%s" %
                         (merge.returncode, merge.stdout.decode()))
            for name in ("rollup.bin", "records.spill"):
                want = md5_file(os.path.join(whole_dir, name))
                got = md5_file(os.path.join(merged_dir, name))
                if want != got:
                    sys.exit("shard smoke FAILED: merged %s md5 %s != "
                             "single-process %s — the %d-shard merge is "
                             "not byte-identical" % (name, got, want,
                                                     shards))
            # A missing middle shard must be a hard merge error.
            gap = subprocess.run(
                [args.rvmerge_binary, shard_dirs[0], shard_dirs[2],
                 "--out", os.path.join(scratch, "gap")],
                cwd=scratch, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            if gap.returncode == 0:
                sys.exit("shard smoke FAILED: merging shards 0 and 2 "
                         "without 1 exited 0; contiguity is not enforced")
            print("shard smoke passed: %d-shard merge byte-identical to "
                  "single process (rollup md5 %s, spill md5 %s), gap "
                  "merge rejected, strict flags exit 2" %
                  (shards, md5_file(os.path.join(merged_dir, "rollup.bin")),
                   md5_file(os.path.join(merged_dir, "records.spill"))))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return

    if args.status_smoke:
        for binary in (args.realdata_binary, args.rvmerge_binary):
            if not os.path.exists(binary):
                sys.exit("binary not found: %s (build Release first)" %
                         binary)
        # Strict observability-flag parsing: exit 2, the CLI convention.
        for bad in (["summary", "--status-port", "70000"],
                    ["summary", "--status-port", "abc"],
                    ["summary", "--status-port"],      # needs a value
                    ["summary", "--status-port=0", "--status-hold-ms=-5"],
                    ["campaign", "--heartbeat-dir"],   # needs a directory
                    ["--status"]):                     # rvmerge: needs a dir
            binary = (args.rvmerge_binary if bad[0].startswith("--status")
                      else args.realdata_binary)
            proc = subprocess.run(
                [binary] + bad, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            if proc.returncode != 2:
                sys.exit("status smoke FAILED: %r exited %d, expected the "
                         "strict-parsing exit code 2" %
                         (bad, proc.returncode))
        scratch = tempfile.mkdtemp(prefix="rv_status_smoke_")
        try:
            # An unwritable --heartbeat-dir must fail fast with exit 2.
            blocker = os.path.join(scratch, "blocker")
            with open(blocker, "w") as f:
                f.write("not a directory\n")
            proc = subprocess.run(
                [args.realdata_binary, "campaign", "--scale", "0.01",
                 "--heartbeat-dir", os.path.join(blocker, "hb")],
                cwd=scratch, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            if proc.returncode != 2:
                sys.exit("status smoke FAILED: unwritable --heartbeat-dir "
                         "exited %d, expected 2" % proc.returncode)

            # Live campaign with the exporter: poll /progress to completion,
            # then validate /metrics and /healthz during --status-hold-ms.
            base_cmd = [args.realdata_binary, "campaign",
                        "--seed", str(args.seed), "--threads", "2",
                        "--scale", "%g" % args.smoke_scale,
                        "--plays-scale", "2", "--watch", "2"]
            hb_dir = os.path.join(scratch, "hb")
            spill_on = os.path.join(scratch, "spill_on")
            child = subprocess.Popen(
                base_cmd + ["--spill-dir", spill_on, "--status-port", "0",
                            "--status-hold-ms", "4000",
                            "--heartbeat-dir", hb_dir],
                cwd=scratch, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True)
            stderr_lines = []
            port_box = {}
            port_seen = threading.Event()

            def drain():
                for line in child.stderr:
                    stderr_lines.append(line)
                    m = re.search(r"http://127\.0\.0\.1:(\d+)/", line)
                    if m and "port" not in port_box:
                        port_box["port"] = int(m.group(1))
                        port_seen.set()
                port_seen.set()

            drainer = threading.Thread(target=drain)
            drainer.start()
            port_seen.wait(30)
            if "port" not in port_box:
                child.kill()
                drainer.join()
                sys.exit("status smoke FAILED: realdata never announced a "
                         "status port on stderr:\n%s" % "".join(stderr_lines))
            port = port_box["port"]

            def fetch(path):
                url = "http://127.0.0.1:%d%s" % (port, path)
                with urllib.request.urlopen(url, timeout=5) as resp:
                    return (resp.status,
                            resp.headers.get("Content-Type", ""),
                            resp.read().decode())

            progress = None
            ctype = ""
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                try:
                    _, ctype, body = fetch("/progress")
                except (urllib.error.URLError, OSError, ConnectionError):
                    time.sleep(0.1)
                    continue
                progress = json.loads(body)
                if progress.get("done"):
                    break
                time.sleep(0.2)
            if not progress or not progress.get("done"):
                child.kill()
                drainer.join()
                sys.exit("status smoke FAILED: /progress never reported "
                         "done=true (last: %r)" % (progress,))
            if "application/json" not in ctype:
                sys.exit("status smoke FAILED: /progress content-type %r" %
                         ctype)
            for key in ("plays", "users_done", "users_total",
                        "plays_per_sec", "eta_seconds", "shard_index",
                        "rss_kb"):
                if key not in progress:
                    sys.exit("status smoke FAILED: /progress is missing "
                             "%r: %r" % (key, progress))

            _, ctype, metrics_text = fetch("/metrics")
            if "text/plain" not in ctype or "version=0.0.4" not in ctype:
                sys.exit("status smoke FAILED: /metrics content-type %r" %
                         ctype)
            # Every non-comment line must be `name[{labels}] value` — the
            # Prometheus text exposition sample shape.
            sample_re = re.compile(
                r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
                r"(NaN|[+-]?Inf|[-+0-9.eE]+)$")
            for i, line in enumerate(metrics_text.splitlines()):
                if not line or line.startswith("#"):
                    continue
                if not sample_re.match(line):
                    sys.exit("status smoke FAILED: /metrics line %d does "
                             "not parse: %r" % (i + 1, line))
            for family in ("rv_plays_completed_total",
                           "rv_users_completed_total",
                           "rv_spill_bytes_written_total",
                           "rv_play_fps_bucket",
                           "rv_resident_memory_kilobytes"):
                if family not in metrics_text:
                    sys.exit("status smoke FAILED: /metrics is missing the "
                             "%s family" % family)
            _, _, health = fetch("/healthz")
            if "ok" not in health:
                sys.exit("status smoke FAILED: /healthz answered %r" %
                         health)

            child.wait(timeout=120)
            drainer.join()
            if child.returncode != 0:
                sys.exit("status smoke FAILED: campaign exited %d:\n%s" %
                         (child.returncode, "".join(stderr_lines)))
            # The stderr progress line must carry the same rate/ETA feed.
            if not any("plays/s" in line for line in stderr_lines):
                sys.exit("status smoke FAILED: stderr progress line has no "
                         "plays/s rate:\n%s" % "".join(stderr_lines))

            # Final heartbeat says done; rvmerge --status agrees (exit 0).
            hb_doc = json.load(open(os.path.join(hb_dir,
                                                 "heartbeat-0.json")))
            if hb_doc.get("status") != "done":
                sys.exit("status smoke FAILED: final heartbeat status %r" %
                         hb_doc.get("status"))
            status_run = subprocess.run(
                [args.rvmerge_binary, "--status", hb_dir],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if status_run.returncode != 0 or "done" not in status_run.stdout:
                sys.exit("status smoke FAILED: rvmerge --status exited %d:"
                         "\n%s" % (status_run.returncode, status_run.stdout))

            # A deliberately dead shard (ancient heartbeat, no such pid)
            # must render DEAD / need-attention with exit 1.
            dead_dir = os.path.join(scratch, "hb_dead")
            os.makedirs(dead_dir)

            def hb_json(i, n, pid, ts, status):
                return ('{"schema":"rv-heartbeat-v1","shard_index":%d,'
                        '"shard_count":%d,"pid":%d,"timestamp_unix":%.1f,'
                        '"status":"%s","users_done":5,"users_total":10,'
                        '"plays":50,"last_fold_user":5,"plays_per_sec":1.5,'
                        '"rss_kb":1000,"seed":%d}\n' %
                        (i, n, pid, ts, status, args.seed))

            now = time.time()
            with open(os.path.join(dead_dir, "heartbeat-0.json"), "w") as f:
                f.write(hb_json(0, 2, os.getpid(), now, "running"))
            with open(os.path.join(dead_dir, "heartbeat-1.json"), "w") as f:
                f.write(hb_json(1, 2, 2 ** 22 + 12345, now - 3600,
                                "running"))
            dead_run = subprocess.run(
                [args.rvmerge_binary, "--status", dead_dir,
                 "--stale-after", "15"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if (dead_run.returncode != 1 or "DEAD" not in dead_run.stdout or
                    "need attention" not in dead_run.stdout):
                sys.exit("status smoke FAILED: dead shard not reported "
                         "(exit %d):\n%s" % (dead_run.returncode,
                                             dead_run.stdout))

            # Byte identity: the same campaign without any status flags must
            # produce identical rollup and spill bytes.
            spill_off = os.path.join(scratch, "spill_off")
            subprocess.run(base_cmd + ["--spill-dir", spill_off],
                           check=True, cwd=scratch,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            for name in ("rollup.bin", "records.spill"):
                want = md5_file(os.path.join(spill_off, name))
                got = md5_file(os.path.join(spill_on, name))
                if want != got:
                    sys.exit("status smoke FAILED: %s md5 %s with exporter "
                             "!= %s without — the exporter leaked into the "
                             "deterministic output" % (name, got, want))

            # Same for the study cache, at 1 and 2 threads.
            digests = {}
            for mode, extra in (("off", []),
                                ("on", ["--status-port", "0"])):
                for threads in ("1", "2"):
                    cache_dir = os.path.join(scratch,
                                             "cache_%s_t%s" % (mode,
                                                               threads))
                    subprocess.run(
                        [args.realdata_binary, "summary",
                         "--seed", str(args.seed), "--threads", threads,
                         "--scale", "%g" % args.smoke_scale,
                         "--cache-dir", cache_dir] + extra,
                        check=True, cwd=scratch, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL)
                    caches = [f for f in os.listdir(cache_dir)
                              if f.endswith(".cache")]
                    if len(caches) != 1:
                        sys.exit("status smoke FAILED: expected one cache "
                                 "file in %s, found %r" % (cache_dir,
                                                           caches))
                    digests[(mode, threads)] = md5_file(
                        os.path.join(cache_dir, caches[0]))
            if len(set(digests.values())) != 1:
                sys.exit("status smoke FAILED: study cache md5 differs "
                         "with the exporter on/off: %r" % digests)
            print("status smoke passed: /metrics + /progress + /healthz "
                  "live on an ephemeral port, heartbeat done + rvmerge "
                  "--status ok, dead shard reported, exporter on/off "
                  "byte-identical (cache md5 %s)" %
                  next(iter(digests.values())))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
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

    print("running %s x%d (min_time=%gs each)..." %
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
            # streaming/arena discipline broke somewhere.
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
