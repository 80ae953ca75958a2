#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench) for one workload.

    python3 perfbench/run.py --workload paper-study --seed 2001 --seconds 10 --trace 0

Run from the repository root. The benchmark compiles the simulator from
../src together with the driver in perfbench/src into the build directory
($CARGO_TARGET_DIR, default .bench_build), runs one workload for --seconds
of host time, checks its outputs against the pinned digests in
perfbench/digests.json and against the library's own drivers, and prints
every metric by name with its unit. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1 (see
perfbench/README.md). Build output goes to standard error.

    python3 perfbench/run.py --selftest     # the benchmark's own self-tests
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-study", "campaign-foreground", "records-analysis")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (once) and builds the perfbench target; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "perfbench")


def source_id():
    """The git commit of a repository checkout, else an md5 over the sources
    built. Asks git only when the root itself holds .git, so nothing outside
    the checkout is read."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.md5()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-md5:" + h.hexdigest()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def pins_for(workload, seed, scale):
    with open(os.path.join(HERE, "digests.json")) as f:
        table = json.load(f)
    for entry in table.get(workload, []):
        if entry["seed"] == seed and entry.get("scale") == scale:
            return entry["digests"]
    return {}


def validate_result(line, expected):
    """Reads back the driver's result line. `expected` maps metric name to
    unit. Returns the parsed object or raises ValueError."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or sorted(obj) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys must be correct, attempted, failed, metrics")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise ValueError(key + " must be a whole number")
    if obj["attempted"] < 1 or obj["failed"] > obj["attempted"]:
        raise ValueError("need 1 <= attempted and failed <= attempted")
    if obj["correct"] != (obj["failed"] == 0):
        raise ValueError("correct must mean no failed checks")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        raise ValueError("metric names differ from BENCHMARK.json: %s"
                         % sorted(set(metrics) ^ set(expected)))
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            raise ValueError("bad metric name " + name)
        if not isinstance(m, dict) or sorted(m) != ["unit", "value"]:
            raise ValueError(name + " must have exactly value and unit")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValueError(name + " value must be a finite number")
        if m["unit"] != expected[name]:
            raise ValueError("%s unit %r, BENCHMARK.json says %r" % (name, m["unit"], expected[name]))
    return obj


def run(args):
    spec = load_spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    bdir = build_dir()
    binary = build(bdir)
    tag = "%s-seed%d" % (args.workload, args.seed)
    for sub in ("work", "results", "spans", "counts"):
        os.makedirs(os.path.join(bdir, sub), exist_ok=True)
    work = os.path.join(bdir, "work", "%s-%d" % (tag, os.getpid()))
    scale = args.scale
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--commit", source_id(),
           "--result-file", os.path.join(bdir, "results", "%s-trace%d.json" % (tag, args.trace))]
    if scale is not None:
        cmd += ["--scale", repr(scale)]
    if args.trace:
        suffix = "" if scale is None else "-scale%g" % scale
        cmd += ["--spans-file", os.path.join(bdir, "spans", tag + suffix + ".json"),
                "--counts-file", os.path.join(bdir, "counts", tag + suffix + ".txt")]
    for name, digest in sorted(pins_for(args.workload, args.seed, scale).items()):
        cmd += ["--pin", "%s=%s" % (name, digest)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("driver exited with %d" % proc.returncode, 1)
    try:
        result = validate_result(lines[-1], expected)
    except ValueError as e:
        sys.stderr.write(proc.stdout)
        fail("invalid result line: %s" % e, 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


def selftest():
    """Python-side checks: result read-back and the name grammar."""
    failures = []

    def check(what, ok):
        if not ok:
            failures.append(what)

    expected = {"setup_s": "s", "ops_per_s": "1/s"}
    good = ('{"correct": true, "attempted": 3, "failed": 0, "metrics": '
            '{"setup_s": {"value": 0.8127, "unit": "s"}, '
            '"ops_per_s": {"value": 12, "unit": "1/s"}}}')
    obj = validate_result(good, expected)
    check("reads back the value", obj["metrics"]["setup_s"]["value"] == 0.8127)
    check("round trip is stable", validate_result(json.dumps(obj), expected) == obj)
    bad = [
        good.replace('"correct": true, ', ''),                      # missing key
        good.replace('"attempted": 3', '"attempted": 0'),           # nothing attempted
        good.replace('"attempted": 3', '"attempted": 2.5'),         # not whole
        good.replace('"failed": 0', '"failed": 1'),                 # correct but failed
        good.replace('"unit": "1/s"', '"unit": "ms"'),              # wrong unit
        good.replace('"value": 12', '"value": "12"'),               # not a number
        good.replace('"value": 12', '"value": NaN'),                # not finite
        good.replace('"ops_per_s"', '"other"'),                     # unlisted name
        good.replace('}}}', '}, "extra": 1}}'),                     # extra metric key
        good + " trailing",                                         # not one object
    ]
    for i, line in enumerate(bad):
        try:
            validate_result(line, expected)
            failures.append("accepted bad result #%d" % i)
        except ValueError:
            pass
    for name in ("setup_s", "tracer.run_play_ms.t1.tcp", "a" * 64):
        check("valid name " + name, NAME_RE.match(name) is not None)
    for name in ("", "_x", "per/s", "a" * 65, "sp ace"):
        check("invalid name %r" % name, NAME_RE.match(name) is None)
    spec = load_spec()
    for m in spec["end_to_end"] + spec["per_layer"]:
        check("BENCHMARK.json name " + m["name"], NAME_RE.match(m["name"]) is not None)
    print("run.py selftest: %s (%d failures)" % ("ok" if not failures else "FAILED", len(failures)))
    for f in failures:
        print("  FAIL " + f)
    binary = build(build_dir())
    rc = subprocess.run([binary, "--selftest"]).returncode
    return 0 if not failures and rc == 0 else 1


def main():
    # On SIGTERM, unwind like an exception so subprocess.run kills and waits
    # for the driver binary instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2001)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=None,
                   help="paper-study only: play_scale (1 = the full study)")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.scale is not None and args.workload != "paper-study":
        p.error("--scale applies to paper-study only")
    run(args)


if __name__ == "__main__":
    main()
