#!/usr/bin/env python3
"""Build and run the truthcast quote-service benchmark.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload fleet_zipf --seed 1 --seconds 10 --trace 0

builds perfbench_driver into .bench_build/ (CMake, Release) from the
sources in src/ and perfbench/, runs it, checks that its result line
names exactly the metrics BENCHMARK.json declares, and passes its output
through. The last line of standard output is the JSON result. `--out FILE`
also appends the run's full record (host fingerprint, sample counts,
untraced and traced figures) to FILE as one JSON line.

Compare two sets of recorded runs (refuses records from different hosts):

    python3 perfbench/run.py compare base.jsonl head.jsonl

Exit codes: 0 ok, 1 correctness gate failed, 2 usage or build error,
3 run refused by the driver, 4 malformed result, 5 driver timed out.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("fleet_zipf", "engine_churn", "cold_sweep")
DRIVER_TIMEOUT_S = 175
HOST_KEYS = ("nproc", "cpu_model", "avx512", "build_type", "compiler")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no truthcast sources under %s/src; run from the root "
            "of a full checkout" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def check_result(line, trace, spec):
    """Returns "" when `line` is a well-formed result, else the problem."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return "metrics %s differ from BENCHMARK.json %s" % (got, want)
    return ""


def run(args):
    if not build():
        return 2
    spec = load_spec()
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return 5
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        print("\n".join(lines), flush=True)
        return proc.returncode
    problem = check_result(lines[-1], args.trace, spec) if lines else "no output"
    if problem:
        print("\n".join(lines[:-1]), flush=True)
        log("perfbench: malformed result: " + problem)
        return 4
    if args.out:
        record = [ln[len("record "):] for ln in lines if ln.startswith("record ")]
        with open(args.out, "a") as f:
            f.write(record[-1] + "\n")
    print("\n".join(lines), flush=True)
    return 0


def load_records(path):
    with open(path) as f:
        return [json.loads(ln) for ln in f if ln.strip()]


def spread(values):
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def compare(args):
    spec = load_spec()
    base, head = load_records(args.base), load_records(args.head)
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS},
                        sort_keys=True) for r in base + head}
    if len(hosts) != 1:
        log("perfbench compare: refusing to compare results from different "
            "hosts:\n  " + "\n  ".join(sorted(hosts)))
        return 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    print("host %s" % hosts.pop())
    for workload in WORKLOADS:
        b = [r for r in base if r["workload"] == workload and r["trace"] == 0]
        h = [r for r in head if r["workload"] == workload and r["trace"] == 0]
        if not b or not h:
            continue
        print("\n%s (base %d runs, head %d runs)" % (workload, len(b), len(h)))
        print("  %-16s %14s %14s %9s %8s %7s" % (
            "metric", "base median", "head median", "change", "bound",
            "spread"))
        for name, m in bounds.items():
            bv = [r["metrics"][name]["value"] for r in b]
            hv = [r["metrics"][name]["value"] for r in h]
            bm, hm = statistics.median(bv), statistics.median(hv)
            change = (hm - bm) / bm if bm else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = ""
            if worse > m["bound"]:
                verdict = "  REGRESSION"
                regressions += 1
            print("  %-16s %14.4f %14.4f %+8.2f%% %7.0f%% %6.1f%%%s" % (
                name, bm, hm, 100 * change, 100 * m["bound"],
                100 * spread(bv), verdict))
    return 1 if regressions else 0


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", help="JSON-lines records (run.py --out)")
        p.add_argument("head", help="JSON-lines records (run.py --out)")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run's full record to this file")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
