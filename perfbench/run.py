#!/usr/bin/env python3
"""Builds and runs the served benchmark (perfbench/perfbench.cc).

Run from the repository root:

  python3 perfbench/run.py --workload ab_subset --seed 1 --seconds 10 --trace 0

The benchmark is built from source into .bench_build/perfbench (CMake,
Release), then run once; its last stdout line is the result JSON
({"correct", "attempted", "failed", "metrics"}). Per-run detail
(provenance, p99, sample counts) and, for --trace 1, the span trace are
written under .bench_out/.

  --repeat N   runs N seeds (seed, seed+1, ...) and prints, per metric, the
               median and quartiles and the interquartile spread as a share
               of the median, so metric bounds come from measured spread.
  --self-test  builds, runs the oracle unit test, then checks end to end
               that a run with a corrupted expected answer fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
WORKLOADS = ("ab_subset", "exact_scan", "ingest_mix")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_layout():
    for path in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                 os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(path):
            log(f"perfbench: {path} not found; run from the repository root")
            return False
    return True


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
           "perfbench", "perfbench_oracle_test"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git(*args):
    """Output of a git command run in this directory, or None."""
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-sha1:" + digest.hexdigest()


def source_id():
    """Names the code that was built: the git commit of a clean checkout;
    with uncommitted changes, the commit marked dirty plus a digest of the
    sources; outside a git checkout, the digest alone."""
    top = git("rev-parse", "--show-toplevel")
    head = git("rev-parse", "HEAD")
    if not top or not head or os.path.realpath(top) != os.path.realpath("."):
        return source_digest()
    if git("status", "--porcelain") == "":
        return "git:" + head
    return f"git:{head}-dirty:{source_digest()}"


def run_once(workload, seed, seconds, trace, extra=()):
    """Runs the binary; returns (exit code, stdout lines)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--out-dir", OUT_DIR, "--source-id", source_id(),
           *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: run timed out")
        return 1, []
    return proc.returncode, out.splitlines()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args):
    series = {}
    units = {}
    bad = 0
    for i in range(args.repeat):
        seed = args.seed + i
        code, lines = run_once(args.workload, seed, args.seconds, args.trace)
        if code != 0 or not lines:
            bad += 1
            log(f"seed {seed}: exit {code}")
            continue
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            series.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        log(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    summary = {}
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        summary[name] = {"unit": units[name], "n": len(values),
                         "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / abs(med) if med else None}
        spread = summary[name]["spread"]
        log(f"  {name:28s} median {med:14.6g} {units[name]:7s} "
            f"q1 {q1:14.6g} q3 {q3:14.6g} spread "
            + ("n/a" if spread is None else f"{spread:.4f}"))
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "runs": args.repeat, "failed_runs": bad,
                      "metrics": summary}))
    return 0 if bad == 0 else 1


def self_test():
    test = os.path.join(BUILD_DIR, "perfbench_oracle_test")
    if subprocess.run([test], stdout=sys.stderr).returncode != 0:
        log("self-test: oracle unit test failed")
        return 1
    for workload in WORKLOADS:
        code, lines = run_once(workload, 1, 1, 0, ("--corrupt-oracle", "1"))
        result = json.loads(lines[-1]) if lines else {}
        if code == 0 or result.get("correct", True) or not result.get("failed"):
            log(f"self-test: corrupted oracle not caught on {workload}")
            return 1
        log(f"self-test: corrupted oracle caught on {workload} "
            f"({result['failed']} failed)")
    log("self-test: passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not check_layout() or not build():
        return 2
    if args.self_test:
        return self_test()
    if args.repeat > 0:
        return repeat(args)
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
