#!/usr/bin/env python3
"""Entry point of the meshpram benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload sim_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick     # self-check of every workload at toy size

Every run configures and builds perfbench/ (which compiles the library from
src/) into .bench_build/perfbench; only the first run compiles everything.
Build output goes to stderr. A run prints an `info {...}` line describing the
run and, as its last line, the result object
{"correct", "attempted", "failed", "metrics"}. Untraced runs (--trace 0)
report the end-to-end metrics of BENCHMARK.json, traced runs (--trace 1) the
per-layer ones; the names and units are checked against BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim_dense", "sim_faults", "dist_ranks", "serve_open"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds (incrementally); returns the binary path."""
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "meshpram_bench")


def expected_metrics(trace):
    """{name: unit} the run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except OSError:
        return "none"


def run_one(binary, workload, seed, seconds, trace, quick=False):
    """Runs one workload; returns (info dict, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    # The working directory is the build tree: the serving workload puts its
    # unix socket there.
    proc = subprocess.run(cmd, cwd=os.path.dirname(binary),
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        if line.startswith("info "):
            info = json.loads(line[len("info "):])
    info["git_sha"] = git_sha()
    return info, json.loads(lines[-1])


def check(result, trace):
    """Problems with a result: missing or extra metrics, wrong units."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = result.get("metrics", {})
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')},"
                            f" BENCHMARK.json says {unit}")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    if result.get("attempted", 0) < 1:
        problems.append("no operation attempted")
    return problems


def self_check(binary):
    """Every workload at toy size, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_one(binary, workload, 1, 1, trace, quick=True)
            problems = check(result, trace)
            if not result["correct"]:
                problems.append("wrong results")
            if result["failed"] != 0:
                problems.append(f"{result['failed']} operations failed")
            status = "ok" if not problems else "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="self-check every workload at toy size")
    args = ap.parse_args()
    if not args.quick and args.workload is None:
        ap.error("--workload is required")

    try:
        binary = build()
        if args.quick:
            return 0 if self_check(binary) else 1
        info, result = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace)
        problems = check(result, args.trace)
    except (OSError, subprocess.SubprocessError, RuntimeError,
            ValueError, KeyError) as e:
        log(f"failed: {e}")
        return 1
    if problems:
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 1
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
