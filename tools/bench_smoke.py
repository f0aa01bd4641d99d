#!/usr/bin/env python3
"""Quick bench regression gate.

Builds the `bench-smoke` preset (Release), runs the small configuration
points of the recorded benches (MESHPRAM_BENCH_MAX_SIDE caps the sweeps),
and compares the fresh wall-clock numbers against the BENCH_*.json files
committed at the repo root. Exits 1 when the total wall time over the
shared configuration points regresses by more than the threshold (default
25%), so a perf-sensitive change can be gated in one command:

    python3 tools/bench_smoke.py

Per-point times on small meshes are noisy (microseconds); only the summed
wall time per bench is gated. mesh_steps must match exactly — a step-count
change is a semantic change, not noise, and always fails the gate.

The comparison logic lives in plain helpers (point_field, compare_bench,
rank1_parity_failures) so tools/test_bench_smoke.py can exercise it —
including the malformed-baseline paths — without running any binary.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Benches the gate runs, each against its committed BENCH_<name>.json. Every
# listed bench must have both a committed baseline and a built binary; a
# missing one fails the gate (see missing_inputs).
BENCHES = [
    "simulation_mid_mem",
    "routing_general",
    "fault_sweep",
    "serve_multisession",
    "serve_net",
    "dist_scaling",
    "algo_suite",
]

# Per-bench wall-clock tolerance overrides (fractional, in place of
# --threshold). Benches whose points are dominated by sub-millisecond
# scheduler slices or thread spawn/join need more headroom than the
# long-routing sweeps; the mesh_steps equality check is unaffected — it is
# always exact.
TOLERANCES = {
    "serve_multisession": 0.60,
    "dist_scaling": 0.60,
    # algo_suite points are whole-program runs whose wall time is dominated
    # by the ideal/oracle legs (microseconds each); the semantic load is
    # carried by the exact algo column gate below plus the in-harness oracle
    # checks, so the wall gate only needs to catch order-of-magnitude slips.
    "algo_suite": 0.60,
    # serve_net points run real sockets and client/server thread handoffs;
    # wall times are the noisiest of any bench. The in-binary gates (snapshot
    # parity, the >= 5% coalescing margin) carry the semantic load, and the
    # deterministic `coalesce` points still pin mesh_steps exactly.
    "serve_net": 0.75,
}

# Top-level fields the current recorder writes (schema 5). Used to print a
# field-level diff when a committed baseline predates the current schema.
CURRENT_FIELDS = {"bench", "schema_version", "threads", "git_sha",
                  "build_type", "node_order", "simd", "ranks", "transport",
                  "points"}
CURRENT_POINT_FIELDS = {"config", "wall_ms", "mesh_steps"}

# Schema-4 hardware-counter columns (perf_event_open). Informational only:
# they appear when the recording host could read the counters and are never
# diffed — containerized runs commonly cannot open perf events at all.
PERF_POINT_FIELDS = {"instructions", "cycles", "llc_refs", "llc_misses",
                     "llc_miss_rate", "branch_misses"}

# Schema-5 distributed-run columns (point_dist). Informational for the wall
# gate; boundary_bytes is covered by the rank-1 parity check instead.
# recovery_blackout_ms appears only on kill/recover points of dist_scaling
# (wall time the step stream was frozen during respawn + restore) and, being
# wall-clock derived, is never diffed.
DIST_POINT_FIELDS = {"boundary_bytes", "barrier_wait_ms",
                     "recovery_blackout_ms"}

# Schema-5 serving columns (point_serve, bench_serve_net). Informational:
# latency percentiles and req/s are wall-clock derived, so they are recorded
# for the EXP-S2 curves but never diffed.
SERVE_POINT_FIELDS = {"offered", "completed", "rejected", "p50_us", "p95_us",
                      "p99_us", "rps"}

# Schema-5 algorithm-workload columns (point_algo, bench_algo_suite). The
# integer counts are deterministic outputs of the oracle-checked runs and
# are diffed exactly by algo_exact_failures; reuse_factor is a derived
# ratio of two gated counts, so it is not diffed on its own.
ALGO_POINT_FIELDS = {"algorithm", "backend", "family", "size", "pram_steps",
                     "backend_steps", "combined_groups", "max_concurrency",
                     "reuse_factor"}
ALGO_EXACT_FIELDS = ("size", "pram_steps", "backend_steps",
                     "combined_groups", "max_concurrency")


class SmokeError(Exception):
    """A setup problem worth a one-line explanation, not a stack trace."""


def run(cmd, **kw):
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, **kw)


def current_schema_version():
    """kSchemaVersion from bench/recorder.hpp — the schema this tree writes."""
    path = os.path.join(REPO, "bench", "recorder.hpp")
    with open(path) as f:
        m = re.search(r"kSchemaVersion\s*=\s*(\d+)", f.read())
    if not m:
        raise SmokeError(f"could not find kSchemaVersion in {path}")
    return int(m.group(1))


def load_doc(path, label):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise SmokeError(f"{label} not found at {path}") from None
    except json.JSONDecodeError as e:
        raise SmokeError(f"{label} at {path} is not valid JSON: {e}") from None


def point_field(point, field, label):
    """Read a required field from a points[] entry, failing with a sentence
    naming the file and the point instead of a KeyError traceback."""
    if not isinstance(point, dict):
        raise SmokeError(f"{label}: points[] entry is not an object: "
                         f"{point!r}")
    if field not in point:
        where = point.get("config", "<no config>")
        raise SmokeError(
            f"{label}: point '{where}' has no '{field}' field — the file "
            f"was written by an incompatible recorder; regenerate it from "
            f"a current Release build")
    return point[field]


def doc_points(doc, label):
    """The points[] list of a loaded BENCH doc, keyed by config string."""
    if "points" not in doc:
        raise SmokeError(f"{label}: no 'points' array — not a BENCH_*.json "
                         f"written by bench/recorder.hpp")
    return {point_field(p, "config", label): p for p in doc["points"]}


def load_points(path, label):
    return doc_points(load_doc(path, label), label)


def schema_field_diff(doc):
    """Field-level description of how a stale baseline differs from the
    current schema: which top-level and per-point fields are missing or
    unexpected, so the error says what to look at, not just 'regenerate'."""
    have = set(doc.keys())
    parts = []
    missing = sorted(CURRENT_FIELDS - have)
    extra = sorted(have - CURRENT_FIELDS)
    if missing:
        parts.append("missing fields: " + ", ".join(missing))
    if extra:
        parts.append("unexpected fields: " + ", ".join(extra))
    points = doc.get("points") or []
    if points:
        phave = set(points[0].keys())
        pmissing = sorted(CURRENT_POINT_FIELDS - phave)
        pextra = sorted(phave - CURRENT_POINT_FIELDS - PERF_POINT_FIELDS -
                        DIST_POINT_FIELDS - SERVE_POINT_FIELDS -
                        ALGO_POINT_FIELDS)
        if pmissing:
            parts.append("points[] missing: " + ", ".join(pmissing))
        if pextra:
            parts.append("points[] unexpected: " + ", ".join(pextra))
    return "; ".join(parts) if parts else \
        "all field names match — only the schema_version value is stale"


def compare_bench(bench, base, fresh, tolerance, log=print):
    """Gate one bench: mesh_steps exact over shared points, summed wall time
    within tolerance. base/fresh are config->point dicts. Returns a list of
    failure strings (empty when the bench passes)."""
    failures = []
    shared = sorted(set(fresh) & set(base))
    if not shared:
        log(f"[skip] {bench}: no shared configuration points")
        return failures

    base_total = sum(point_field(base[c], "wall_ms",
                                 f"committed {bench} baseline")
                     for c in shared)
    fresh_total = sum(point_field(fresh[c], "wall_ms",
                                  f"fresh {bench} output")
                      for c in shared)
    ratio = fresh_total / base_total if base_total > 0 else 1.0
    log(f"[{bench}] {len(shared)} shared points: "
        f"{base_total:.2f} ms committed -> {fresh_total:.2f} ms "
        f"fresh (x{ratio:.2f}, tolerance x{1.0 + tolerance:.2f})")

    for c in shared:
        bs = point_field(base[c], "mesh_steps", f"committed {bench} baseline")
        fs = point_field(fresh[c], "mesh_steps", f"fresh {bench} output")
        if fs != bs:
            failures.append(f"{bench}/{c}: mesh_steps changed {bs} -> {fs}")
    if ratio > 1.0 + tolerance:
        failures.append(f"{bench}: wall-clock regressed x{ratio:.2f} "
                        f"(> x{1.0 + tolerance:.2f} allowed)")
    return failures


def missing_inputs(bench, baseline_path, binary):
    """Fail-closed check for one listed bench: no committed baseline or no
    built binary is a failure, never a skip — a gate that silently stops
    running looks exactly like a gate that passes. Returns a list of failure
    strings (empty when both exist)."""
    failures = []
    if not os.path.exists(baseline_path):
        failures.append(
            f"{bench}: no committed BENCH_{bench}.json at the repo root — "
            f"run bench_{bench} from the Release bench-smoke build with "
            f"MESHPRAM_THREADS=1 and commit its output")
    if not os.path.exists(binary):
        failures.append(f"{bench}: binary not built at {binary}")
    return failures


def algo_exact_failures(base, fresh):
    """Exact gate over the algorithm-suite columns: every shared EXP-A1
    point must reproduce its committed step/contention counts bit-for-bit.
    These are outputs of oracle-checked deterministic runs — mesh_steps is
    already gated by compare_bench; this extends the same discipline to the
    program-level counts the slowdown claims divide by."""
    failures = []
    for c in sorted(set(base) & set(fresh)):
        for field in ALGO_EXACT_FIELDS:
            bv = point_field(base[c], field, "committed algo_suite baseline")
            fv = point_field(fresh[c], field, "fresh algo_suite output")
            if bv != fv:
                failures.append(
                    f"algo_suite/{c}: {field} changed {bv} -> {fv} — a "
                    f"deterministic workload count moved, which is a "
                    f"semantic change, not noise")
    return failures


def rank1_parity_failures(dist, mid):
    """Bit-identity gate between the subsystems: every dist_scaling point at
    ranks=1 must count exactly the mesh steps simulation_mid_mem counts for
    the same k/side, and its boundary lanes must be silent."""
    failures = []
    for c in sorted(dist):
        m = re.fullmatch(r"ranks=1 (k=\d+ side=\d+)", c)
        if not m:
            continue
        if m.group(1) not in mid:
            continue
        ds = point_field(dist[c], "mesh_steps", "fresh dist_scaling output")
        ms = point_field(mid[m.group(1)], "mesh_steps",
                         "fresh simulation_mid_mem output")
        if ds != ms:
            failures.append(
                f"dist_scaling/{c}: rank-1 mesh_steps {ds} != "
                f"simulation_mid_mem/{m.group(1)} {ms} — the partitioned "
                f"protocol is no longer bit-identical to the oracle")
        bb = dist[c].get("boundary_bytes", 0)
        if bb != 0:
            failures.append(
                f"dist_scaling/{c}: rank-1 run moved {bb} boundary bytes; "
                f"a single band has no cuts to cross")
    return failures


def transport_parity_failures(dist):
    """Bit-identity gate between the transports: every multi-process
    dist_scaling point (config "transport=... ranks=R k=K side=S") must count
    exactly the mesh steps the in-process channel run counts at the same
    geometry. Wall times and byte counts differ (that is the point of the
    column); the step stream may not. Recovery points ("recover transport=…")
    are exercised by ctest -L distproc instead — their step totals include a
    replayed step, so they have no same-geometry twin here."""
    failures = []
    for c in sorted(dist):
        m = re.fullmatch(r"transport=\w+ (ranks=\d+ k=\d+ side=\d+)", c)
        if not m:
            continue
        twin = m.group(1)
        if twin not in dist:
            failures.append(
                f"dist_scaling/{c}: no channel point '{twin}' to compare "
                f"against — the sweeps fell out of sync")
            continue
        ps = point_field(dist[c], "mesh_steps", "fresh dist_scaling output")
        cs = point_field(dist[twin], "mesh_steps",
                         "fresh dist_scaling output")
        if ps != cs:
            failures.append(
                f"dist_scaling/{c}: mesh_steps {ps} != channel point "
                f"{twin} {cs} — the socket transport broke the "
                f"bit-identity contract")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional wall-clock regression (default 0.25)")
    ap.add_argument("--max-side", type=int, default=32,
                    help="largest mesh side to run (default 32)")
    ap.add_argument("--skip-build", action="store_true",
                    help="reuse an existing build-bench directory")
    args = ap.parse_args()

    build_dir = os.path.join(REPO, "build-bench")
    if not args.skip_build:
        run(["cmake", "--preset", "bench-smoke"], cwd=REPO)
        run(["cmake", "--build", "--preset", "bench-smoke", "-j"], cwd=REPO)

    schema = current_schema_version()
    failures = []
    fresh_docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ)
        env["MESHPRAM_BENCH_DIR"] = tmp
        env["MESHPRAM_BENCH_MAX_SIDE"] = str(args.max_side)
        # One worker, so fresh runs compare against baselines recorded at
        # threads=1 regardless of the host's core count, and the dist bench's
        # rank threads are the only parallelism in play.
        env["MESHPRAM_THREADS"] = "1"
        # A committed MESHPRAM_FAULT_PLAN would skew every bench; the gate
        # always measures the fault-free configuration.
        env.pop("MESHPRAM_FAULT_PLAN", None)
        env.pop("MESHPRAM_RANKS", None)

        for bench in BENCHES:
            baseline_path = os.path.join(REPO, f"BENCH_{bench}.json")
            binary = os.path.join(build_dir, "bench", f"bench_{bench}")
            missing = missing_inputs(bench, baseline_path, binary)
            if missing:
                failures += missing
                continue

            base_doc = load_doc(baseline_path,
                                f"committed {bench} baseline")
            base_schema = base_doc.get("schema_version", 1)
            if base_schema < schema:
                raise SmokeError(
                    f"committed BENCH_{bench}.json uses schema_version "
                    f"{base_schema}, older than the current recorder "
                    f"({schema}); {schema_field_diff(base_doc)}; regenerate "
                    f"it by running bench_{bench} from a Release build and "
                    f"commit the fresh file")

            run([binary], env=env, stdout=subprocess.DEVNULL)
            fresh = load_points(os.path.join(tmp, f"BENCH_{bench}.json"),
                                f"fresh {bench} output")
            base = doc_points(base_doc, f"committed {bench} baseline")
            fresh_docs[bench] = fresh

            tolerance = TOLERANCES.get(bench, args.threshold)
            failures += compare_bench(bench, base, fresh, tolerance)
            if bench == "algo_suite":
                failures += algo_exact_failures(base, fresh)

        # Degraded-mode equivalence gate: the rate-0 points of the fault
        # sweep run the same seeds and configs as simulation_mid_mem, so an
        # empty fault plan must cost exactly zero extra mesh steps.
        if "fault_sweep" in fresh_docs and "simulation_mid_mem" in fresh_docs:
            mid = fresh_docs["simulation_mid_mem"]
            zero_rate = [c for c in fresh_docs["fault_sweep"]
                         if " rate=" not in c]
            for c in sorted(set(zero_rate) & set(mid)):
                fs = point_field(fresh_docs["fault_sweep"][c], "mesh_steps",
                                 "fresh fault_sweep output")
                ms = point_field(mid[c], "mesh_steps",
                                 "fresh simulation_mid_mem output")
                if fs != ms:
                    failures.append(
                        f"fault_sweep/{c}: rate-0 mesh_steps {fs} != "
                        f"simulation_mid_mem {ms} — the fault-free fast "
                        f"path is no longer bit-identical")

        # Distributed-mode equivalence gate: EXP-D1 at one rank is the same
        # partitioned protocol with no boundary exchange, so its step counts
        # must equal the single-process bench exactly.
        if "dist_scaling" in fresh_docs and "simulation_mid_mem" in fresh_docs:
            failures += rank1_parity_failures(fresh_docs["dist_scaling"],
                                              fresh_docs["simulation_mid_mem"])

        # Process-transport equivalence gate: the multi-process sweep of
        # EXP-D1 reruns the channel points over real sockets; the step
        # streams must be identical.
        if "dist_scaling" in fresh_docs:
            failures += transport_parity_failures(fresh_docs["dist_scaling"])

    if failures:
        print("\nBENCH SMOKE FAILED:")
        for f in failures:
            print("  -", f)
        return 1
    print("\nbench smoke OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeError as e:
        print(f"bench smoke: {e}", file=sys.stderr)
        sys.exit(1)
