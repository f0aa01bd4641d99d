#!/usr/bin/env python3
"""Self-test for the bench_smoke comparison helpers.

Runs the pure comparison logic (no binaries, no build) against synthetic
BENCH docs: both tolerance paths of compare_bench, the mesh_steps exactness
gate, the rank-1 parity gate, the fail-closed check for a listed bench with
no baseline or binary, and the malformed-input paths that must raise
SmokeError with a readable message rather than a KeyError traceback.

Registered with ctest (label `dist`); also runnable directly or under
pytest — every check is a bare assert in a test_* function.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_smoke  # noqa: E402
from bench_smoke import (SmokeError, algo_exact_failures,  # noqa: E402
                         compare_bench, doc_points, missing_inputs,
                         point_field, rank1_parity_failures,
                         schema_field_diff, transport_parity_failures)


def pts(*entries):
    """config->point dict from (config, wall_ms, mesh_steps[, extras])."""
    out = {}
    for e in entries:
        p = {"config": e[0], "wall_ms": e[1], "mesh_steps": e[2]}
        if len(e) > 3:
            p.update(e[3])
        out[e[0]] = p
    return out


def quiet(*_args, **_kw):
    pass


def test_compare_bench_passes_within_default_tolerance():
    base = pts(("a", 10.0, 100), ("b", 20.0, 200))
    fresh = pts(("a", 11.0, 100), ("b", 24.0, 200))  # x1.17 < x1.25
    assert compare_bench("x", base, fresh, 0.25, log=quiet) == []


def test_compare_bench_fails_beyond_default_tolerance():
    base = pts(("a", 10.0, 100))
    fresh = pts(("a", 14.0, 100))  # x1.40 > x1.25
    fails = compare_bench("x", base, fresh, 0.25, log=quiet)
    assert len(fails) == 1 and "wall-clock regressed" in fails[0]


def test_compare_bench_override_tolerance_admits_noisier_bench():
    # The same x1.40 ratio that fails at the default passes at a
    # per-bench override of 0.60 — the TOLERANCES escape hatch.
    base = pts(("a", 10.0, 100))
    fresh = pts(("a", 14.0, 100))
    assert compare_bench("noisy", base, fresh, 0.60, log=quiet) == []
    # ... but the override is still a bound, not a waiver.
    worse = pts(("a", 17.0, 100))  # x1.70 > x1.60
    fails = compare_bench("noisy", base, worse, 0.60, log=quiet)
    assert len(fails) == 1 and "x1.70" in fails[0]


def test_compare_bench_mesh_steps_exact_regardless_of_tolerance():
    base = pts(("a", 10.0, 100))
    fresh = pts(("a", 10.0, 101))
    fails = compare_bench("x", base, fresh, 9.99, log=quiet)
    assert len(fails) == 1 and "mesh_steps changed 100 -> 101" in fails[0]


def test_compare_bench_no_shared_points_is_a_skip_not_a_failure():
    assert compare_bench("x", pts(("a", 1.0, 1)), pts(("b", 1.0, 1)),
                         0.25, log=quiet) == []


def test_missing_baseline_or_binary_fails_closed():
    with tempfile.TemporaryDirectory() as tmp:
        baseline = os.path.join(tmp, "BENCH_x.json")
        binary = os.path.join(tmp, "bench_x")
        both = missing_inputs("x", baseline, binary)
        assert len(both) == 2
        assert "no committed BENCH_x.json" in both[0]
        assert "binary not built" in both[1]
        with open(baseline, "w") as f:
            f.write("{}")
        no_binary = missing_inputs("x", baseline, binary)
        assert len(no_binary) == 1 and "binary not built" in no_binary[0]
        with open(binary, "w") as f:
            f.write("")
        assert missing_inputs("x", baseline, binary) == []
        os.remove(baseline)
        no_baseline = missing_inputs("x", baseline, binary)
        assert len(no_baseline) == 1
        assert "no committed BENCH_x.json" in no_baseline[0]


def test_every_listed_bench_has_a_committed_baseline():
    # The repository side of the fail-closed rule: the gate would fail on a
    # listed bench without a baseline, so every one must be committed.
    for bench in bench_smoke.BENCHES:
        path = os.path.join(bench_smoke.REPO, f"BENCH_{bench}.json")
        assert os.path.exists(path), f"BENCH_{bench}.json is not committed"


def test_point_field_missing_raises_readable_error():
    try:
        point_field({"config": "k=3 side=16"}, "mesh_steps", "committed x")
        assert False, "expected SmokeError"
    except SmokeError as e:
        msg = str(e)
        assert "mesh_steps" in msg and "k=3 side=16" in msg
        assert "committed x" in msg


def test_point_field_non_object_raises_readable_error():
    try:
        point_field(["not", "a", "dict"], "wall_ms", "fresh y")
        assert False, "expected SmokeError"
    except SmokeError as e:
        assert "fresh y" in str(e)


def test_compare_bench_surfaces_missing_field_as_smoke_error():
    base = pts(("a", 10.0, 100))
    fresh = {"a": {"config": "a", "mesh_steps": 100}}  # no wall_ms
    try:
        compare_bench("x", base, fresh, 0.25, log=quiet)
        assert False, "expected SmokeError"
    except SmokeError as e:
        assert "wall_ms" in str(e)


def test_doc_points_rejects_docs_without_points():
    try:
        doc_points({"bench": "x"}, "committed x")
        assert False, "expected SmokeError"
    except SmokeError as e:
        assert "points" in str(e)


def test_rank1_parity_ok_when_steps_match_and_lanes_silent():
    dist = pts(("ranks=1 k=3 side=16", 5.0, 400, {"boundary_bytes": 0}),
               ("ranks=2 k=3 side=16", 4.0, 400, {"boundary_bytes": 128}))
    mid = pts(("k=3 side=16", 5.0, 400))
    assert rank1_parity_failures(dist, mid) == []


def test_rank1_parity_flags_step_divergence_and_noisy_lanes():
    dist = pts(("ranks=1 k=3 side=16", 5.0, 401, {"boundary_bytes": 64}))
    mid = pts(("k=3 side=16", 5.0, 400))
    fails = rank1_parity_failures(dist, mid)
    assert len(fails) == 2
    assert any("401" in f and "400" in f for f in fails)
    assert any("boundary bytes" in f for f in fails)


def test_rank1_parity_ignores_sides_absent_from_mid_mem():
    dist = pts(("ranks=1 k=3 side=24", 5.0, 400))
    assert rank1_parity_failures(dist, pts(("k=3 side=16", 5.0, 400))) == []


def test_transport_parity_ok_when_proc_points_match_channel():
    dist = pts(("ranks=2 k=3 side=16", 4.0, 400, {"boundary_bytes": 128}),
               ("transport=unix ranks=2 k=3 side=16", 9.0, 400,
                {"boundary_bytes": 64}),
               ("transport=tcp ranks=2 k=3 side=16", 11.0, 400))
    assert transport_parity_failures(dist) == []


def test_transport_parity_flags_step_divergence():
    dist = pts(("ranks=2 k=3 side=16", 4.0, 400),
               ("transport=unix ranks=2 k=3 side=16", 9.0, 401))
    fails = transport_parity_failures(dist)
    assert len(fails) == 1
    assert "401" in fails[0] and "bit-identity" in fails[0]


def test_transport_parity_flags_missing_channel_twin():
    dist = pts(("transport=tcp ranks=4 k=3 side=32", 9.0, 400))
    fails = transport_parity_failures(dist)
    assert len(fails) == 1 and "fell out of sync" in fails[0]


def test_transport_parity_skips_recovery_and_channel_points():
    # "recover transport=..." points replay a step (different totals by
    # design) and plain channel points have no transport= prefix; neither
    # may trip the gate.
    dist = pts(("ranks=2 k=3 side=16", 4.0, 400),
               ("recover transport=unix ranks=2 k=3 side=16", 60.0, 455,
                {"recovery_blackout_ms": 33.0}))
    assert transport_parity_failures(dist) == []


def test_schema_field_diff_tolerates_recovery_blackout_column():
    doc = {f: 0 for f in bench_smoke.CURRENT_FIELDS}
    doc["points"] = [{"config": "recover transport=unix ranks=2 k=3 side=16",
                      "wall_ms": 60.0, "mesh_steps": 455,
                      "boundary_bytes": 7, "barrier_wait_ms": 0.1,
                      "recovery_blackout_ms": 33.0}]
    assert "unexpected" not in schema_field_diff(doc)


def test_schema_field_diff_names_missing_schema5_fields():
    doc = {"bench": "x", "schema_version": 4, "threads": 1, "git_sha": "g",
           "build_type": "Release", "node_order": "row_major", "simd": "avx2",
           "points": [{"config": "a", "wall_ms": 1.0, "mesh_steps": 1}]}
    diff = schema_field_diff(doc)
    assert "ranks" in diff and "transport" in diff


def test_schema_field_diff_tolerates_perf_and_dist_columns():
    doc = {f: 0 for f in bench_smoke.CURRENT_FIELDS}
    doc["points"] = [{"config": "a", "wall_ms": 1.0, "mesh_steps": 1,
                      "instructions": 5, "boundary_bytes": 7,
                      "barrier_wait_ms": 0.1}]
    assert "unexpected" not in schema_field_diff(doc)


def test_schema_field_diff_tolerates_serve_columns():
    # point_serve columns (bench_serve_net) are optional schema-5 additions;
    # a baseline carrying them must not read as "unexpected fields".
    doc = {f: 0 for f in bench_smoke.CURRENT_FIELDS}
    doc["points"] = [{"config": "throughput conns=4 window=8", "wall_ms": 1.0,
                      "mesh_steps": 0, "offered": 240, "completed": 240,
                      "rejected": 0, "p50_us": 900.0, "p95_us": 1100.0,
                      "p99_us": 1200.0, "rps": 6000.0}]
    assert "unexpected" not in schema_field_diff(doc)


def test_serve_points_gate_wall_and_pinned_steps_only():
    # The informational serve columns may drift freely between runs; only
    # wall_ms (within tolerance) and mesh_steps (exact) are gated.
    base = pts(("t", 10.0, 0, {"rps": 6000.0, "p99_us": 1000.0}))
    fresh = pts(("t", 12.0, 0, {"rps": 2500.0, "p99_us": 9000.0}))
    assert compare_bench("serve_net", base, fresh, 0.75, log=quiet) == []
    slow = pts(("t", 20.0, 0, {"rps": 6000.0}))
    fails = compare_bench("serve_net", base, slow, 0.75, log=quiet)
    assert len(fails) == 1 and "wall-clock regressed" in fails[0]


def algo_pt(config, wall, steps, **over):
    """One EXP-A1 point with plausible algo columns, overridable per test."""
    p = {"config": config, "wall_ms": wall, "mesh_steps": steps,
         "algorithm": "cc:star", "backend": "mesh", "family": "star",
         "size": 96, "pram_steps": 120, "backend_steps": 210,
         "combined_groups": 300, "max_concurrency": 95,
         "reuse_factor": 3.5}
    p.update(over)
    return p


def test_algo_exact_passes_when_counts_match():
    base = {"a": algo_pt("a", 10.0, 400)}
    fresh = {"a": algo_pt("a", 14.0, 400, reuse_factor=3.6)}
    # Wall time and the derived ratio may drift; the counts did not.
    assert algo_exact_failures(base, fresh) == []


def test_algo_exact_flags_every_moved_count():
    base = {"a": algo_pt("a", 10.0, 400)}
    fresh = {"a": algo_pt("a", 10.0, 400, pram_steps=121,
                          combined_groups=299)}
    fails = algo_exact_failures(base, fresh)
    assert len(fails) == 2
    assert any("pram_steps changed 120 -> 121" in f for f in fails)
    assert any("combined_groups changed 300 -> 299" in f for f in fails)


def test_algo_exact_ignores_unshared_points():
    # New workloads in the fresh run (or retired ones in the baseline) are
    # not failures; only shared points are pinned.
    base = {"a": algo_pt("a", 10.0, 400)}
    fresh = {"b": algo_pt("b", 10.0, 400)}
    assert algo_exact_failures(base, fresh) == []


def test_algo_exact_surfaces_missing_column_as_smoke_error():
    base = {"a": algo_pt("a", 10.0, 400)}
    broken = {"config": "a", "wall_ms": 10.0, "mesh_steps": 400}
    try:
        algo_exact_failures(base, {"a": broken})
        assert False, "expected SmokeError"
    except SmokeError as e:
        assert "size" in str(e) and "fresh algo_suite output" in str(e)


def test_schema_field_diff_tolerates_algo_columns():
    doc = {f: 0 for f in bench_smoke.CURRENT_FIELDS}
    doc["points"] = [algo_pt("cc:star n=96 mesh", 1.0, 400)]
    assert "unexpected" not in schema_field_diff(doc)


def main():
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    for name, fn in tests:
        fn()
        print(f"  ok {name}")
    print(f"test_bench_smoke: {len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
