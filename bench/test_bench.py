"""Tests of the benchmark itself: tracer coverage, exact counts, checks, compare.

    python3 -m pytest -q bench/test_bench.py

Each workload is traced once (a few seconds each), so the whole file
takes about half a minute on one core.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, argv, check  # noqa: E402

# Which wrapped names each workload must exercise (nonzero) or bypass (zero).
EXERCISED = {
    "intpoly.mul.calls": set(WORKLOADS),
    "reduction.num_star.calls": set(WORKLOADS),
    "intpoly.irreducible_mod_p.calls": {"all-sweep"},
    "partitions.enumerate_partitions.items": {"special-values", "all-sweep"},
    "reduction.t_direct.self_s": {"special-values", "all-sweep"},
    "intpoly.remainder_mod_monic.self_s": {"coprime", "all-sweep", "reuse"},
    "reduction.reduced_pair.hit_ratio": {"all-sweep", "reuse"},
}


@pytest.fixture(scope="module")
def traced():
    """One untraced then one traced sample per workload."""
    out = {}
    for workload in WORKLOADS:
        bench = run.Bench(ROOT, workload, seed=1)
        bench.sample()
        out[workload] = (bench, bench.traced_sample())
    return out


def test_benchmark_json_names_every_workload():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_wrapped_names_exercised_and_bypassed(traced, workload):
    bench, metrics = traced[workload]
    assert bench.failed == 0
    assert set(metrics) >= {name for name, _ in run.PER_LAYER} - {"trace.overhead_ratio"}
    for name, exercised_on in EXERCISED.items():
        if workload in exercised_on:
            assert metrics[name] > 0, name
        else:
            assert metrics[name] == 0, name


def test_seed_waste_is_reported(traced):
    assert traced["reuse"][1]["reduction.num_star.distinct_ratio"] == 0.5
    assert traced["coprime"][1]["reduction.num_star.distinct_ratio"] == 1.0
    assert traced["all-sweep"][1]["intpoly.irreducible_mod_p.certified_ratio"] > 0


# What the parent's wall time holds beyond the child's own accounting:
# interpreter start before child.py runs and teardown after the trace is
# written, about 0.15 s per invocation on a 2.1 GHz Xeon core.
OUTSIDE_CHILD_S = 0.3


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_add_up_to_traced_wall(traced, workload):
    """Parts measured in the child fall short of the parent's wall only by process start and exit."""
    m = traced[workload][1]
    parts = sum(m[f"{layer}.self_s"] for layer in run.LAYERS) + m["trace.bookkeeping_s"] + m["trace.unwrapped_s"]
    assert m["trace.unwrapped_s"] > 0
    assert 0 < m["trace.wall_s"] - parts < OUTSIDE_CHILD_S * len(WORKLOADS[workload])


def test_exact_counts_repeat(traced):
    bench, first = traced["all-sweep"]
    second = bench.traced_sample()
    # cli.output_bytes is left out: elapsed_seconds changes its digits.
    exact = [n for n, unit in run.PER_LAYER if unit in ("count", "bit", "ratio") and n != "trace.overhead_ratio"]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_report_equals_untraced(workload, tmp_path):
    bench = run.Bench(ROOT, workload, seed=1)
    for conjecture, max_n in WORKLOADS[workload]:
        plain = bench.invoke(conjecture, max_n)
        traced = bench.invoke(conjecture, max_n, (str(tmp_path / "t.jsonl"), "test"))
        assert run._without_elapsed(plain.stdout) == run._without_elapsed(traced.stdout)
        assert (tmp_path / "t.jsonl").stat().st_size > 0
    assert bench.failed == 0


def _output(conjecture, max_n, scratch):
    child = run.run_child(
        [sys.executable, "-I", str(BENCH_DIR / "child.py"), str(ROOT / "src"), "--", *argv(conjecture, max_n)],
        ROOT, scratch,
    )
    assert check(conjecture, max_n, child.exit_code, child.stdout) == []
    return json.loads(child.stdout)


def _errors(conjecture, max_n, payload, exit_code=0):
    return check(conjecture, max_n, exit_code, json.dumps(payload).encode())


def test_check_catches_wrong_values_and_ignores_new_fields(tmp_path):
    odd = _output("8", 6, tmp_path)
    odd["witnesses"][3]["value"] = str(int(odd["witnesses"][3]["value"]) * 3)
    assert _errors("8", 6, odd)

    ternary = _output("10", 3, tmp_path)
    ternary["witnesses"][-1]["value"] = "0"
    assert _errors("10", 3, ternary)
    assert _errors("10", 3, dict(ternary, witnesses=ternary["witnesses"][:-1]))

    sweep = _output("all", 5, tmp_path)
    by_id = {r["conjecture"]: r for r in sweep}
    by_id["1"]["witnesses"][2]["verdict"] = "Inconclusive"  # n = 3 must certify
    assert _errors("all", 5, sweep)

    ok = _output("9", 6, tmp_path)
    assert _errors("9", 6, dict(ok, verdict="FailuresFound"))
    assert _errors("9", 6, ok, exit_code=1)
    for w in ok["witnesses"]:
        w["extra_field"] = [1, 2]
    assert _errors("9", 6, ok) == []


def test_run_without_sources_exits_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--root", str(tmp_path), "--workload", "coprime",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_rule():
    parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.00]
    faster = [v * 0.8 for v in parent]
    assert compare.classify(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert compare.classify(parent, [v * 1.2 for v in parent], "lower", 0.1)["verdict"] == "regressed"
    assert compare.classify(parent, list(parent), "lower", 0.1)["verdict"] == "unchanged"
    noisy = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.75, 1.25, 1.0, 1.0]
    assert compare.classify(noisy, list(reversed(noisy)), "lower", 0.1)["verdict"] == "unresolved"
    # Nine wins in ten are needed, ties counting for neither side.
    eight = faster[:8] + parent[8:]
    assert compare.classify(parent, eight, "lower", None)["verdict"] == "unchanged"
    assert compare.classify(parent, faster[:5], "lower", None)["verdict"] == "unchanged"  # too few pairs
