"""The subsum benchmark: time-to-verdict for fixed `subsum verify` workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--root DIR]

Each invocation of a workload runs as its own child process
(`bench/child.py`), one at a time, and every report it prints is checked
by `workloads.check` against values computed here.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Times are reported in reference seconds.  `bench/reference.py`, a fixed
piece of work, runs as a child before the first sample and after every
sample, and each time measured in between is multiplied by
REF_SECONDS / (mean wall time of the two reference runs around it).  On
the shared machine the benchmark was tuned on, identical work varied by
up to 1.9x over tens of seconds; scaled, it varies by a few percent.
The unscaled median and the reference's median are printed too.

--trace 0 reports the end-to-end metrics, with tracing off:
  wall_s       median wall time of one sample (all of the workload's
               invocations), measured in this process
  wall_s_tail  the highest-ranked sample with at least ten samples above
               it (never below the median); its percentile is printed
  cpu_s        median user+sys time of the sample's children (os.wait4)
  peak_rss_mb  median of the sample's largest child max RSS
  pass_share   1 - failed/attempted over every checked invocation
  setup_s      median wall time of the trivial invocation in SETUP

--trace 1 runs an untraced and a traced sample per step and reports the
per-layer metrics of BENCHMARK.json from the traced ones (spans recorded
by `bench/tracer.py`), plus the overhead of tracing.

The seed shuffles the order of a workload's invocations inside each
sample; it never changes the work, so runs with different seeds are
comparable.  --root points at another checkout whose `src/` is measured
with this same benchmark code (used by compare.py).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from reference import REF_SECONDS  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import SETUP, WORKLOADS, argv, check  # noqa: E402

SETUP_REPEATS = 9
SETUP_PER_REFERENCE = 3
CHILD_TIMEOUT_S = 120.0

# Metric names, units and directions come from BENCHMARK.json alone.
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
# Counts are exact per sample; times are medians over the run's traced samples.
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


class Child(NamedTuple):
    """Outcome of one child invocation."""

    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: str


def run_child(cmd: list[str], cwd: Path, scratch: Path) -> Child:
    """Run cmd to completion; wall time here, CPU and max RSS from wait4."""
    with tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, out, stderr)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.invocations = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.scratch = root / ".bench_build" / "bench"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.untraced_reports: dict[tuple[str, int], str] = {}
        self.reference_walls: list[float] = []
        self.traced_samples = 0

    def _cmd(self, conjecture: str, max_n: int, trace: tuple[str, str] | None = None) -> list[str]:
        tracing = ["--trace", *trace] if trace else []
        return [sys.executable, "-I", str(BENCH_DIR / "child.py"), str(self.src), *tracing, "--", *argv(conjecture, max_n)]

    def invoke(self, conjecture: str, max_n: int, trace: tuple[str, str] | None = None) -> Child:
        """Run and check one invocation; a traced report must also match the untraced one."""
        child = run_child(self._cmd(conjecture, max_n, trace), self.root, self.scratch)
        errors = check(conjecture, max_n, child.exit_code, child.stdout)
        if not errors:
            key = (conjecture, max_n)
            shape = _without_elapsed(child.stdout)
            if trace is None:
                self.untraced_reports.setdefault(key, shape)
            elif key in self.untraced_reports and self.untraced_reports[key] != shape:
                errors.append("traced report differs from the untraced one")
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAIL {' '.join(argv(conjecture, max_n))}: {'; '.join(errors[:5])}", file=sys.stderr)
            if child.stderr:
                print(child.stderr[-2000:], file=sys.stderr)
        return child

    def sample(self) -> dict:
        """All of the workload's invocations once, in seed-shuffled order."""
        order = list(self.invocations)
        self.rng.shuffle(order)
        children = [self.invoke(c, n) for c, n in order]
        return {
            "wall": sum(c.wall for c in children),
            "cpu": sum(c.cpu for c in children),
            "rss": max(c.rss_mb for c in children),
        }

    def traced_sample(self) -> dict:
        """One traced sample; spans of its last run stay in .bench_build for inspection."""
        order = list(self.invocations)
        self.rng.shuffle(order)
        wall, spans, out_bytes = 0.0, [], 0
        for k, (conjecture, max_n) in enumerate(order):
            path = self.scratch / f"trace-{self.workload}-{k}.jsonl"
            path.unlink(missing_ok=True)
            run_id = f"{self.workload}/{self.traced_samples}/{conjecture}"
            child = self.invoke(conjecture, max_n, (str(path), run_id))
            wall += child.wall
            out_bytes += len(child.stdout)
            if path.exists():  # a child that failed to start writes none; invoke() counted it
                with open(path, encoding="utf-8") as fh:
                    spans.extend(json.loads(line) for line in fh)
        self.traced_samples += 1
        return layer_metrics(spans, wall, out_bytes)

    def reference(self) -> Child:
        return run_child([sys.executable, "-I", str(BENCH_DIR / "reference.py")], self.root, self.scratch)

    def scaled(self, step, more) -> list[tuple]:
        """Call step() while more(done) holds, with a reference run before and after each call.

        Returns (result, scale) pairs; scale is REF_SECONDS over the mean
        wall time of the two reference runs around the call, and turns a
        time measured during the call into reference seconds.
        """
        out = []
        before = self.reference()
        while more(len(out)):
            result = step()
            after = self.reference()
            self.reference_walls.append(after.wall)
            out.append((result, REF_SECONDS / ((before.wall + after.wall) / 2)))
            before = after
        return out

    def setup_s(self) -> float:
        """Median of SETUP_REPEATS trivial invocations, in reference seconds."""
        batches = self.scaled(lambda: [self.invoke(*SETUP).wall for _ in range(SETUP_PER_REFERENCE)],
                              lambda done: done * SETUP_PER_REFERENCE < SETUP_REPEATS)
        return statistics.median(wall * scale for walls, scale in batches for wall in walls)


def _without_elapsed(stdout: bytes) -> str:
    payload = json.loads(stdout)
    for report in payload if isinstance(payload, list) else [payload]:
        report.pop("elapsed_seconds", None)
    return json.dumps(payload, sort_keys=True)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(records: list[dict], wall: float, out_bytes: int) -> dict:
    """Per-layer metrics of one traced sample from its span and cache records.

    distinct_ratio counts distinct (n, class, engine) within each
    invocation, since only recomputation inside one process is waste.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    caches: dict[str, list[int]] = {}
    bookkeeping = unwrapped = 0.0
    packed_bits = items = certified = 0
    num_star_keys = set()
    for r in records:
        kind = r.get("kind")
        if kind == "cache":
            hm = caches.setdefault(r["name"], [0, 0])
            hm[0] += r["hits"]
            hm[1] += r["misses"]
            continue
        if kind == "summary":
            bookkeeping += r["bookkeeping_s"]
            unwrapped += r["unwrapped_s"]
            continue
        name = r["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + r["self"]
        if name == "intpoly.mul":
            packed_bits += r["packed_bits"]
        elif name == "intpoly.irreducible_mod_p":
            certified += r["out"] == {"value": "irreducible"}
        elif name == "reduction.num_star":
            a = r["args"]
            num_star_keys.add((r["run"], a["n"], a["class"], a["engine"]))
        elif name == "partitions.enumerate_partitions":
            items += r["out"]["items"]

    def hit_ratio(name):
        hits, misses = caches.get(name, (0, 0))
        return _ratio(hits, hits + misses)

    m = {
        "intpoly.mul.calls": calls.get("intpoly.mul", 0),
        "intpoly.mul.packed_bits": packed_bits,
        "intpoly.irreducible_mod_p.calls": calls.get("intpoly.irreducible_mod_p", 0),
        "intpoly.irreducible_mod_p.certified_ratio": _ratio(certified, calls.get("intpoly.irreducible_mod_p", 0)),
        "cyclotomic.phi.calls": calls.get("cyclotomic.phi", 0),
        "cyclotomic.phi.hit_ratio": hit_ratio("cyclotomic.phi"),
        "cyclotomic.binomial_power.hit_ratio": hit_ratio("cyclotomic.binomial_power"),
        "reduction.reduced_pair.calls": calls.get("reduction.reduced_pair", 0),
        "reduction.reduced_pair.hit_ratio": hit_ratio("reduction.reduced_pair"),
        "reduction.num_star.calls": calls.get("reduction.num_star", 0),
        "reduction.num_star.distinct_ratio": _ratio(len(num_star_keys), calls.get("reduction.num_star", 0)),
        "partitions.enumerate_partitions.items": items,
        "cli.output_bytes": out_bytes,
        "trace.wall_s": wall,
        "trace.bookkeeping_s": bookkeeping,
        "trace.unwrapped_s": unwrapped,
    }
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            if key in LAYERS:
                m[name] = sum(v for k, v in self_s.items() if k.startswith(key + "."))
            else:
                m[name] = self_s.get(key, 0.0)
    m["_bases"] = {
        "intpoly.irreducible_mod_p.certified_ratio": (certified, calls.get("intpoly.irreducible_mod_p", 0)),
        "reduction.num_star.distinct_ratio": (len(num_star_keys), calls.get("reduction.num_star", 0)),
        **{f"{name}.hit_ratio": (hm[0], hm[0] + hm[1]) for name, hm in caches.items()},
    }
    return m


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with >= 10 samples above it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics with tracing off, in reference seconds."""
    setup = bench.setup_s()  # the first probe also byte-compiles the sources
    deadline = time.perf_counter() + seconds
    samples = bench.scaled(bench.sample, lambda done: time.perf_counter() < deadline or not done)
    walls = [s["wall"] * scale for s, scale in samples]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(s["cpu"] * scale for s, scale in samples),
        "peak_rss_mb": statistics.median(s["rss"] for s, _ in samples),
        "pass_share": 1 - bench.failed / bench.attempted,
        "setup_s": setup,
    }
    print(f"workload {bench.workload}: {len(samples)} samples; wall_s_tail is p{tail_pct:.0f}; "
          f"fail_share {bench.failed}/{bench.attempted}")
    print(f"  unscaled median wall {statistics.median(s['wall'] for s, _ in samples):.6f} s; "
          f"reference median {statistics.median(bench.reference_walls):.6f} s (nominal {REF_SECONDS} s)")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {metrics[name]:12.6f} {unit}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Per-layer metrics: an untraced and a traced sample per step, in reference seconds."""
    deadline = time.perf_counter() + seconds
    steps = bench.scaled(lambda: (bench.sample()["wall"], bench.traced_sample()),
                         lambda done: time.perf_counter() < deadline or not done)
    traced = []
    for (_, layers), scale in steps:
        traced.append({k: v * scale if k.endswith("_s") else v for k, v in layers.items()})
    metrics = {}
    for name, _ in PER_LAYER:
        if name != "trace.overhead_ratio":
            metrics[name] = statistics.median(t[name] for t in traced)
    metrics["trace.overhead_ratio"] = statistics.median(layers["trace.wall_s"] / wall for (wall, layers), _ in steps)
    bases = traced[-1]["_bases"]
    print(f"workload {bench.workload}: {len(traced)} traced + {len(traced)} untraced samples; "
          f"fail_share {bench.failed}/{bench.attempted}")
    for name, unit in PER_LAYER:
        base = f"  ({bases[name][0]}/{bases[name][1]})" if name in bases else ""
        print(f"  {name:<42} {metrics[name]:14.6f} {unit}{base}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv_=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--root", type=Path, default=BENCH_DIR.parent, help="checkout whose src/ is measured")
    args = parser.parse_args(argv_)
    root = args.root.resolve()
    if not (root / "src" / "subsum" / "cli.py").is_file():
        print(f"no subsum sources under {root / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    if args.trace:
        metrics = measure_traced(bench, args.seconds)
    else:
        metrics = measure(bench, args.seconds)
    result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
