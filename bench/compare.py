"""Compare two commits with the same benchmark code (choosing-metrics §8).

    python3 bench/compare.py collect --parent DIR --change DIR --workload NAME \\
        [--workload NAME ...] [--trace 0|1] --out DIR
    python3 bench/compare.py judge PARENT.jsonl CHANGE.jsonl

`collect` runs this directory's run.py against the `src/` of two
checkouts in ten alternating pairs (the parent first in even pairs, the
change first in odd ones), with seed k in pair k and BENCHMARK.json's
run_seconds, and appends each run's result line to OUT/parent.jsonl and
OUT/change.jsonl.

`judge` pairs the runs by workload and seed and classifies every metric:
  improved     at least 10 pairs, the change wins >= 9/10 of them (ties
               count for neither) and the medians differ by more than
               the parent's interquartile range
  regressed    the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json
  unresolved   either side's interquartile range exceeds the bound (as a
               share of its median), so "unchanged" cannot be claimed,
               unless every change run reads better than every parent run
  unchanged    none of the above
  failed       some run on either side reported incorrect outputs
Per-layer metrics have no bound: they are classified improved, worse (the
same rule in the other direction) or unchanged, and counts are flagged
when they do not repeat exactly.  Exits 1 if anything regressed or failed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import SPEC  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def collect(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for workload in args.workload:
        for pair in range(MIN_PAIRS):
            seed = pair + 1
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                cmd = [
                    sys.executable, str(BENCH_DIR / "run.py"), "--root", str(sides[side]),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(proc.stderr, file=sys.stderr)
                    print(f"{side} run failed: {' '.join(cmd)}", file=sys.stderr)
                    return 1
                record = {"workload": workload, "seed": seed, "pair": pair, "first": order[0],
                          "trace": args.trace, "seconds": SPEC["run_seconds"], "result": json.loads(lines[-1])}
                with open(out / f"{side}.jsonl", "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{workload} pair {pair} {side}: correct={record['result']['correct']}", flush=True)
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def classify(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """Apply the pair rule to one metric on one workload."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = _quartiles(parent)
    cq1, cmed, cq3 = _quartiles(change)
    iqr = pq3 - pq1
    need = math.ceil(WIN_SHARE * len(parent))
    gap = cmed - pmed
    enough = len(parent) >= MIN_PAIRS
    row = {"pairs": len(parent), "wins": wins, "parent_median": pmed, "change_median": cmed,
           "parent_iqr": iqr, "change_iqr": cq3 - cq1}
    if enough and wins >= need and sign * gap > iqr:
        row["verdict"] = "improved"
    elif bound is None:
        row["verdict"] = "worse" if enough and losses >= need and -sign * gap > iqr else "unchanged"
    else:
        spread = max(iqr / abs(pmed) if pmed else 0.0, (cq3 - cq1) / abs(cmed) if cmed else 0.0)
        worse_by = -sign * gap / abs(pmed) if pmed else 0.0
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        if worse_by > bound:
            row["verdict"] = "regressed"
        elif spread > bound and not all_better:
            row["verdict"] = "unresolved"
        else:
            row["verdict"] = "unchanged"
    return row


def _load(path: str) -> dict[tuple[str, int], dict]:
    records = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                records[(r["workload"], r["seed"])] = r["result"]
    return records


def judge(args) -> int:
    metrics = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    parent, change = _load(args.parent), _load(args.change)
    keys = sorted(set(parent) & set(change))
    bad = False
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        p_runs = [parent[(workload, s)] for s in seeds]
        c_runs = [change[(workload, s)] for s in seeds]
        print(f"== {workload}: {len(seeds)} pairs")
        if not all(r["correct"] for r in p_runs + c_runs):
            print("  failed: some run reported incorrect outputs")
            bad = True
            continue
        for name in p_runs[0]["metrics"]:
            m = metrics.get(name)
            if m is None:
                continue
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            row = classify(pv, cv, m["better"], m.get("bound"))
            note = ""
            if m["unit"] in ("count", "bit") and (len(set(pv)) > 1 or len(set(cv)) > 1):
                note = "  (count does not repeat exactly)"
            bad |= row["verdict"] == "regressed"
            print(f"  {name:<42} {row['verdict']:<10} parent {row['parent_median']:.6g} "
                  f"(IQR {row['parent_iqr']:.3g}) change {row['change_median']:.6g} "
                  f"(IQR {row['change_iqr']:.3g}) {m['unit']}, wins {row['wins']}/{row['pairs']}{note}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect", help="run both checkouts in alternating pairs")
    p_collect.add_argument("--parent", required=True, help="checkout of the parent commit")
    p_collect.add_argument("--change", required=True, help="checkout of the change")
    p_collect.add_argument("--workload", action="append", required=True)
    p_collect.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1 compares per-layer metrics")
    p_collect.add_argument("--out", required=True)
    p_collect.set_defaults(func=collect)
    p_judge = sub.add_parser("judge", help="classify every metric from two result files")
    p_judge.add_argument("parent")
    p_judge.add_argument("change")
    p_judge.set_defaults(func=judge)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
