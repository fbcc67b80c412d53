#!/usr/bin/env python3
"""Reproduce the six proved statements at desk scale.

Coprimality of num/den (ordinary), nondivisibility and coprimality for
binary partitions, the odd special value num_O(n,-1) = o(n!), the
ternary special value num_T(n,-1) = 3^v3(n!), and the ternary
recurrence t(3n) - t(3n-2) = 4^n t(n).  Every check is exact integer
arithmetic; AllHold means zero failures across the stated range.
"""

import time

from subsum import verify

NAMES = {
    "2": "ordinary coprimality",
    "5": "binary coprimality",
    "7": "binary nondivisibility",
    "8": "odd special value",
    "9": "ternary value at -1",
    "10": "ternary recurrence at 1",
    "lemma4": "remainder reduction",
}
RUNS = [("2", 20), ("5", 32), ("7", 32), ("8", 30), ("9", 27), ("10", 27), ("lemma4", 15)]

for cid, max_n in RUNS:
    started = time.perf_counter()
    report = verify.run(cid, max_n)
    elapsed = time.perf_counter() - started
    lo, hi = report.n_range
    label = f"{NAMES[cid]} ({cid})"
    print(f"{label:45s} n={lo}..{hi}  {report.verdict}  ({elapsed:.2f}s)")
    assert report.verdict == verify.ALL_HOLD

print()
print("All six proved conjectures reproduced.")
