"""Workload definitions and the independent checks applied to every report.

A workload is a fixed list of `subsum verify` invocations, run serially
(`--jobs 1`) as child processes; one sample runs all of them once.  The
checks below never reuse the program's own code: the expected values
come from `math.factorial` and a coin DP that live here, and each report
is checked field by field rather than against a stored copy, so a change
that adds witness fields is not counted as a failure.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

# Invocations of each workload as (conjecture, max_n).  Why each was
# chosen is recorded in BENCHMARK.json; the sizes keep one sample near a
# second on one core, so a run collects enough samples for a median and
# a tail.
WORKLOADS: dict[str, tuple[tuple[str, int], ...]] = {
    "coprime": (("2", 22),),
    "special-values": (("8", 24), ("9", 40), ("10", 12)),
    "all-sweep": (("all", 9),),
    "reuse": (("lemma4", 20),),
}

# The trivial invocation whose wall time is setup_s: interpreter start,
# import and argument parsing.
SETUP = ("9", 1)

ALL_HOLD = "AllHold"
WITNESS_ONLY = "WitnessOnly"

# The paper's status for every report id: proved statements must hold,
# open ones only gather witnesses.
STATUS = {
    "1": WITNESS_ONLY,
    "2": ALL_HOLD,
    "3": WITNESS_ONLY,
    "4": WITNESS_ONLY,
    "5": ALL_HOLD,
    "6": WITNESS_ONLY,
    "7": ALL_HOLD,
    "8": ALL_HOLD,
    "9": ALL_HOLD,
    "10": ALL_HOLD,
    "lemma4": ALL_HOLD,
}

# Lowest n each report covers.
LOW_N = {"5": 2, "6": 2, "7": 2, "10": 0}

# n for which conjecture 1 must certify irreducibility with the
# built-in primes.
MUST_CERTIFY = (2, 3, 4)


def argv(conjecture: str, max_n: int) -> list[str]:
    return ["verify", "--conjecture", conjecture, "--max-n", str(max_n), "--jobs", "1", "--format", "json"]


def expected_ids(conjecture: str) -> list[str]:
    return sorted(STATUS) if conjecture == "all" else [conjecture]


def odd_part_of_factorial(n: int) -> int:
    f = math.factorial(n)
    return f >> ((f & -f).bit_length() - 1)


def three_part_of_factorial(n: int) -> int:
    """3^v3(n!), with v3 counted by dividing n! itself."""
    f, power = math.factorial(n), 1
    while f % 3 == 0:
        f //= 3
        power *= 3
    return power


@lru_cache(maxsize=4)
def ternary_t(top: int) -> tuple[int, ...]:
    """t(m) = sum over ternary partitions of m of 2^(m - length), m <= top.

    Coin DP over (weight, length) with parts 1, 3, 9, ...
    """
    ways = [[0] * (top + 1) for _ in range(top + 1)]  # ways[w][length]
    ways[0][0] = 1
    part = 1
    while part <= top:
        for w in range(part, top + 1):
            for length in range(1, w + 1):
                ways[w][length] += ways[w - part][length - 1]
        part *= 3
    return tuple(sum(c << (m - length) for length, c in enumerate(ways[m][: m + 1])) for m in range(top + 1))


def check(conjecture: str, max_n: int, exit_code: int, stdout: bytes) -> list[str]:
    """Every way the invocation's output disagrees with the paper; [] if none."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        payload = json.loads(stdout)
        reports = payload if isinstance(payload, list) else [payload]
        by_id = {r.get("conjecture"): r for r in reports}
        want = expected_ids(conjecture)
        if sorted(by_id) != want or len(reports) != len(want):
            return [f"reports {sorted(by_id)} != {want}"]
        return [f"conjecture {cid}: {e}" for cid in want for e in _check_report(cid, max_n, by_id[cid])]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # not JSON, or malformed
        return [f"unreadable output: {exc!r}"]


def _check_report(cid: str, max_n: int, r: dict) -> list[str]:
    errors = []
    if r.get("kind") != "report":
        errors.append(f"kind {r.get('kind')!r}")
    if r.get("verdict") != STATUS[cid]:
        errors.append(f"verdict {r.get('verdict')!r} != {STATUS[cid]}")
    if r.get("failures"):
        errors.append(f"{len(r['failures'])} failure records")
    lo = LOW_N.get(cid, 1)
    if r.get("n_range") != [lo, max_n]:
        errors.append(f"n_range {r.get('n_range')} != {[lo, max_n]}")
    witnesses = r.get("witnesses") or []
    if cid in ("5", "lemma4"):
        return errors
    covered = list(range(lo, 3 * max_n + 3 if cid == "10" else max_n + 1))
    if [w.get("n") for w in witnesses] != covered:
        return errors + [f"witnesses cover n={[w.get('n') for w in witnesses]}, want {lo}..{covered[-1]}"]
    for w in witnesses:
        errors += _check_witness(cid, w["n"], w, max_n)
    return errors


def _check_witness(cid: str, n: int, w: dict, max_n: int) -> list[str]:
    if cid == "7":
        want = list(range(n.bit_length()))  # s with 2^s <= n
        if w.get("s_checked") != want:
            return [f"n={n}: s_checked {w.get('s_checked')} != {want}"]
    elif cid in ("8", "9", "10"):
        if cid == "8":
            want = odd_part_of_factorial(n)
        elif cid == "9":
            want = three_part_of_factorial(n)
        else:
            want = ternary_t(3 * max_n + 2)[n]
        if w.get("value") != str(want):
            return [f"n={n}: value {w.get('value')} != {want}"]
    elif cid == "1":
        verdict = w.get("verdict")
        if verdict not in ("IrreducibleCertified", "Inconclusive"):
            return [f"n={n}: verdict {verdict!r}"]
        if n in MUST_CERTIFY and verdict != "IrreducibleCertified":
            return [f"n={n}: not certified"]
        if verdict == "IrreducibleCertified" and w.get("prime") not in (w.get("tried") or []):
            return [f"n={n}: certifying prime {w.get('prime')} not among tried {w.get('tried')}"]
    return []
