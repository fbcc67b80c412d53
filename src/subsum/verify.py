"""Executable checks for the proved theorems and the open shape conjectures.

`CONJECTURES` is the registry: one entry per report id, holding the
partition class, the lowest n, the per-n check and whether the
statement is proved.  `run` is the one runner.  It validates the range,
maps the check over the n the report states and builds one
ConjectureReport with enough witness data to re-check any verdict by
hand.  Proved statements (coprimality in the
ordinary and binary classes, binary nondivisibility, the odd and
ternary special values, the ternary recurrence, lemma 4) report
AllHold or FailuresFound; the open problems (irreducibility,
unimodality and log-concavity shapes) always report WitnessOnly.  A
pass on an open conjecture is bounded empirical evidence, while an
unexpected violation would be a publishable finding and lands in the
failures list with full reproduction data; neither outcome gates the
build.

Every check that builds num reads it from `reduction.num`, the one
cached route to num = num*/G by the num* dynamic program.  Checks that
read only den (conjecture 4, and the den side of 2 and 5) build no num*.

Each proved check takes one route.  `_decide` finds the Phi_{2d} that
divide num(n) over the class's parts d <= n (conjectures 2, 5 and 7,
lemma 4 at n): a certificate at a root of unity mod p decides each d,
and the full test on num decides a d whose certificate vanishes.
Lemma 4 decides its n mod d side by the full test.  Conjectures 8, 9
and 10 read num(n, x0) by `reduction.num_at`, off num* at x = x0 + t
with no division by G: at x0 = -1 for 8 and 9, against
`VALUE_AT_MINUS_ONE`, and at x0 = 1 for 10, against t(m) by a coin DP
over 2^(m - length).  The tests compare every route with the full path.

`run` accepts jobs > 1 to spread independent n over a process pool.
Reports are merged in ascending n, so parallel runs are byte-identical
to serial ones apart from the elapsed-time field.
"""

from __future__ import annotations

import math
import os
import time
from functools import lru_cache, partial
from typing import Callable, NamedTuple

from . import cyclotomic, intpoly, reduction
from .partitions import PartitionClass, allowed_parts

ALL_HOLD = "AllHold"
FAILURES_FOUND = "FailuresFound"
WITNESS_ONLY = "WitnessOnly"

ORDINARY = PartitionClass.ORDINARY


class ConjectureReport(NamedTuple):
    """Machine-readable verdict for one conjecture over an n-range."""

    conjecture_id: str
    n_range: tuple[int, int]
    verdict: str
    failures: list[dict]
    witnesses: list[dict]
    elapsed: float


def odd_part(m: int) -> int:
    """Largest odd divisor of m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return m >> ((m & -m).bit_length() - 1)


def legendre_valuation(p: int, n: int) -> int:
    """v_p(n!) = sum of floor(n/p^a), Legendre's formula."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def odd_factorial_part(n: int) -> int:
    """o(n!), the odd part of n!."""
    return odd_part(math.factorial(n))


# --- The certificate route ---


def _decide(n: int, pclass: PartitionClass) -> tuple[list[int], list[int], dict]:
    """The class's parts d <= n, the d among them with Phi_{2d} | num(n), and witness fields saying how each d was decided.

    The local route reads L = num(n)(zeta) up to a unit at a root of
    unity zeta of order 2d mod p, one p per (d, j) for the floor index j
    that `reduction.leading_coefficient` picks; L != 0 proves
    nondivisibility, and [d, p, zeta, L] is its certificate.  When L = 0
    the full test, `cyclotomic.phi_2d_divides` on num, decides, and d is
    listed under "full_route".
    """
    ds = allowed_parts(pclass, n)
    divides, certificates, full_route = [], [], []
    for d in ds:
        p, zeta, lead = reduction.leading_coefficient(n, pclass, d)
        if lead:
            certificates.append([d, p, zeta, lead])
            continue
        full_route.append(d)
        if cyclotomic.phi_2d_divides(reduction.num(n, pclass), d):
            divides.append(d)
    return ds, divides, {"certificates": certificates, "full_route": full_route}


# Per-n checks: check(n, pclass) -> (failures, witnesses).  They stay
# module-level so that `run` can send them to worker processes.

# --- Conjectures 2 and 5: coprimality, ordinary and binary ---


def _coprimality_check(n: int, pclass: PartitionClass) -> tuple[list[dict], list[dict]]:
    """gcd(num, den) = 1: no Phi_{2d} from den divides num.

    den is a product of factors Phi_{2d}, each irreducible, monic and of
    constant term 1 (Phi_{2d} is a quotient of products of the binomials
    1 + x^j, by the Moebius form in `cyclotomic`).  By Gauss's lemma den then has content 1, so num
    and den are coprime exactly when none of its Phi_{2d} divides num.
    den is never expanded, and no Phi_{2d} is built; its d are the
    class's parts <= n, which `_decide` reads.
    """
    d_checked, divides, decided = _decide(n, pclass)
    failures = [
        {"n": n, "d": d, "detail": f"Phi_{2 * d} divides num({n},x) but occurs in den({n},x)"}
        for d in divides
    ]
    return failures, [{"n": n, "d_checked": d_checked, **decided}]


# --- Conjecture 7: binary nondivisibility ---


def _binary_nondiv_check(n: int, pclass: PartitionClass) -> tuple[list[dict], list[dict]]:
    """No factor 1+x^(2^s) = Phi_(2^(s+1)) with 2^s <= n divides the binary numerator."""
    ds, divides, decided = _decide(n, pclass)
    failures = [{"n": n, "s": d.bit_length() - 1, "detail": f"(1+x^{d}) divides num_B({n},x)"} for d in divides]
    return failures, [{"n": n, "s_checked": [d.bit_length() - 1 for d in ds], **decided}]


# --- Conjectures 8 and 9: odd and ternary partitions at x = -1 ---

# The proved num(n,-1) per class: the name in a failure detail, the
# closed form as a format string in n, and its value.  3^v3(n!) is
# constant on each triple 3m, 3m+1, 3m+2, as 3 divides neither 3m+1 nor
# 3m+2, so conjecture 9's constancy on triples needs no check of its own.
VALUE_AT_MINUS_ONE: dict[PartitionClass, tuple[str, str, Callable[[int], int]]] = {
    PartitionClass.ODD: ("num_O", "o({}!)", odd_factorial_part),
    PartitionClass.TERNARY: ("num_T", "3^v3({}!)", lambda n: 3 ** legendre_valuation(3, n)),
}


def _value_at_minus_one_check(n: int, pclass: PartitionClass) -> tuple[list[dict], list[dict]]:
    """num(n,-1) equals the class's proved value in `VALUE_AT_MINUS_ONE`.

    num(n,-1) comes from `reduction.num_at`, which runs the num* DP
    alone and does not prove G | num*; the tests compare it with the
    full path, which does.
    """
    name, form, value = VALUE_AT_MINUS_ONE[pclass]
    got = reduction.num_at(n, pclass, -1)
    want = value(n)
    if got != want:
        return [{"n": n, "detail": f"{name}({n},-1) = {got} != {form.format(n)} = {want}"}], []
    return [], [{"n": n, "value": str(got)}]


# --- Conjecture 10: ternary partitions at x = 1 ---


def _ternary_block_check(k: int, pclass: PartitionClass) -> tuple[list[dict], list[dict]]:
    """Block k of t(m) = num_T(m,1): t(3k) = t(3k+1) = t(3k+2) and t(3k)-t(3k-2) = 4^k t(k).

    Each t(m) by the coin DP over 2^(m - length) (`reduction.t_values`)
    must equal num_T(m,1) from `reduction.num_at`, by the num* DP over
    the cofactors at x = 1; neither side builds num.
    Block 0 also checks t(1) = t(2) = 1.
    """
    t = reduction.t_values(3 * k + 2)
    failures, witnesses = [], []
    for m in range(3 * k, 3 * k + 3):
        at_one = reduction.num_at(m, pclass, 1)
        if t[m] != at_one:
            failures.append({"n": m, "detail": f"t({m}) = {t[m]} by the coin DP != num_T({m},1) = {at_one}"})
        else:
            witnesses.append({"n": m, "value": str(t[m])})
    block = t[3 * k : 3 * k + 3]
    if len(set(block)) != 1:
        failures.append({"n": 3 * k, "detail": f"t block at {3 * k} not constant: {block}"})
    if k == 0 and t[1:3] != [1, 1]:
        failures.append({"n": 1, "detail": f"t(1),t(2) = {t[1]},{t[2]} != 1,1"})
    if k >= 1:
        lhs, rhs = t[3 * k] - t[3 * k - 2], 4**k * t[k]
        if lhs != rhs:
            failures.append({"n": k, "detail": f"t({3 * k})-t({3 * k - 2}) = {lhs} != 4^{k}*t({k}) = {rhs}"})
    return failures, witnesses


# --- Conjecture 3 (open): unimodality of the even part ---


def _even_part_check(n: int, pclass: PartitionClass) -> tuple[list[dict], list[dict]]:
    """Evidence: the even-exponent part of num stays unimodal."""
    compressed = intpoly.normalize(reduction.num(n, pclass)[::2])
    if intpoly.is_unimodal(compressed):
        return [], [{"n": n, "unimodal": True}]
    return (
        [
            {
                "n": n,
                "kind": "finding",
                "detail": f"even part of num({n},x) not unimodal",
                "coefficients": [str(c) for c in compressed],
            }
        ],
        [],
    )


# --- Conjecture 4 (open): log-concavity of den except n = 3,5,6,7 ---

DEN_LOG_CONCAVE_EXCEPTIONS = frozenset({3, 5, 6, 7})


def _den_lc_check(n: int, pclass: PartitionClass) -> tuple[list[dict], list[dict]]:
    """Evidence: den is log-concave with failure set exactly {3,5,6,7}."""
    den = cyclotomic.expand_cyclotomics(reduction.den(n, pclass))
    ok, idx = intpoly.is_log_concave(den)
    expected_failure = n in DEN_LOG_CONCAVE_EXCEPTIONS
    if ok and not expected_failure:
        return [], [{"n": n, "log_concave": True}]
    if not ok and expected_failure:
        detail = (
            f"den({n},x) fails log-concavity at index {idx}: "
            f"{den[idx]}^2 < {den[idx - 1]}*{den[idx + 1]} (expected exception)"
        )
        return [], [{"n": n, "log_concave": False, "index": idx, "detail": detail}]
    if ok and expected_failure:
        return [{"n": n, "kind": "finding", "detail": f"expected counterexample n={n} is log-concave"}], []
    detail = f"den({n},x) unexpectedly fails log-concavity at index {idx}: {den[idx]}^2 < {den[idx - 1]}*{den[idx + 1]}"
    return [{"n": n, "kind": "finding", "index": idx, "detail": detail}], []


# --- Conjecture 6 (open, corrected): binary numerator shape ---

BINARY_LOG_CONCAVE_EXCEPTIONS = frozenset({4, 5})


def _binary_shape_check(n: int, pclass: PartitionClass) -> tuple[list[dict], list[dict]]:
    """Evidence: binary numerator unimodal; log-concavity fails only at n = 4, 5."""
    num = reduction.num(n, pclass)
    unimodal = intpoly.is_unimodal(num)
    lc_ok, idx = intpoly.is_log_concave(num)
    failures = []
    record: dict = {"n": n, "unimodal": unimodal, "log_concave": lc_ok}
    if idx is not None:
        record["index"] = idx
        record["detail"] = f"{num[idx]}^2 < {num[idx - 1]}*{num[idx + 1]}"
    if not unimodal and n > 5:
        failures.append(
            {"n": n, "kind": "finding", "detail": f"num_B({n},x) not unimodal (corrected conjecture)"}
        )
    if not lc_ok and n not in BINARY_LOG_CONCAVE_EXCEPTIONS:
        failures.append(
            {
                "n": n,
                "kind": "finding",
                "index": idx,
                "detail": f"num_B({n},x) unexpectedly fails log-concavity at index {idx}",
            }
        )
    return failures, [record]


# --- Lemma 4: the n -> n mod d step behind the coprimality proof ---


@lru_cache(maxsize=None)
def _nondivides_at_remainder(r: int, pclass: PartitionClass, d: int) -> bool:
    """Whether Phi_{2d} does not divide num(r) of the class, r < d, by the full test.

    This is lemma 4's r side.  It takes the full test,
    `cyclotomic.phi_2d_divides` on num(r): at each
    floor the certificate at r reads the same cached block entry L(r)
    that L(n) = c^floor(n/d) * L(r) is built from (see
    `reduction.leading_coefficient`), so it could not disagree with the
    n side.  r = 0 uses num(0,x) = 1, which no Phi divides, so lemma 4
    then degenerates to nondivisibility at n alone; the equivalence is
    still checked as stated.  The pair (r, d) recurs for every
    n = r (mod d), so it is decided once per process: a run up to n = N
    holds at most N(N+1)/2 booleans per class, keyed on r < d <= N.
    """
    return not cyclotomic.phi_2d_divides(reduction.num(r, pclass), d)


def _lemma4_check(n: int, pclass: PartitionClass) -> tuple[list[dict], list[dict]]:
    """Phi_{2d}-nondivisibility of num agrees between n and r = n mod d, for every part d <= n.

    The n side is decided by `_decide`, the r side by
    `_nondivides_at_remainder`, both on the class the registry gives:
    the ordinary class, whose parts are every d <= n.
    """
    ds, divides, _ = _decide(n, pclass)
    failures = []
    for d in ds:
        if (d not in divides) != _nondivides_at_remainder(n % d, pclass, d):
            failures.append(
                {"n": n, "d": d, "detail": f"divisibility of num by Phi_{2 * d} differs between n={n} and r={n % d}"}
            )
    return failures, []


# --- Conjecture 1 (open): irreducibility witness ---

DEFAULT_WITNESS_PRIMES = (2, 3, 5, 7, 11, 13)


def irreducibility_witness(n: int, pclass: PartitionClass) -> dict:
    """Mod-p sufficient-condition witness for irreducibility of the class's num(n,x).

    Reports the integer content, then tries each prime until one
    certifies the primitive part irreducible over the rationals.  A
    reducible reduction proves nothing over the integers, so it never
    produces a negative verdict, only Inconclusive.
    """
    num = reduction.num(n, pclass)
    record: dict = {"n": n, "content": intpoly.content(num), "tried": []}
    if len(num) <= 1:
        record["verdict"] = "Inconclusive"
        record["detail"] = "degree <= 0"
        return record
    for p in DEFAULT_WITNESS_PRIMES:
        try:
            certified = intpoly.irreducible_mod_p(num, p)
        except intpoly.BadPrimeError:
            continue
        record["tried"].append(p)
        if certified:
            record["verdict"] = "IrreducibleCertified"
            record["prime"] = p
            return record
    record["verdict"] = "Inconclusive"
    return record


def _witness_check(n: int, pclass: PartitionClass) -> tuple[list[dict], list[dict]]:
    """Evidence: mod-p irreducibility witness; never claims reducibility."""
    return [], [irreducibility_witness(n, pclass)]


# --- The registry and the runner ---


class Conjecture(NamedTuple):
    """Everything `run` needs to produce one report.

    `check(n, pclass)` is mapped over n = lowest_n .. max_n, the range
    the report states.
    """

    cid: str
    pclass: PartitionClass
    lowest_n: int
    check: Callable
    proved: bool

    def refusal(self, max_n: int) -> str | None:
        """Why `run`, and so the CLI, refuses max_n, as words to follow "conjecture <cid>", or None."""
        lowest = max(self.lowest_n, 1)
        return f"needs --max-n >= {lowest}" if max_n < lowest else None


CONJECTURES: dict[str, Conjecture] = {
    c.cid: c
    for c in (
        Conjecture("1", ORDINARY, 1, _witness_check, proved=False),
        Conjecture("2", ORDINARY, 1, _coprimality_check, proved=True),
        Conjecture("3", ORDINARY, 1, _even_part_check, proved=False),
        Conjecture("4", ORDINARY, 1, _den_lc_check, proved=False),
        Conjecture("5", PartitionClass.BINARY, 2, _coprimality_check, proved=True),
        Conjecture("6", PartitionClass.BINARY, 2, _binary_shape_check, proved=False),
        Conjecture("7", PartitionClass.BINARY, 2, _binary_nondiv_check, proved=True),
        Conjecture("8", PartitionClass.ODD, 1, _value_at_minus_one_check, proved=True),
        Conjecture("9", PartitionClass.TERNARY, 1, _value_at_minus_one_check, proved=True),
        Conjecture("10", PartitionClass.TERNARY, 0, _ternary_block_check, proved=True),
        Conjecture("lemma4", ORDINARY, 1, _lemma4_check, proved=True),
    )
}


def run(cid: str, max_n: int, *, jobs: int = 1) -> ConjectureReport:
    """Run conjecture `cid` up to max_n and return its report.

    At most min(jobs, CPU count, number of n) worker processes are used.
    Each fills its own caches, so jobs > 1 speeds up checks whose n are
    costly alone (conjecture 8), not the certificate checks of 2, 5, 7
    and lemma 4, whose n share them.  What `Conjecture.refusal` names,
    or jobs < 1, raises ValueError before any work.
    """
    entry = CONJECTURES[cid]
    refusal = entry.refusal(max_n)
    if refusal:
        raise ValueError(f"conjecture {cid} {refusal}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    start = time.perf_counter()
    check = partial(entry.check, pclass=entry.pclass)
    ns = range(entry.lowest_n, max_n + 1)
    workers = _workers(jobs, len(ns))
    if workers == 1:
        results = [check(n) for n in ns]
    else:
        # Imported here: the pool and multiprocessing cost every start-up otherwise.
        from concurrent.futures import ProcessPoolExecutor

        # pool.map returns results in input order, so the merge stays deterministic.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(check, ns, chunksize=max(1, len(ns) // (4 * workers))))
    failures = [f for fs, _ in results for f in fs]
    witnesses = [w for _, ws in results for w in ws]
    verdict = (FAILURES_FOUND if failures else ALL_HOLD) if entry.proved else WITNESS_ONLY
    elapsed = time.perf_counter() - start
    return ConjectureReport(entry.cid, (entry.lowest_n, max_n), verdict, failures, witnesses, elapsed)


def _workers(jobs: int, count: int) -> int:
    """Worker processes for `count` values of n: never more than the CPUs or the values."""
    return min(jobs, os.cpu_count() or 1, count)
