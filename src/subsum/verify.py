"""Executable checks for the proved theorems and the open shape conjectures.

`CONJECTURES` is the registry: one entry per report id, holding the
partition class, the lowest n, the per-n check and whether the
statement is proved.  `run` is the one runner.  It validates the range,
maps the check over the n the report states, turns engine disagreements
into failure records and builds one ConjectureReport with enough
witness data to re-check any verdict by hand.  Proved statements (coprimality in the
ordinary and binary classes, binary nondivisibility, the odd and
ternary special values, the ternary recurrence, lemma 4) report
AllHold or FailuresFound; the open problems (irreducibility,
unimodality and log-concavity shapes) always report WitnessOnly.  A
pass on an open conjecture is bounded empirical evidence, while an
unexpected violation would be a publishable finding and lands in the
failures list with full reproduction data; neither outcome gates the
build.

Every check that builds num passes its engine straight to
`reduction.num`, the one cached route to num = num*/G, so
`reduction.num_star` is the one place the accumulation engine is
applied; under engine "both" it raises EngineMismatchError, which `run`
records as a failure.  Checks that read only den (conjecture 4, and
the den side of 2 and 5) build no num*.

Every other route is picked by one of two route-pickers.  Each takes
the cheap route under engine "dp"; under "both" it also takes the full
path, for every d and every value, and raises EngineMismatchError unless
the two agree.  `_decide` finds the Phi_{2d} that divide num(n)
(conjectures 2, 5 and 7, lemma 4 at n): a certificate at a root of unity
mod p decides each d, and num is built only when it vanishes.  Lemma 4
decides its n mod d side by the full test under either engine.
`_value_at` reads num(n, x0) by `reduction.num_at`, off num* at
x = x0 + t with no division by G: at x0 = -1 for conjectures 8 and 9,
against `VALUE_AT_MINUS_ONE`, and at x0 = 1 for conjecture 10, against
t(m) by a coin DP over 2^(m - length).

`run` accepts jobs > 1 to spread independent n over a process pool.
Reports are merged in ascending n, so parallel runs are byte-identical
to serial ones apart from the elapsed-time field.
"""

from __future__ import annotations

import math
import os
import time
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple

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

    def has_engine_mismatch(self) -> bool:
        return any(f.get("kind") == "engine-mismatch" for f in self.failures)


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


# --- The two route-pickers ---


def _decide(n: int, pclass: PartitionClass, ds: Iterable[int], engine: str) -> tuple[list[int], dict]:
    """The d in ds with Phi_{2d} | num(n), and witness fields saying how each d was decided.

    The local route reads L = num(n)(zeta) up to a unit at a root of
    unity zeta of order 2d mod p, one p per (d, j) for the floor index j
    that `reduction.leading_coefficient` picks; L != 0 proves
    nondivisibility, and [d, p, zeta, L] is its certificate.  Engine
    "dp" takes a certificate as the answer and, when L = 0, decides by
    the full test, `cyclotomic.phi_2d_divides` on num, listing d under
    "full_route".  Engine "both" takes the full test for every d, which
    decides; it raises EngineMismatchError at d when a certificate
    proves a nondivisibility that the full test denies.
    """
    divides, certificates, full_route = [], [], []
    for d in ds:
        p, zeta, lead = reduction.leading_coefficient(n, pclass, d)
        if lead:
            certificates.append([d, p, zeta, lead])
            if engine == "dp":
                continue
        else:
            full_route.append(d)
        if cyclotomic.phi_2d_divides(reduction.num(n, pclass, engine), d):
            if lead:
                raise reduction.EngineMismatchError(
                    f"Phi_{2 * d} divides num({n},x), but L = {lead} != 0 mod {p} at zeta = {zeta}", d=d
                )
            divides.append(d)
    return divides, {"certificates": certificates, "full_route": full_route}


def _value_at(n: int, pclass: PartitionClass, x0: int, engine: str) -> int:
    """num(n, x0) for x0 = 1 or -1 by `reduction.num_at`, which builds no num.

    Engine "both" also reads the full path's num at x0, which proves
    G | num* and checks num* against the enumeration, and raises
    EngineMismatchError at n unless the two values agree.
    """
    got = reduction.num_at(n, pclass, x0)
    if engine == "both":
        full = intpoly.eval_at_int(reduction.num(n, pclass, engine), x0)
        if full != got:
            raise reduction.EngineMismatchError(
                f"num({n},{x0}) = {full} by the full path != {got} off num* at x = {x0}", n=n
            )
    return got


# Per-n checks: check(n, pclass, engine) -> (failures, witnesses).  They
# stay module-level so that `run` can send them to worker processes.

# --- Conjectures 2 and 5: coprimality, ordinary and binary ---


def _coprimality_check(n: int, pclass: PartitionClass, engine: str) -> tuple[list[dict], list[dict]]:
    """gcd(num, den) = 1: no Phi_{2d} from den divides num.

    den is a product of factors Phi_{2d}, each irreducible, monic and of
    constant term 1 (Phi_{2d} is a quotient of products of the binomials
    1 + x^j, by the Moebius form in `cyclotomic`).  By Gauss's lemma den then has content 1, so num
    and den are coprime exactly when none of its Phi_{2d} divides num.
    den is never expanded, and no Phi_{2d} is built.
    """
    d_checked = sorted(reduction.den(n, pclass))
    divides, decided = _decide(n, pclass, d_checked, engine)
    failures = [
        {"n": n, "d": d, "detail": f"Phi_{2 * d} divides num({n},x) but occurs in den({n},x)"}
        for d in divides
    ]
    return failures, [{"n": n, "d_checked": d_checked, **decided}]


# --- Conjecture 7: binary nondivisibility ---


def _binary_nondiv_check(n: int, pclass: PartitionClass, engine: str) -> tuple[list[dict], list[dict]]:
    """No factor 1+x^(2^s) = Phi_(2^(s+1)) with 2^s <= n divides the binary numerator."""
    ds = allowed_parts(pclass, n)
    divides, decided = _decide(n, pclass, ds, engine)
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


def _value_at_minus_one_check(n: int, pclass: PartitionClass, engine: str) -> tuple[list[dict], list[dict]]:
    """num(n,-1) equals the class's proved value in `VALUE_AT_MINUS_ONE`.

    num(n,-1) comes from `_value_at`, which under engine "dp" runs the
    num* DP alone and does not prove G | num*; under "both" the full
    path proves it, and the enumeration runs once per n.
    """
    name, form, value = VALUE_AT_MINUS_ONE[pclass]
    got = _value_at(n, pclass, -1, engine)
    want = value(n)
    if got != want:
        return [{"n": n, "detail": f"{name}({n},-1) = {got} != {form.format(n)} = {want}"}], []
    return [], [{"n": n, "value": str(got)}]


# --- Conjecture 10: ternary partitions at x = 1 ---


def _ternary_block_check(k: int, pclass: PartitionClass, engine: str) -> tuple[list[dict], list[dict]]:
    """Block k of t(m) = num_T(m,1): t(3k) = t(3k+1) = t(3k+2) and t(3k)-t(3k-2) = 4^k t(k).

    Each t(m) by the coin DP over 2^(m - length) (`reduction.t_values`)
    must equal num_T(m,1) from `_value_at`, by the num* DP over the
    cofactors at x = 1; neither side builds num under engine "dp".
    Block 0 also checks t(1) = t(2) = 1.
    """
    t = reduction.t_values(3 * k + 2)
    failures, witnesses = [], []
    for m in range(3 * k, 3 * k + 3):
        at_one = _value_at(m, pclass, 1, engine)
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


def _even_part_check(n: int, pclass: PartitionClass, engine: str) -> tuple[list[dict], list[dict]]:
    """Evidence: the even-exponent part of num stays unimodal."""
    compressed = intpoly.normalize(reduction.num(n, pclass, engine)[::2])
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


def _den_lc_check(n: int, pclass: PartitionClass, engine: str) -> tuple[list[dict], list[dict]]:
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


def _binary_shape_check(n: int, pclass: PartitionClass, engine: str) -> tuple[list[dict], list[dict]]:
    """Evidence: binary numerator unimodal; log-concavity fails only at n = 4, 5."""
    num = reduction.num(n, pclass, engine)
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
def _nondivides_at_remainder(r: int, pclass: PartitionClass, d: int, engine: str) -> bool:
    """Whether Phi_{2d} does not divide num(r) of the class, r < d, by the full test.

    This is lemma 4's r side.  It takes the full test,
    `cyclotomic.phi_2d_divides` on num(r), under either engine: at each
    floor the certificate at r reads the same cached block entry L(r)
    that L(n) = c^floor(n/d) * L(r) is built from (see
    `reduction.leading_coefficient`), so it could not disagree with the
    n side.  r = 0 uses num(0,x) = 1, which no Phi divides, so lemma 4
    then degenerates to nondivisibility at n alone; the equivalence is
    still checked as stated.  The pair (r, d) recurs for every
    n = r (mod d), so it is decided once per process: a run up to n = N
    holds at most N(N+1)/2 booleans per (class, engine), keyed on
    r < d <= N.
    """
    return not cyclotomic.phi_2d_divides(reduction.num(r, pclass, engine), d)


def _lemma4_check(n: int, pclass: PartitionClass, engine: str) -> tuple[list[dict], list[dict]]:
    """Phi_{2d}-nondivisibility of num agrees between n and r = n mod d, for every 1 <= d <= n.

    The n side is decided by `_decide`, the r side by
    `_nondivides_at_remainder`, both on the class the registry gives.
    The certificate at n needs every d <= n to be a part, as it is in
    the ordinary class that lemma 4 is stated for.
    """
    divides, _ = _decide(n, pclass, range(1, n + 1), engine)
    failures = []
    for d in range(1, n + 1):
        if (d not in divides) != _nondivides_at_remainder(n % d, pclass, d, engine):
            failures.append(
                {"n": n, "d": d, "detail": f"divisibility of num by Phi_{2 * d} differs between n={n} and r={n % d}"}
            )
    return failures, []


# --- Conjecture 1 (open): irreducibility witness ---

DEFAULT_WITNESS_PRIMES = (2, 3, 5, 7, 11, 13)


def irreducibility_witness(n: int, pclass: PartitionClass, engine: str) -> dict:
    """Mod-p sufficient-condition witness for irreducibility of the class's num(n,x).

    Reports the integer content, then tries each prime until one
    certifies the primitive part irreducible over the rationals.  A
    reducible reduction proves nothing over the integers, so it never
    produces a negative verdict, only Inconclusive.
    """
    num = reduction.num(n, pclass, engine)
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


def _witness_check(n: int, pclass: PartitionClass, engine: str) -> tuple[list[dict], list[dict]]:
    """Evidence: mod-p irreducibility witness; never claims reducibility."""
    return [], [irreducibility_witness(n, pclass, engine)]


# --- The registry and the runner ---


class Conjecture(NamedTuple):
    """Everything `run` needs to produce one report.

    `check(n, pclass, engine)` is mapped over n = lowest_n .. max_n, the
    range the report states.  `builds_num` is false for a check that
    reads only den, so that no engine applies to it.
    """

    cid: str
    pclass: PartitionClass
    lowest_n: int
    check: Callable
    proved: bool
    builds_num: bool = True

    def max_n_bound(self, max_n: int) -> str | None:
        """The bound on max-n that max_n breaks, as "max-n >= ...", or None."""
        lowest = max(self.lowest_n, 1)
        return f"max-n >= {lowest}" if max_n < lowest else None


CONJECTURES: dict[str, Conjecture] = {
    c.cid: c
    for c in (
        Conjecture("1", ORDINARY, 1, _witness_check, proved=False),
        Conjecture("2", ORDINARY, 1, _coprimality_check, proved=True),
        Conjecture("3", ORDINARY, 1, _even_part_check, proved=False),
        Conjecture("4", ORDINARY, 1, _den_lc_check, proved=False, builds_num=False),
        Conjecture("5", PartitionClass.BINARY, 2, _coprimality_check, proved=True),
        Conjecture("6", PartitionClass.BINARY, 2, _binary_shape_check, proved=False),
        Conjecture("7", PartitionClass.BINARY, 2, _binary_nondiv_check, proved=True),
        Conjecture("8", PartitionClass.ODD, 1, _value_at_minus_one_check, proved=True),
        Conjecture("9", PartitionClass.TERNARY, 1, _value_at_minus_one_check, proved=True),
        Conjecture("10", PartitionClass.TERNARY, 0, _ternary_block_check, proved=True),
        Conjecture("lemma4", ORDINARY, 1, _lemma4_check, proved=True),
    )
}


def run(cid: str, max_n: int, *, engine: str = "dp", jobs: int = 1) -> ConjectureReport:
    """Run conjecture `cid` up to max_n and return its report.

    Engine disagreements become "engine-mismatch" failure records.  At
    most min(jobs, CPU count, number of n) worker processes are used.  A
    max_n outside the entry's bounds (`Conjecture.max_n_bound`), jobs < 1
    or an engine outside `reduction.ENGINES` raises ValueError before
    any work.
    """
    entry = CONJECTURES[cid]
    bound = entry.max_n_bound(max_n)
    if bound:
        raise ValueError(f"conjecture {cid} needs {bound}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if engine not in reduction.ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    start = time.perf_counter()
    check = partial(_guarded, entry.check, entry.pclass, engine)
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


def _guarded(check, pclass: PartitionClass, engine: str, n: int) -> tuple[list[dict], list[dict]]:
    # An engine disagreement is a failure record, not an exception: the
    # report and the CLI exit code must carry it, and the sweep goes on.
    # A field n (an m of conjecture 10's block) overrides the check's n.
    try:
        return check(n, pclass, engine)
    except reduction.EngineMismatchError as exc:
        return [{"n": n, "kind": "engine-mismatch", **exc.fields, "detail": str(exc)}], []


def _workers(jobs: int, count: int) -> int:
    """Worker processes for `count` values of n: never more than the CPUs or the values."""
    return min(jobs, os.cpu_count() or 1, count)
