"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is exact integer arithmetic; the only tolerances are the
wall-clock budgets, asserted per criterion.  Run with `pytest -v` to get
one pass/fail line per criterion (each test also prints a summary line,
visible with -s).
"""

import json
import math
import time
from fractions import Fraction

from subsum import cli, cyclotomic, intpoly, reduction, verify
from subsum.partitions import PartitionClass, enumerate_partitions

import oracles

ORD = PartitionClass.ORDINARY
ODD = PartitionClass.ODD
BIN = PartitionClass.BINARY
TER = PartitionClass.TERNARY
CLASSES = list(PartitionClass)


def _stamp(k, detail, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {k} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS criterion {k}: {detail} [{elapsed:.2f}s]")


def test_criterion_01_golden_ordinary_n4():
    started = time.perf_counter()
    assert list(reduction.num(4, ORD, "dp")) == [5, 8, 15, 14, 24, 20, 24, 14, 15, 8, 5]
    assert cyclotomic.expand_cyclotomics(reduction.big_g(4, ORD)) == (1, 1)
    _stamp(1, "num(4,x) and G(4,x)=1+x exact", started, 1.0)


def test_criterion_02_golden_binary_n4():
    started = time.perf_counter()
    num = reduction.num(4, BIN, "dp")
    assert list(num) == [4, 10, 18, 18, 20, 18, 18, 10, 4]
    ok, idx = intpoly.is_log_concave(num)
    assert not ok and idx == 3
    assert num[3] ** 2 == 324 and num[2] * num[4] == 360  # 18^2 < 18*20
    _stamp(2, "num_B(4,x) exact, log-concavity fails at index 3", started, 1.0)


def test_criterion_03_ordinary_coprimality(capsys):
    started = time.perf_counter()
    code = cli.main(["verify", "--conjecture", "2", "--max-n", "20", "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["verdict"] == "AllHold"
    assert len(record["witnesses"]) == 20
    with capsys.disabled():
        _stamp(3, "conjecture 2 AllHold for n <= 20", started, 300.0)


def test_criterion_04_binary_nondivisibility(capsys):
    started = time.perf_counter()
    for cid in ("5", "7"):
        code = cli.main(["verify", "--conjecture", cid, "--max-n", "32", "--format", "json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["conjecture"] == cid
        assert record["verdict"] == "AllHold"
    with capsys.disabled():
        _stamp(4, "conjectures 5 and 7 AllHold for n <= 32", started, 60.0)


def test_criterion_05_odd_special_value():
    started = time.perf_counter()
    report = verify.run("8", 30)
    assert report.verdict == verify.ALL_HOLD
    assert len(report.witnesses) == 30
    for n in range(1, 21):
        via_valuations = verify.odd_factorial_part(n)
        via_division = math.factorial(n) >> verify.legendre_valuation(2, n)
        assert via_valuations == via_division
    _stamp(5, "num_O(n,-1) = o(n!) for n <= 30, o(n!) two ways for n <= 20", started, 120.0)


def test_criterion_06_ternary_minus_one():
    started = time.perf_counter()
    report = verify.run("9", 27)
    assert report.verdict == verify.ALL_HOLD
    values = {w["n"]: int(w["value"]) for w in report.witnesses}
    for m in range(1, 9):
        if 3 * m + 2 <= 27:
            want = 3 ** verify.legendre_valuation(3, 3 * m)
            assert values[3 * m] == values[3 * m + 1] == values[3 * m + 2] == want
    _stamp(6, "num_T(n,-1) = 3^v3(n!) for n <= 27 with triple constancy", started, 60.0)


def test_criterion_07_ternary_one():
    started = time.perf_counter()
    report = verify.run("10", 27)
    assert report.verdict == verify.ALL_HOLD
    t = {w["n"]: int(w["value"]) for w in report.witnesses}
    # every table entry was built by the coin DP AND the num* DP at x = 1 agreeing
    assert t[1] == 1 and t[2] == 1 and t[4] == 5
    for n in range(0, 28):
        assert t[3 * n] == t[3 * n + 1] == t[3 * n + 2]
    for n in range(1, 28):
        assert t[3 * n] - t[3 * n - 2] == 4**n * t[n]
    _stamp(7, "t blocks and recurrence t(3n)-t(3n-2)=4^n t(n) for n <= 27", started, 60.0)


def test_criterion_08_oracle_equivalence():
    started = time.perf_counter()
    for pclass, top in ((ORD, 20), (ODD, 20), (TER, 27), (BIN, 32)):
        for n in range(1, top + 1):
            fast = reduction.big_g(n, pclass)
            brute = oracles.big_g(n, pclass)
            assert fast == brute, (pclass, n)
    for pclass in CLASSES:
        for n in range(0, 16):
            assert reduction.num_star(n, pclass, "dp") == reduction._num_star_enumerate(
                n, pclass
            ), (pclass, n)
    _stamp(8, "closed-form G == min-exponent oracle; DP == streaming num*", started, 300.0)


def test_criterion_09_rational_cross_check():
    started = time.perf_counter()
    points = (Fraction(2), Fraction(-2), Fraction(1, 2))
    for pclass in CLASSES:
        for n in range(0, 13):
            num = reduction.num(n, pclass, "dp")
            den = cyclotomic.expand_cyclotomics(reduction.den(n, pclass))
            parts = list(enumerate_partitions(n, pclass))
            for x0 in points:
                direct = oracles.reciprocal_sum(parts, x0)
                via_pair = intpoly.eval_at_int(num, x0) / intpoly.eval_at_int(den, x0)
                assert direct == via_pair, (pclass, n, x0)
    _stamp(9, "sum of 1/sp == num/den at x0 in {2,-2,1/2} for n <= 12", started, 60.0)


def test_criterion_10_cyclotomic_suite():
    started = time.perf_counter()
    # 1 + x^m is the product of the Phi_2d over the d with m/d odd.
    for m in range(1, 201):
        product, c = (1,), {}
        for d in range(1, m + 1):
            if m % d == 0 and (m // d) % 2:
                product = oracles.naive_mul(product, oracles.phi_by_division(2 * d))
                c[d] = 1
        assert product == oracles.binom_poly(m), m
        assert cyclotomic.binomial_exponents(c) == {m: 1}, m
    for i in range(1, 41):
        factors = oracles.cyclo_exponents({i: 1})
        for d in range(1, 41):
            says = d in factors
            assert says == cyclotomic.phi_2d_divides(oracles.binom_poly(i), d), (d, i)
    assert intpoly.eval_at_int(oracles.phi_by_division(18), -1) == 3  # Phi_18(-1) = Phi_9(1)
    assert intpoly.eval_at_int(oracles.phi_by_division(6), -1) == 3
    assert intpoly.eval_at_int(oracles.phi_by_division(6), 1) == 1
    _stamp(10, "divisor products, Lemma-1 predicate, closed values", started, 30.0)


def test_criterion_11_open_conjecture_evidence():
    started = time.perf_counter()
    unimodal = verify.run("3", 25)
    assert unimodal.verdict == verify.WITNESS_ONLY
    assert unimodal.failures == []
    assert all(w["unimodal"] for w in unimodal.witnesses)

    den_lc = verify.run("4", 20)
    assert den_lc.verdict == verify.WITNESS_ONLY
    assert den_lc.failures == []
    observed = {w["n"] for w in den_lc.witnesses if w.get("log_concave") is False}
    assert observed == {3, 5, 6, 7}

    shapes = verify.run("6", 24)
    assert shapes.verdict == verify.WITNESS_ONLY
    assert shapes.failures == []
    assert all(w["unimodal"] for w in shapes.witnesses if w["n"] > 5)
    _stamp(11, "evidence: conj 3 (n<=25), conj 4 set {3,5,6,7} (n<=20), conj 6 (n<=24)", started, 300.0)
