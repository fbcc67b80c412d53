import concurrent.futures
import math
from array import array

import pytest

from subsum import cyclotomic, intpoly, reduction, verify
from subsum.partitions import PartitionClass

import oracles

ORD = PartitionClass.ORDINARY
BIN = PartitionClass.BINARY


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: verify.odd_part(0), ValueError),
        (lambda: verify.legendre_valuation(3, -1), ValueError),
        (lambda: reduction.num_star(3, ORD, "bogus"), ValueError),
        (lambda: reduction.num_at(3, ORD, 0), ValueError),
        (lambda: intpoly.primitive_part(()), ()),
        (lambda: ORD.allows(0), False),
    ],
    ids=[
        "odd_part(0)",
        "legendre_valuation(3,-1)",
        "num_star-bogus-engine",
        "num_at(x0=0)",
        "primitive_part(())",
        "allows(0)",
    ],
)
def test_public_validations(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        got = call()
        assert type(got) is type(expected) and got == expected


@pytest.mark.parametrize("m,expected", [(24, 3), (1, 1), (40, 5), (7, 7), (64, 1)])
def test_odd_part(m, expected):
    assert verify.odd_part(m) == expected


def test_legendre_valuation():
    assert verify.legendre_valuation(3, 9) == 4
    assert verify.legendre_valuation(7, 0) == 0
    assert verify.legendre_valuation(2, 4) == 3
    assert verify.odd_part(math.factorial(4)) == 3


@pytest.mark.parametrize("p", [1, 0, -2])
def test_legendre_valuation_rejects_p_below_2(p):
    with pytest.raises(ValueError, match="p must be >= 2"):
        verify.legendre_valuation(p, 5)


def test_odd_factorial_part_two_ways():
    for n in range(0, 21):
        via_valuations = verify.odd_factorial_part(n)
        via_division = math.factorial(n) >> verify.legendre_valuation(2, n)
        assert via_valuations == via_division, n


def test_coprimality_small_range():
    report = verify.run("2", 6)
    assert report.verdict == verify.ALL_HOLD
    assert report.failures == []
    assert report.n_range == (1, 6)
    by_n = {w["n"]: w for w in report.witnesses}
    assert by_n[4]["d_checked"] == [1, 2, 3, 4]


def test_coprimality_d_set_is_exactly_den_support():
    report = verify.run("2", 15)
    for w in report.witnesses:
        den = reduction.den(w["n"], ORD)
        assert w["d_checked"] == sorted(den)
        assert all(den[d] > 0 for d in w["d_checked"])


def test_binary_nondivisibility():
    report = verify.run("7", 12)
    assert report.verdict == verify.ALL_HOLD
    by_n = {w["n"]: w for w in report.witnesses}
    assert by_n[4]["s_checked"] == [0, 1, 2]
    # n=2, s=0: num_B(2,-1) = 2
    assert intpoly.eval_at_int(reduction.num(2, PartitionClass.BINARY, "dp"), -1) == 2


def test_odd_special_value():
    report = verify.run("8", 14)
    assert report.verdict == verify.ALL_HOLD
    values = {w["n"]: int(w["value"]) for w in report.witnesses}
    assert values[1] == 1
    assert values[4] == 3


def test_ternary_minus_one():
    report = verify.run("9", 14)
    assert report.verdict == verify.ALL_HOLD
    values = {w["n"]: int(w["value"]) for w in report.witnesses}
    assert values[1] == 1 and values[2] == 1
    assert values[3] == 3
    assert values[9] == 81


@pytest.mark.parametrize(
    "cid, pclass, detail",
    [
        ("8", PartitionClass.ODD, "num_O(5,-1) = 16 != o(5!) = 15"),
        ("9", PartitionClass.TERNARY, "num_T(5,-1) = 4 != 3^v3(5!) = 3"),
    ],
)
def test_wrong_value_at_minus_one_fails(monkeypatch, cid, pclass, detail):
    # num* + G is G * (num + 1): num(5,-1) one larger.
    real = reduction.num_star

    def mutated(n, pclass_, engine="dp"):
        star = real(n, pclass_, engine)
        if n == 5 and pclass_ is pclass:
            return oracles.naive_add(star, cyclotomic.expand_cyclotomics(reduction.big_g(n, pclass_)))
        return star

    monkeypatch.setattr(reduction, "num_star", mutated)
    report = verify.run(cid, 6)
    assert report.verdict == verify.FAILURES_FOUND
    assert report.failures == [{"n": 5, "detail": detail}]
    assert [w["n"] for w in report.witnesses] == [1, 2, 3, 4, 6]


@pytest.mark.parametrize("n, pclass", [(15, PartitionClass.ODD), (10, PartitionClass.TERNARY)])
def test_any_coefficient_off_by_one_from_t_to_the_g_fails_or_raises(monkeypatch, n, pclass):
    # num*(-1 + t) at t^g moves by C(k, g) != 0 for a_k off by 1 at any
    # k >= g: either T_G no longer divides it, or num(n,-1) is wrong.
    star = reduction.num_star(n, pclass)
    g, _ = reduction._order_at(n, pclass, -1)
    for k in range(g, len(star)):
        off = star[:k] + (star[k] + 1,) + star[k + 1 :]
        monkeypatch.setattr(reduction, "num_star", lambda n_, pclass_, off=off: off)
        try:
            failures, witnesses = verify._value_at_minus_one_check(n, pclass, "dp")
        except intpoly.NotDivisibleError:
            continue
        assert len(failures) == 1 and witnesses == [], k


@pytest.mark.parametrize("cid, pclass", [("8", PartitionClass.ODD), ("9", PartitionClass.TERNARY)])
def test_route_at_minus_one_against_the_full_path_under_both(monkeypatch, cid, pclass):
    real = reduction.num_at
    monkeypatch.setattr(reduction, "num_at", lambda n, pclass_, x0: real(n, pclass_, x0) + (n == 5))
    full = intpoly.eval_at_int(reduction.num(5, pclass, "both"), -1)
    report = verify.run(cid, 6, engine="both")
    detail = f"num(5,-1) = {full} by the full path != {full + 1} off num* at x = -1"
    assert report.failures == [{"n": 5, "kind": "engine-mismatch", "detail": detail}]
    assert [w["n"] for w in report.witnesses] == [1, 2, 3, 4, 6]
    assert verify.run(cid, 6, engine="dp").failures[0]["n"] == 5


def test_ternary_one():
    report = verify.run("10", 8)
    assert report.verdict == verify.ALL_HOLD
    t = {w["n"]: int(w["value"]) for w in report.witnesses}
    assert t[1] == 1 and t[2] == 1 and t[4] == 5
    assert t[3] - t[1] == 4 * t[1]


def test_unimodal_even_part():
    report = verify.run("3", 12)
    assert report.verdict == verify.WITNESS_ONLY
    assert report.failures == []
    assert {w["n"] for w in report.witnesses} == set(range(1, 13))


def test_den_log_concave_failure_set():
    report = verify.run("4", 12)
    assert report.verdict == verify.WITNESS_ONLY
    assert report.failures == []
    not_lc = {w["n"] for w in report.witnesses if w.get("log_concave") is False}
    assert not_lc == {3, 5, 6, 7}
    for w in report.witnesses:
        if w["n"] in (3, 5, 6, 7):
            assert "index" in w and "detail" in w


def test_binary_shape():
    report = verify.run("6", 12)
    assert report.verdict == verify.WITNESS_ONLY
    assert report.failures == []
    by_n = {w["n"]: w for w in report.witnesses}
    assert by_n[4]["unimodal"] is True
    assert by_n[4]["log_concave"] is False
    assert by_n[4]["index"] == 3
    assert by_n[4]["detail"] == "18^2 < 18*20"
    not_lc = {n for n, w in by_n.items() if not w["log_concave"]}
    assert not_lc <= {4, 5}
    assert all(w["unimodal"] for n, w in by_n.items() if n > 5)


def test_remainder_reduction_check_examples():
    for n, d in [(7, 3), (4, 4), (4, 1)]:  # (4, 4): r = 0, num(0,x) = 1; (4, 1): num(4,-1) = 24 != 0
        divides, _ = verify._decide(n, ORD, [d], "dp")
        assert divides == [] and verify._nondivides_at_remainder(n % d, ORD, d, "dp"), (n, d)
    assert verify._lemma4_check(7, ORD, "dp") == ([], [])


@pytest.mark.parametrize("engine", ["dp", "both"])
def test_lemma4_reads_the_class_it_is_given(monkeypatch, engine):
    # Both sides read the class passed in, and the r side keys its cache on it.  Only the
    # ordinary class has every d as a part, so the stand-ins record the class and compute there.
    seen = set()
    real_num, real_lead = reduction.num, reduction.leading_coefficient

    def num(n, pclass, engine):
        seen.add(pclass)
        return real_num(n, ORD, engine)

    def leading_coefficient(n, pclass, d):
        seen.add(pclass)
        return real_lead(n, ORD, d)

    monkeypatch.setattr(reduction, "num", num)
    monkeypatch.setattr(reduction, "leading_coefficient", leading_coefficient)
    cached = verify._nondivides_at_remainder
    cached.cache_clear()
    try:
        assert verify._lemma4_check(9, PartitionClass.ODD, engine) == ([], [])
        assert seen == {PartitionClass.ODD}
        misses = cached.cache_info().misses
        for d in range(1, 10):
            cached(9 % d, PartitionClass.ODD, d, engine)
        assert cached.cache_info().misses == misses
    finally:
        cached.cache_clear()


def test_remainder_reduction_range():
    report = verify.run("lemma4", 10)
    assert report.conjecture_id == "lemma4"
    assert report.verdict == verify.ALL_HOLD


@pytest.mark.parametrize("engine", ["dp", "both"])
def test_lemma4_reads_num_at_n_mod_d(monkeypatch, engine):
    # A Phi_6 smuggled into num(2) shows at every n = 2 mod 3, d = 3: the n mod d side is a real remainder.
    real = reduction.num

    def mutated(n, pclass, engine):
        num = real(n, pclass, engine)
        return oracles.naive_mul(num, oracles.phi_by_division(6)) if n == 2 else num

    monkeypatch.setattr(reduction, "num", mutated)
    verify._nondivides_at_remainder.cache_clear()
    try:
        report = verify.run("lemma4", 8, engine=engine)
    finally:
        verify._nondivides_at_remainder.cache_clear()  # decided on the mutated num
    assert report.verdict == verify.FAILURES_FOUND
    assert [(f["n"], f["d"]) for f in report.failures] == [(5, 3), (8, 3)]


def test_lemma4_decides_each_remainder_pair_once(monkeypatch):
    real = cyclotomic.phi_2d_divides
    calls = []

    def counting(a, d):
        calls.append(d)
        return real(a, d)

    monkeypatch.setattr(cyclotomic, "phi_2d_divides", counting)
    verify._nondivides_at_remainder.cache_clear()
    max_n = 20
    report = verify.run("lemma4", max_n)
    assert report.verdict == verify.ALL_HOLD
    # Every n side is certified at a root of unity, so each call decides one (n mod d, d).
    assert len(calls) == len({(n % d, d) for n in range(1, max_n + 1) for d in range(1, n + 1)})
    calls.clear()
    verify.run("lemma4", max_n)
    assert calls == []


def test_irreducibility_witness_examples():
    rec2 = verify.irreducibility_witness(2, ORD, "dp")
    assert rec2["content"] == 2
    assert rec2["verdict"] == "IrreducibleCertified"
    assert rec2["prime"] == 2

    rec1 = verify.irreducibility_witness(1, ORD, "dp")
    assert rec1["verdict"] == "Inconclusive"
    assert rec1["detail"] == "degree <= 0"

    rec4 = verify.irreducibility_witness(4, ORD, "dp")
    assert rec4["verdict"] in ("IrreducibleCertified", "Inconclusive")


@pytest.mark.parametrize("engine", ["dp", "both"])
def test_irreducibility_witness_reads_the_class_it_is_given(monkeypatch, engine):
    # The stand-in records the class asked for and computes in the ordinary class,
    # so the record must match the ordinary one.
    seen = set()
    real_num = reduction.num

    def num(n, pclass, engine):
        seen.add(pclass)
        return real_num(n, ORD, engine)

    want = verify._witness_check(6, ORD, engine)
    monkeypatch.setattr(reduction, "num", num)
    assert verify._witness_check(6, PartitionClass.ODD, engine) == want
    assert seen == {PartitionClass.ODD}


def test_irreducibility_report():
    report = verify.run("1", 6)
    assert report.verdict == verify.WITNESS_ONLY
    assert len(report.witnesses) == 6


def test_reports_reproducible():
    a = verify.run("2", 8)
    b = verify.run("2", 8)
    assert (a.verdict, a.failures, a.witnesses, a.n_range) == (
        b.verdict,
        b.failures,
        b.witnesses,
        b.n_range,
    )


@pytest.mark.parametrize("cid", list(verify.CONJECTURES))
def test_jobs_parallel_matches_serial(cid):
    # Conjecture 10 reads a t-table per block, lemma 4's caches are per
    # worker, and a check must stay picklable to reach the pool.
    serial = verify.run(cid, 12, jobs=1)
    parallel = verify.run(cid, 12, jobs=2)
    assert serial.witnesses == parallel.witnesses
    assert serial.failures == parallel.failures
    assert serial.verdict == parallel.verdict
    assert serial.n_range == parallel.n_range


def test_engine_both_agreement():
    report = verify.run("2", 6, engine="both")
    assert report.verdict == verify.ALL_HOLD
    assert not report.has_engine_mismatch()


def test_engine_mismatch_recorded(monkeypatch):
    real = reduction._num_star_enumerate

    def corrupted(n, pclass):
        # G(3,x) = 1 + x does not divide the corrupted num*; the engines
        # are compared before that division, so the mismatch is what is seen.
        star = real(n, pclass)
        return oracles.naive_add(star, (1,)) if n == 3 else star

    monkeypatch.setattr(reduction, "_num_star_enumerate", corrupted)
    reduction.num.cache_clear()
    try:
        report = verify.run("2", 4, engine="both")
    finally:
        reduction.num.cache_clear()
    assert report.has_engine_mismatch()
    assert any(f.get("n") == 3 for f in report.failures)


def test_mutated_numerator_detected(monkeypatch):
    real = reduction.num

    def mutated(n, pclass, engine):
        num = real(n, pclass, engine)
        if n == 4 and pclass is ORD:
            return oracles.naive_mul(num, (1, 1))  # smuggle a Phi_2 factor in
        return num

    monkeypatch.setattr(reduction, "num", mutated)
    # Only engine "both" reads num here; its certificate then contradicts the remainder.
    report = verify.run("2", 5, engine="both")
    assert report.verdict == verify.FAILURES_FOUND
    assert any(f.get("n") == 4 and f.get("d") == 1 for f in report.failures)
    assert report.has_engine_mismatch()


def test_run_validates_range_and_jobs():
    with pytest.raises(ValueError):
        verify.run("7", 1)  # binary checks start at n = 2
    with pytest.raises(ValueError):
        verify.run("2", 0)
    with pytest.raises(ValueError):
        verify.run("2", 3, jobs=0)


CERTIFIED_IDS = ["2", "5", "7", "lemma4"]


def test_every_certificate_prime_is_above_2n(low_floor):
    # With the floor at 16, the primes of the low floors are at most 2n
    # for most n <= 40, so the rule must skip them; the checker rejects a
    # certificate whose p is at most 2n.
    _assert_certified(verify.run("2", 30), ORD, lambda w: w["d_checked"])
    _assert_certified(verify.run("7", 40), BIN, lambda w: [1 << s for s in w["s_checked"]])


@pytest.mark.parametrize("cid", CERTIFIED_IDS)
def test_run_accepts_max_n_past_the_old_ceiling(monkeypatch, cid):
    # No max_n is too large for the certificates: every n has a floor whose prime is above 2n.
    no_work = ([], [])
    monkeypatch.setattr(verify, "_guarded", lambda check, pclass, engine, n: no_work)
    report = verify.run(cid, 500_002)
    assert (report.verdict, report.n_range) == (verify.ALL_HOLD, (verify.CONJECTURES[cid].lowest_n, 500_002))


@pytest.mark.parametrize("cid", list(verify.CONJECTURES))
def test_run_rejects_an_unknown_engine_before_any_work(monkeypatch, cid):
    def no_work(*args, **kwargs):
        raise AssertionError("a check ran under an unknown engine")

    monkeypatch.setattr(verify, "_guarded", no_work)
    with pytest.raises(ValueError, match="unknown engine 'fast'"):
        verify.run(cid, 6, engine="fast")


def test_jobs_capped_at_cpus_and_values(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for the process pool: records its size and maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    serial = verify.run("8", 10)
    capped = verify.run("8", 10, jobs=10**6)  # 4 CPUs
    verify.run("8", 3, jobs=10**6)  # 3 values of n
    verify.run("8", 10, jobs=2)
    assert sizes == [4, 3, 2]
    assert capped.witnesses == serial.witnesses


def _assert_certified(report, pclass, ds_of):
    for w in report.witnesses:
        num = reduction.num(w["n"], pclass, "dp")
        assert w["full_route"] == []
        assert [c[0] for c in w["certificates"]] == ds_of(w)
        for certificate in w["certificates"]:
            assert oracles.certificate_problems(w["n"], num, certificate) == [], (w["n"], certificate)


def test_every_certificate_passes_the_independent_checker():
    _assert_certified(verify.run("2", 16), ORD, lambda w: w["d_checked"])
    _assert_certified(verify.run("5", 24), BIN, lambda w: w["d_checked"])
    _assert_certified(verify.run("7", 24), BIN, lambda w: [1 << s for s in w["s_checked"]])


def test_checker_rejects_a_bad_certificate():
    num = reduction.num(4, ORD, "dp")
    [good] = [c for c in verify.run("2", 4).witnesses[-1]["certificates"] if c[0] == 3]
    d, p, zeta, lead = good
    assert oracles.certificate_problems(4, num, good) == []
    assert oracles.certificate_problems(4, num, [d, 7 * p, zeta, lead])  # composite, though = 1 mod 6
    assert oracles.certificate_problems(4, num, [d, p, zeta * zeta % p, lead])  # order 3, not 6
    assert oracles.certificate_problems(4, oracles.naive_mul(num, oracles.phi_by_division(6)), good)
    # Only the p does not fit: at 2n >= p, L need not be num(n)(zeta) up to a unit.
    assert oracles.certificate_problems(p // 2 + 1, num, good) == [f"p = {p} is not above 2n = {p + 1}"]


def _vanishing(monkeypatch, ds):
    """Make L vanish for every d in ds."""
    real = reduction.leading_coefficient

    def vanishing(n, pclass, d):
        p, zeta, lead = real(n, pclass, d)
        return p, zeta, 0 if d in ds else lead

    monkeypatch.setattr(reduction, "leading_coefficient", vanishing)


def _counting_num_star(monkeypatch):
    real = reduction.num_star
    calls = []

    def counting(n, pclass, engine="dp"):
        calls.append(n)
        return real(n, pclass, engine)

    monkeypatch.setattr(reduction, "num_star", counting)
    reduction.num.cache_clear()
    return calls


def test_vanishing_at_every_prime_takes_the_full_route(monkeypatch):
    _vanishing(monkeypatch, {2})
    calls = _counting_num_star(monkeypatch)
    try:
        report = verify.run("2", 6)
        assert report.verdict == verify.ALL_HOLD
        for w in report.witnesses:
            assert w["full_route"] == ([2] if w["n"] >= 2 else [])
            assert [c[0] for c in w["certificates"]] == [d for d in w["d_checked"] if d != 2]
        assert calls == [2, 3, 4, 5, 6]
        both = verify.run("2", 6, engine="both")
        assert [w["full_route"] for w in both.witnesses] == [w["full_route"] for w in report.witnesses]
        assert verify._lemma4_check(6, ORD, "dp") == ([], [])
    finally:
        reduction.num.cache_clear()


def test_zero_at_every_floor_takes_the_full_route(monkeypatch):
    # Every floor's block at d = 3 is patched to zero: the walk tries
    # `_FLOORS` usable floors, returns L = 0, and the full test decides d.
    real = reduction._leading_block
    floors = []

    def zeroed(pclass, d, j):
        c, block = real(pclass, d, j)
        if d != 3:
            return c, block
        floors.append(j)
        return c, array("q", [0] * d)

    monkeypatch.setattr(reduction, "_leading_block", zeroed)
    assert reduction.leading_coefficient(7, ORD, 3) == (*reduction.root_of_unity(3, reduction._FLOORS - 1), 0)
    assert floors == list(range(reduction._FLOORS))
    assert verify._decide(7, ORD, [3], "dp") == ([], {"certificates": [], "full_route": [3]})
    divides, decided = verify._decide(7, ORD, [1, 2, 3, 4], "dp")
    assert divides == [] and decided["full_route"] == [3]
    assert [c[0] for c in decided["certificates"]] == [1, 2, 4]


def test_full_route_reports_a_divisor(monkeypatch):
    # With no certificate for d = 2, the full remainder decides, and finds
    # the Phi_4 smuggled into num(4).
    _vanishing(monkeypatch, {2})
    real = reduction.num

    def mutated(n, pclass, engine):
        num = real(n, pclass, engine)
        return oracles.naive_mul(num, oracles.phi_by_division(4)) if n == 4 and pclass is ORD else num

    monkeypatch.setattr(reduction, "num", mutated)
    report = verify.run("2", 5)
    assert report.verdict == verify.FAILURES_FOUND
    assert [(f["n"], f["d"]) for f in report.failures] == [(4, 2)]
    assert not report.has_engine_mismatch()


def test_den_side_by_gauss_lemma_matches_the_expanded_den():
    # The coprimality check never expands den: it takes content 1 from
    # Gauss's lemma, as every Phi_{2d} is monic with constant term 1.
    for pclass in PartitionClass:
        for n in range(0, 21):
            expanded = cyclotomic.expand_cyclotomics(reduction.den(n, pclass))
            assert intpoly.content(expanded) == 1, (pclass, n)
            assert expanded[0] == 1, (pclass, n)


# Every function that builds a polynomial on the way to a full Phi_{2d} test, and the test itself.
SPIED = [
    (cyclotomic, "phi_2d_divides"),
    (cyclotomic, "expand_cyclotomics"),
    (cyclotomic, "expand_binomials"),
    (reduction, "num_star"),
    (reduction, "num"),
]


def test_certificate_route_builds_no_polynomial(monkeypatch):
    calls = []

    def spy(mp, module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append((name, args))
            return real(*args, **kwargs)

        mp.setattr(module, name, counting)

    for cid in ("2", "5", "7"):
        reduction.num.cache_clear()
        reduction._leading_block.cache_clear()
        with monkeypatch.context() as mp:
            for module, name in SPIED:
                spy(mp, module, name)
            assert verify.run(cid, 40).verdict == verify.ALL_HOLD
        assert calls == [], cid


def test_binary_coprimality_matches_binary_nondivisibility():
    coprime, nondiv = verify.run("5", 200), verify.run("7", 200)
    assert len(coprime.witnesses) == len(nondiv.witnesses) == 199
    for c, b in zip(coprime.witnesses, nondiv.witnesses):
        assert c["n"] == b["n"]
        assert c["d_checked"] == [1 << s for s in b["s_checked"]]
        assert (c["certificates"], c["full_route"]) == (b["certificates"], b["full_route"])


@pytest.mark.parametrize("engine", ["both", "dp"])
def test_binary_mutated_numerator_fails_5_and_7(monkeypatch, engine):
    # Under "both" the certificate contradicts the remainder; under "dp",
    # with no certificate at all, the full remainder finds 1 + x^2.
    if engine == "dp":
        _vanishing(monkeypatch, {1, 2, 4})
    real = reduction.num

    def mutated(n, pclass, engine):
        num = real(n, pclass, engine)
        return oracles.naive_mul(num, (1, 0, 1)) if n == 4 and pclass is BIN else num

    monkeypatch.setattr(reduction, "num", mutated)
    coprime, nondiv = verify.run("5", 6, engine=engine), verify.run("7", 6, engine=engine)
    assert coprime.verdict == nondiv.verdict == verify.FAILURES_FOUND
    if engine == "both":
        assert [(f["n"], f["d"], f["kind"]) for f in coprime.failures] == [(4, 2, "engine-mismatch")]
        assert [(f["n"], f["d"], f["kind"]) for f in nondiv.failures] == [(4, 2, "engine-mismatch")]
    else:
        assert [(f["n"], f["d"]) for f in coprime.failures] == [(4, 2)]
        assert [(f["n"], f["s"]) for f in nondiv.failures] == [(4, 1)]
        assert not coprime.has_engine_mismatch() and not nondiv.has_engine_mismatch()


def test_conjecture_10_builds_no_polynomial(monkeypatch):
    def no_polynomial(*args, **kwargs):
        raise AssertionError("conjecture 10 built a polynomial under engine dp")

    for name in ("num", "num_star", "enumerate_partitions"):
        monkeypatch.setattr(reduction, name, no_polynomial)
    monkeypatch.setattr(cyclotomic, "divide_cyclotomics", no_polynomial)
    assert verify.run("10", 20).verdict == verify.ALL_HOLD


@pytest.mark.parametrize("mutation", ["shift+1", "shift-1", "low-bit"])
def test_x1_route_mutation_fails_conjecture_10(monkeypatch, mutation):
    # t(7) is odd (every ternary partition of 7 but 1^7 is shorter than 7),
    # so num*(7,1) = G(7,1) * t(7) = 2^2 * t(7) ends in exactly two zero bits:
    # a wider shift or a set low bit leaves a remainder, a narrower one doubles t.
    real_g, real_dp = reduction.big_g, reduction._ring_dp
    if mutation == "low-bit":
        monkeypatch.setattr(reduction, "_ring_dp", lambda n, parts, step: real_dp(n, parts, step) + (n == 7))
    else:
        extra = 1 if mutation == "shift+1" else -1

        def big_g(n, pclass):
            g = real_g(n, pclass)
            return {**g, 1: g[1] + extra} if n == 7 else g

        monkeypatch.setattr(reduction, "big_g", big_g)
    if mutation == "shift-1":
        report = verify.run("10", 3)
        assert report.verdict == verify.FAILURES_FOUND
        assert [f["n"] for f in report.failures] == [7]
        assert "coin DP" in report.failures[0]["detail"]
    else:
        with pytest.raises(intpoly.NotDivisibleError):
            verify.run("10", 3)


@pytest.mark.parametrize("engine, kind", [("both", "engine-mismatch"), ("dp", None)])
def test_patched_x1_route_fails_conjecture_10(monkeypatch, engine, kind):
    # Under "both" the full path's num_T(5,1) catches the patched route
    # before the coin DP does, and the mismatch drops the rest of the block
    # 3, 4, 5; under "dp" the coin DP catches it and drops m = 5 alone.
    real = reduction.num_at
    monkeypatch.setattr(reduction, "num_at", lambda n, pclass, x0: real(n, pclass, x0) + 2 * (n == 5))
    full = intpoly.eval_at_int(reduction.num(5, PartitionClass.TERNARY, "both"), 1)
    report = verify.run("10", 3, engine=engine)
    assert report.verdict == verify.FAILURES_FOUND
    assert [(f["n"], f.get("kind")) for f in report.failures] == [(5, kind)]
    if engine == "both":
        assert report.failures[0]["detail"] == f"num(5,1) = {full} by the full path != {full + 2} off num* at x = 1"
    assert report.has_engine_mismatch() == (engine == "both")
    kept = [0, 1, 2] if engine == "both" else [0, 1, 2, 3, 4]
    assert [w["n"] for w in report.witnesses] == kept + list(range(6, 12))


def test_t_block_check_reports_its_failures(monkeypatch):
    # One wrong t(7) breaks the coin DP's agreement at m = 7, the block
    # t(6) = t(7) = t(8) and the recurrence t(9) - t(7) = 4^3 t(3).
    real = reduction.t_values

    def shifted(top):
        t = real(top)
        if top >= 7:
            t[7] += 1
        return t

    monkeypatch.setattr(reduction, "t_values", shifted)
    report = verify.run("10", 4)
    assert report.verdict == verify.FAILURES_FOUND
    details = [(f["n"], f["detail"]) for f in report.failures]
    assert len(details) == 3
    assert details[0][0] == 7 and "coin DP" in details[0][1]
    assert details[1][0] == 6 and "block at 6" in details[1][1]
    assert details[2][0] == 3 and details[2][1].startswith("t(9)-t(7)")
    assert 7 not in [w["n"] for w in report.witnesses]


def test_t_block_check_reports_t1_t2(monkeypatch):
    # A wrong t(1) breaks the coin DP's agreement at m = 1, the block
    # t(0) = t(1) = t(2), t(1) = t(2) = 1 and, in block 1, the recurrence
    # t(3) - t(1) = 4 t(1); the failures come block by block.
    real = reduction.t_values

    def shifted(top):
        t = real(top)
        t[1] += 1
        return t

    monkeypatch.setattr(reduction, "t_values", shifted)
    report = verify.run("10", 2)
    assert report.verdict == verify.FAILURES_FOUND
    assert [(f["n"], f["detail"]) for f in report.failures] == [
        (1, "t(1) = 2 by the coin DP != num_T(1,1) = 1"),
        (0, "t block at 0 not constant: [1, 2, 1]"),
        (1, "t(1),t(2) = 2,1 != 1,1"),
        (1, "t(3)-t(1) = 3 != 4^1*t(1) = 8"),
    ]
    assert [w["n"] for w in report.witnesses] == [0, 2, 3, 4, 5, 6, 7, 8]
