import warnings
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsum import cyclotomic, intpoly, reduction
from subsum.partitions import PartitionClass, allowed_parts, enumerate_partitions, multiplicities
from subsum.reduction import InvalidPartitionError

import oracles

ORD = PartitionClass.ORDINARY
ODD = PartitionClass.ODD
BIN = PartitionClass.BINARY
TER = PartitionClass.TERNARY
CLASSES = list(PartitionClass)

NUM4 = (5, 8, 15, 14, 24, 20, 24, 14, 15, 8, 5)
NUMB4 = (4, 10, 18, 18, 20, 18, 18, 10, 4)


def test_spol_examples():
    assert reduction.spol((4,)) == (1, 0, 0, 0, 1)
    assert reduction.spol(()) == (1,)
    assert reduction.spol((3, 1)) == (1, 1, 0, 1, 1)
    assert reduction.spol((2, 2)) == (1, 0, 2, 0, 1)
    assert reduction.spol((2, 1, 1)) == (1, 2, 2, 2, 1)


def test_den_star_examples():
    assert reduction.den_star(4, ORD) == {1: 4, 2: 2, 3: 1, 4: 1}
    for pclass in CLASSES:
        assert reduction.den_star(1, pclass) == {1: 1}
    assert reduction.den_star(4, BIN) == {1: 4, 2: 2, 4: 1}
    assert reduction.den_star(9, TER) == {1: 9, 3: 3, 9: 1}


def test_h_factored_golden_n4():
    expected = {
        (4,): {1: 4, 2: 2, 3: 1},
        (3, 1): {1: 3, 2: 2, 4: 1},
        (2, 2): {1: 4, 3: 1, 4: 1},
        (2, 1, 1): {1: 2, 2: 1, 3: 1, 4: 1},
        (1, 1, 1, 1): {2: 2, 3: 1, 4: 1},
    }
    for p, want in expected.items():
        assert reduction.h_factored(4, ORD, multiplicities(p)) == want


def test_h_factored_trivial_and_errors():
    assert reduction.h_factored(1, ORD, {1: 1}) == {}
    with pytest.raises(InvalidPartitionError):
        reduction.h_factored(4, ORD, {5: 1})  # not a partition of 4
    with pytest.raises(InvalidPartitionError):
        reduction.h_factored(4, BIN, {3: 1, 1: 1})  # 3 is not binary
    with pytest.raises(InvalidPartitionError):
        reduction.h_factored(4, ORD, {2: 3})  # wrong weight
    with pytest.raises(InvalidPartitionError):
        reduction.h_factored(4, ORD, {1: 2, 2: 1, 4: 0})  # zero multiplicity entry
    with pytest.raises(InvalidPartitionError):
        reduction.h_factored(4, ORD, {1: 1.5, 2: 1.25})  # weight 4 from fractional multiplicities
    with pytest.raises(InvalidPartitionError):
        reduction.h_factored(3, ORD, {1.5: 2})  # a fractional part


def test_h_times_spol_is_den_star():
    for pclass in CLASSES:
        for n in range(1, 10):
            star = cyclotomic.expand_binomials(reduction.den_star(n, pclass))
            for p in enumerate_partitions(n, pclass):
                h = cyclotomic.expand_binomials(
                    reduction.h_factored(n, pclass, multiplicities(p))
                )
                assert oracles.naive_mul(h, reduction.spol(p)) == star


def test_big_g_examples():
    assert reduction.big_g(4, ORD) == {1: 1}
    for n in range(0, 33):
        assert reduction.big_g(n, BIN) == {}
    assert reduction.big_g(9, TER) == {1: 4, 3: 1}
    assert reduction.big_g(0, ORD) == {}


def test_n0_is_the_empty_partition_in_every_layer():
    # n = 0 has no allowed parts and one partition, the empty one, so every
    # object built from it is an empty product.
    for pclass in CLASSES:
        assert allowed_parts(pclass, 0) == []
        assert list(enumerate_partitions(0, pclass)) == [()]
        assert reduction.den_star(0, pclass) == {}
        assert reduction.den(0, pclass) == {}
        assert reduction.big_g(0, pclass) == {}
        assert reduction._num_star_enumerate(0, pclass) == (1,), pclass
        for engine in ("dp", "both"):
            assert reduction.num_star(0, pclass, engine) == (1,), (pclass, engine)
            assert reduction.num(0, pclass, engine) == (1,), (pclass, engine)
        for x0 in (1, -1):
            assert reduction._order_at(0, pclass, x0) == (0, 1), (pclass, x0)
            assert reduction.num_at(0, pclass, x0) == 1, (pclass, x0)
    assert reduction.t_values(0) == [1]


def test_den_is_floor_n_over_d_at_every_allowed_d():
    # den = prod Phi_2d^floor(n/d) over allowed d <= n, and G is the rest of den*.
    for pclass in CLASSES:
        for n in range(1, 25):
            expected = {d: n // d for d in allowed_parts(pclass, n)}
            assert reduction.den(n, pclass) == expected, (pclass, n)
            assert reduction.big_g(n, pclass) == oracles.big_g(n, pclass), (pclass, n)


def test_big_g_n4_matches_brute_force_polynomial_gcd():
    hs = [
        reduction.h_factored(4, ORD, multiplicities(p)) for p in enumerate_partitions(4, ORD)
    ]
    brute = oracles.gcd_binomial_products_expanded(hs)
    assert brute == (1, 1)
    assert cyclotomic.expand_cyclotomics(reduction.big_g(4, ORD)) == brute


def test_num_star_engines_agree():
    # The DP takes only ring steps S, p -> p * (1+x^i), on the low half of
    # a palindrome; the streaming fold adds every cofactor in full.
    for pclass in CLASSES:
        for n in range(0, 15):
            assert reduction.num_star(n, pclass, "dp") == reduction._num_star_enumerate(
                n, pclass
            ), (pclass, n)


def _at_one(n, pclass):
    return reduction._ring_dp(n, allowed_parts(pclass, n), reduction._times_binomials_at_one)


def test_ring_dp_at_one_is_num_star_at_one():
    for pclass in CLASSES:
        for n in range(0, 25):
            assert _at_one(n, pclass) == intpoly.eval_at_int(reduction.num_star(n, pclass), 1), (pclass, n)


@pytest.mark.parametrize("pclass, n", [(ORD, 20), (ODD, 29), (BIN, 34), (TER, 48)])
def test_packed_dp_at_first_digit_wider_than_a_word(pclass, n):
    # The packed DP reads num* as digits of unpack_width(num*(n,1)) bytes;
    # n is the first where that exceeds the 8-byte machine word.
    assert intpoly.unpack_width(_at_one(n - 1, pclass)) <= 8
    assert intpoly.unpack_width(_at_one(n, pclass)) > 8
    assert reduction.num_star(n, pclass) == reduction._num_star_enumerate(n, pclass)


def test_num_star_n2():
    assert reduction.num_star(2, ORD) == (2, 2, 2)


def test_num4_is_num_star_divided_by_1_plus_x():
    assert oracles.exact_div(reduction.num_star(4, ORD), (1, 1)) == NUM4


def test_num_golden_ordinary_n4():
    assert reduction.num(4, ORD, "dp") == NUM4
    g = reduction.big_g(4, ORD)
    assert g == {1: 1}
    assert cyclotomic.expand_cyclotomics(g) == (1, 1)
    den = reduction.den(4, ORD)
    assert den == {1: 4, 2: 2, 3: 1, 4: 1}
    # den = (1+x)^3 (1+x^2)^2 (1+x^3) (1+x^4), expanded independently
    assert cyclotomic.expand_cyclotomics(den) == oracles.expand_factor_map({1: 3, 2: 2, 3: 1, 4: 1})


def test_num_golden_binary_n4():
    assert reduction.num(4, BIN, "dp") == NUMB4
    assert reduction.big_g(4, BIN) == {}


def test_num_small_and_conventions():
    assert reduction.num(0, ORD, "dp") == (1,)
    assert reduction.den(0, ORD) == {} and reduction.big_g(0, ORD) == {}
    assert reduction.num(1, ORD, "dp") == (1,)
    assert reduction.den(1, ORD) == {1: 1}
    assert reduction.num(2, ORD, "dp") == (2, 2, 2)


def test_num_has_one_call_form_and_one_entry_per_key(monkeypatch):
    real = reduction._num_star_dp
    calls = []

    def counting(n, pclass):
        calls.append(n)
        return real(n, pclass)

    monkeypatch.setattr(reduction, "_num_star_dp", counting)
    reduction.num.cache_clear()
    try:
        first = reduction.num(7, ORD, "dp")
        assert reduction.num(7, ORD, "dp") is first
        with pytest.raises(TypeError):
            reduction.num(7, ORD, engine="dp")
        with pytest.raises(TypeError):
            reduction.num(n=7, pclass=ORD, engine="dp")
        with pytest.raises(TypeError):
            reduction.num(7, ORD)
    finally:
        reduction.num.cache_clear()
    assert calls == [7]


def test_num_cache_holds_lemma4_working_set():
    # Lemma 4 to n = 40 reads num at 0..40 under "both" and at n mod d < 20
    # under "dp"; the bound must hold them with both engines.
    maxsize = reduction.num.cache_info().maxsize
    assert maxsize is not None and maxsize >= 2 * (40 + 1)


def test_reconstruction_identities():
    for pclass in CLASSES:
        for n in range(0, 26):
            g = reduction.big_g(n, pclass)
            num = reduction.num(n, pclass, "dp")
            assert oracles.naive_mul(cyclotomic.expand_cyclotomics(g), num) == reduction.num_star(n, pclass)
            den_star_cyclo = oracles.cyclo_exponents(reduction.den_star(n, pclass))
            merged = dict(reduction.den(n, pclass))
            for d, e in g.items():
                merged[d] = merged.get(d, 0) + e
            assert merged == den_star_cyclo


def test_num_positive_ends():
    for pclass in CLASSES:
        for n in range(1, 31):
            num = reduction.num(n, pclass, "dp")
            assert num[0] > 0 and num[-1] > 0


def test_degree_drop_and_palindrome_regressions():
    # Observed regularities, reported but not hard-failed: deg num = deg den - n,
    # and num reads the same in both directions.
    findings = []
    for n in range(1, 21):
        num = reduction.num(n, ORD, "dp")
        if len(num) - 1 != cyclotomic.cyclo_degree(reduction.den(n, ORD)) - n:
            findings.append(f"degree drop violated at n={n}")
        if num != num[::-1]:
            findings.append(f"palindromicity violated at n={n}")
    for f in findings:
        warnings.warn(f)
    assert True


def _pair_at(n, pclass, x0):
    x0 = Fraction(x0)
    num = reduction.num(n, pclass, "dp")
    den = cyclotomic.expand_cyclotomics(reduction.den(n, pclass))
    return intpoly.eval_at_int(num, x0) / intpoly.eval_at_int(den, x0)


def test_sr_eval_rational_examples():
    assert _pair_at(4, ORD, 0) == 5
    assert _pair_at(2, ORD, 2) == Fraction(14, 45)
    assert _pair_at(0, ORD, 7) == 1


def test_sr_eval_matches_num_over_den():
    for pclass in CLASSES:
        for n in range(0, 16):
            parts = list(enumerate_partitions(n, pclass))
            for x0 in (2, -2, Fraction(1, 2), 3):
                assert oracles.reciprocal_sum(parts, x0) == _pair_at(n, pclass, x0), (pclass, n, x0)


def test_sr_eval_matches_independent_reciprocal_sum():
    # The partitions come from the oracle's own enumeration here.
    for n in range(0, 9):
        parts = oracles.filtered_partitions(n, lambda _: True)
        assert oracles.reciprocal_sum(parts, 2) == _pair_at(n, ORD, 2)


def test_sr_eval_pole():
    # sp((3), -1) = 0, so the sum has a pole at -1; the pair has it as a
    # zero of den that num does not share.
    with pytest.raises(ZeroDivisionError):
        oracles.reciprocal_sum(list(enumerate_partitions(3, ORD)), -1)
    den = cyclotomic.expand_cyclotomics(reduction.den(3, ORD))
    assert intpoly.eval_at_int(den, -1) == 0
    assert intpoly.eval_at_int(reduction.num(3, ORD, "dp"), -1) != 0


def test_t_direct_values():
    assert [oracles.t_direct(n) for n in range(5)] == [1, 1, 1, 5, 5]  # t(3): (3) -> 4, (1,1,1) -> 1
    assert reduction.t_values(4) == [1, 1, 1, 5, 5]


def test_t_direct_matches_polynomial_eval():
    for n in range(0, 28):
        num_t = reduction.num(n, TER, "dp")
        assert oracles.t_direct(n) == intpoly.eval_at_int(num_t, 1), n


def test_t_values_match_the_enumeration_oracle():
    assert reduction.t_values(60) == [oracles.t_direct(m) for m in range(61)]
    with pytest.raises(ValueError):
        reduction.t_values(-1)


@pytest.mark.parametrize(
    "x0, tops",
    [(1, ((TER, 40), (ORD, 16), (ODD, 20), (BIN, 32))), (-1, ((ODD, 60), (TER, 90), (ORD, 30), (BIN, 30)))],
    ids=["1", "-1"],
)
def test_num_at_matches_the_full_path(x0, tops):
    for pclass, top in tops:
        for n in range(top + 1):
            want = intpoly.eval_at_int(reduction.num(n, pclass, "dp"), x0)
            assert reduction.num_at(n, pclass, x0) == want, (pclass, n)


# (g, T_G) at n = 15 odd, G = (1+x)^11 (1+x^3)^2 (1+x^5), and n = 10
# ternary, G = (1+x)^3 (1+x^3): at x0 = -1 the odd j vanish, at x0 = 1
# none does, so g = 0 and T_G = G(1).
@pytest.mark.parametrize("x0, golden", [(-1, [(14, 45), (4, 3)]), (1, [(0, 2**14), (0, 2**4)])], ids=["-1", "1"])
def test_order_at_is_the_leading_term_of_g_at_x0(x0, golden):
    # G(x0 + t) = T_G t^g + O(t^(g+1)): golden (g, T_G), then the Taylor
    # coefficients of the oracle's expanded G at x0, by Horner in t.
    assert [reduction._order_at(15, ODD, x0), reduction._order_at(10, TER, x0)] == golden
    for pclass in CLASSES:
        for n in range(31):
            taylor = (0,)
            for c in reversed(oracles.expand_phi_product(reduction.big_g(n, pclass))):
                taylor = oracles.naive_add(oracles.naive_mul(taylor, (x0, 1)), (c,))
            g, lead = reduction._order_at(n, pclass, x0)
            assert (list(taylor[:g]), taylor[g]) == ([0] * g, lead), (pclass, n)


@pytest.mark.parametrize("n", [17, 18])
def test_odd_18_quotient_wider_than_num_star(n):
    # At odd n = 18 num* still fits 31 bits, but num has a 32-bit
    # coefficient: the quotient outgrows the dividend.
    star, g = reduction.num_star(n, ODD), reduction.big_g(n, ODD)
    num = cyclotomic.divide_cyclotomics(star, g)
    assert num == oracles.exact_div(star, oracles.expand_phi_product(g))


@given(st.integers(min_value=0, max_value=12), st.sampled_from(CLASSES))
@settings(max_examples=40, deadline=None)
def test_exact_division_by_g_always_clean(n, pclass):
    # num raises NotDivisibleError on any pipeline bug, and its quotient
    # is the schoolbook one by the oracle's Phi.
    star = reduction.num_star(n, pclass)
    want = oracles.exact_div(star, oracles.expand_phi_product(reduction.big_g(n, pclass)))
    assert reduction.num(n, pclass, "dp") == want


def _at_mod(f, z, p):
    value = 0
    for c in reversed(f):
        value = (value * z + c) % p
    return value


@pytest.mark.parametrize("pclass", CLASSES)
def test_leading_coefficient_times_d_is_num_at_zeta(pclass):
    """L(n) * D = num(n)(zeta) mod p for every allowed d <= 24 and n <= 24.

    D = Phi'_2d(zeta)^floor(n/d) * prod over the other allowed d' <= n of
    Phi_2d'(zeta)^floor(n/d'), built here from the division-built Phi_2d
    and its derivative.
    """
    for d in allowed_parts(pclass, 24):
        phi = oracles.phi_by_division(2 * d)
        derivative = tuple(j * c for j, c in enumerate(phi))[1:]
        p, zeta = reduction.root_of_unity(d, 0)
        lc = pow(d * pow(zeta, d - 1, p), -1, p)
        for n in range(25):
            big_d = pow(_at_mod(derivative, zeta, p), n // d, p)
            for e in allowed_parts(pclass, n):
                if e != d:
                    big_d = big_d * pow(_at_mod(oracles.phi_by_division(2 * e), zeta, p), n // e, p) % p
            assert big_d
            got_p, got_zeta, lead = reduction.leading_coefficient(n, pclass, d)
            assert (got_p, got_zeta) == (p, zeta)
            num = reduction.num(n, pclass, "dp")
            assert lead * big_d % p == _at_mod(num, zeta, p), (n, d)
            # Lemma 4 inside the DP, which the pass computes but does not assume.
            assert lead == pow(lc, n // d, p) * reduction.leading_coefficient(n % d, pclass, d)[2] % p


def test_root_of_unity_primes_and_orders():
    for d, j in [(d, 0) for d in range(1, 41)] + [(d, 1) for d in (1, 6, 15, 40)]:
        m, floor = 2 * d, 10**6 << j
        p, zeta = reduction.root_of_unity(d, j)
        # The first prime = 1 (mod 2d) above the floor 10^6 * 2^j, by trial division alone.
        assert p > floor and p % m == 1 and oracles.is_prime(p)
        assert not any(oracles.is_prime(c) for c in range(p - m, floor, -m))
        orders = [next(j for j in range(1, m + 1) if pow(pow(a, (p - 1) // m, p), j, p) == 1) for a in range(2, 40)]
        assert next(j for j in range(1, m + 1) if pow(zeta, j, p) == 1) == m
        assert zeta == pow(2 + orders.index(m), (p - 1) // m, p)
    with pytest.raises(ValueError):
        reduction.root_of_unity(0, 0)


def test_leading_coefficient_needs_an_allowed_part():
    with pytest.raises(ValueError):
        reduction.leading_coefficient(9, BIN, 3)
    with pytest.raises(ValueError):
        reduction.leading_coefficient(-1, ORD, 1)


def test_leading_coefficient_needs_p_above_2n():
    # The floors are 10^6 * 2^j; a floor whose prime is at most 2n is skipped.
    p = reduction.root_of_unity(1, 0)[0]
    assert p == 1_000_003
    assert reduction.leading_coefficient((p - 1) // 2, ORD, 1)[0] == p
    assert reduction.root_of_unity(1, 1)[0] == 2_000_003
    for n in ((p + 1) // 2, 600_000, 1_000_001):
        assert reduction.leading_coefficient(n, BIN, 1)[0] == 2_000_003, n
    assert reduction.leading_coefficient(1_000_002, BIN, 1)[0] == reduction.root_of_unity(1, 2)[0] > 4 * 10**6


def test_the_zero_at_d_1534_takes_the_next_floor():
    # The ordinary block at d = 1534, j = 0 vanishes at r = 245, so n = 1779
    # is certified at j = 1; its j = 1 entry is nonzero.
    assert reduction.root_of_unity(1534, 0) == (1_009_373, 20_124)
    assert reduction._leading_block(ORD, 1534, 0)[1][245] == 0
    assert reduction.leading_coefficient(1779, ORD, 1534) == (2_015_677, 1_271_540, 922_215)
    assert reduction.root_of_unity(1534, 1) == (2_015_677, 1_271_540)
    assert reduction._leading_block(ORD, 1534, 1)[1][245] == 1_544_783


def test_a_zero_in_the_block_takes_the_next_floor(monkeypatch):
    # The j = 0 block at d = 5 is patched to hold a zero at r = 3: every
    # n = 3 (mod 5) is certified at j = 1, every other n at j = 0, and
    # the independent checker accepts each against the real num(n).
    real = reduction._leading_block

    def zeroed(pclass, d, j):
        c, block = real(pclass, d, j)
        if (d, j) == (5, 0):
            block = array("q", block)
            block[3] = 0
        return c, block

    monkeypatch.setattr(reduction, "_leading_block", zeroed)
    for n in range(30):
        p, zeta, lead = reduction.leading_coefficient(n, ORD, 5)
        assert (p, zeta) == reduction.root_of_unity(5, 1 if n % 5 == 3 else 0), n
        assert oracles.certificate_problems(n, reduction.num(n, ORD, "dp"), [5, p, zeta, lead]) == [], n


def test_past_the_old_ceiling_a_certificate_takes_a_higher_floor(low_floor):
    # With the floor at 16, the primes of the first floors at d = 1 are 17
    # and 37, both at most 2n = 40, so n = 20 takes j = 2 there; at every
    # d the prime is above 40 and the checker accepts the certificate.
    assert [reduction.root_of_unity(1, j)[0] for j in range(3)] == [17, 37, 67]
    assert reduction.leading_coefficient(20, ORD, 1)[0] == 67
    num = reduction.num(20, ORD, "dp")
    for d in range(1, 21):
        p, zeta, lead = reduction.leading_coefficient(20, ORD, d)
        assert p > 40, d
        assert oracles.certificate_problems(20, num, [d, p, zeta, lead]) == [], d


def test_a_skipped_floor_builds_no_block(monkeypatch, low_floor):
    # With the floor at 16, n = 20 skips every floor with p <= 40 (j = 0
    # and 1 at d = 1).  Only usable floors build a block, and each
    # certificate is the one the walk over the oracle's full recurrence
    # picks at the same floors.
    real, built = reduction._leading_block, []

    def spy(pclass, d, j):
        built.append((d, j))
        return real(pclass, d, j)

    monkeypatch.setattr(reduction, "_leading_block", spy)
    n = 20
    for d in range(1, n + 1):
        usable = 0
        for j in range(10):
            p, zeta = reduction.root_of_unity(d, j)
            if 2 * n < p:
                usable += 1
                lead = oracles.leading_pass(ORD.allows, d, n, p, zeta)[n]
                if lead or usable == reduction._FLOORS:
                    break
        assert reduction.leading_coefficient(n, ORD, d) == (p, zeta, lead), d
    assert (1, 0) not in built and (1, 2) in built
    assert all(reduction.root_of_unity(d, j)[0] > 2 * n for d, j in built), built


def test_leading_coefficient_matches_the_full_recurrence():
    """The cached block and lemma 4 against every cell of the full recurrence: n, d < 60."""
    for pclass in CLASSES:
        for d in allowed_parts(pclass, 59):
            p, zeta = reduction.root_of_unity(d, 0)
            want = [(p, zeta, lead) for lead in oracles.leading_pass(pclass.allows, d, 59, p, zeta)]
            assert [reduction.leading_coefficient(n, pclass, d) for n in range(60)] == want, (pclass, d)


def test_leading_block_is_cached_once_per_class_and_d():
    # Below the old ceiling and with no zero in the block, only j = 0 is built.
    reduction._leading_block.cache_clear()
    reduction.root_of_unity.cache_clear()
    keys = [(pclass, d) for pclass in (ORD, ODD) for d in (1, 3, 7)]
    for pclass, d in keys:
        for n in range(40):
            reduction.leading_coefficient(n, pclass, d)
    info = reduction._leading_block.cache_info()
    assert (info.currsize, info.misses) == (len(keys), len(keys))
    # The classes share one (p, zeta) search per d, and c, but not their blocks.
    assert reduction.root_of_unity.cache_info().misses == 3
    assert reduction._leading_block(ORD, 7, 0)[1] != reduction._leading_block(ODD, 7, 0)[1]
    assert reduction._leading_block(ORD, 7, 1)[0] == reduction._leading_block(ODD, 7, 1)[0]


def test_leading_block_has_no_zero_entry():
    # L(n) = c^floor(n/d) * L(n mod d) with c a unit, so a zero-free block
    # certifies every n at that d: no such d ever takes the full route.
    for pclass, top in ((ORD, 200), (BIN, 4096)):
        for d in allowed_parts(pclass, top):
            assert all(reduction._leading_block(pclass, d, 0)[1]), (pclass, d)
