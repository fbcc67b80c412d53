import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsum import cyclotomic, intpoly, reduction
from subsum.partitions import PartitionClass

import oracles


def test_phi_small_values():
    assert oracles.phi_by_division(2) == (1, 1)
    assert oracles.phi_by_division(4) == (1, 0, 1)
    assert oracles.phi_by_division(6) == (1, -1, 1)
    assert oracles.phi_by_division(12) == (1, 0, -1, 0, 1)
    assert oracles.phi_by_division(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)


def test_phi_product_over_divisors_is_xm_minus_1():
    # x^(2m) - 1 = (x^m - 1)(x^m + 1), and 1 + x^m is the product of the
    # Phi_2d over the d with m/d odd.
    for m in range(1, 61):
        product = (1,)
        for d in range(1, m + 1):
            if m % d == 0 and (m // d) % 2:
                product = oracles.naive_mul(product, oracles.phi_by_division(2 * d))
        assert product == oracles.binom_poly(m), m


def test_phi_by_moebius_products_matches_division_oracle():
    # Phi_2d = prod (1 + x^j)^E_j (`binomial_exponents`): Phi_2d times the
    # binomials with E_j < 0 is the product of those with E_j > 0.
    for d in range(1, 401):
        exps = cyclotomic.binomial_exponents({d: 1})
        up = cyclotomic.expand_binomials({j: e for j, e in exps.items() if e > 0})
        down = cyclotomic.expand_binomials({j: -e for j, e in exps.items() if e < 0})
        assert oracles.naive_mul(oracles.phi_by_division(2 * d), down) == up, d


def test_phi_monic_with_totient_degree():
    totients = oracles.totient_sieve(200)
    for d in range(1, 101):
        p = oracles.phi_by_division(2 * d)
        assert p[-1] == 1
        assert len(p) - 1 == totients[2 * d]


@pytest.mark.parametrize(
    "d,i,expected",
    [(2, 6, True), (2, 2, True), (2, 4, False), (1, 3, True), (3, 3, True), (3, 6, False)],
)
def test_binomial_cyclo_divides_examples(d, i, expected):
    # Phi_2d divides 1 + x^i exactly when i/d is an odd integer, and then once.
    assert oracles.cyclo_exponents({i: 1}).get(d) == (1 if expected else None)


def test_binomial_cyclo_divides_matches_remainders():
    for i in range(1, 21):
        factors = oracles.cyclo_exponents({i: 1})
        for d in range(1, 21):
            rem = oracles.remainder_mod_monic(oracles.binom_poly(i), oracles.phi_by_division(2 * d))
            assert (d in factors) == (rem == ()), (d, i)
            if d in factors:
                assert factors[d] == 1, (d, i)
                # multiplicity exactly one: the quotient is no longer divisible
                q = oracles.exact_div(oracles.binom_poly(i), oracles.phi_by_division(2 * d))
                assert oracles.remainder_mod_monic(q, oracles.phi_by_division(2 * d)) != ()


def _prime_power_base(m):
    """q when m = q^a for a prime q and a >= 1, else None."""
    q = next(q for q in range(2, m + 1) if m % q == 0)
    while m % q == 0:
        m //= q
    return q if m == 1 else None


def test_phi_at_one_closed_form():
    """Phi_m(1), m > 1, is q when m is a power of the prime q, else 1; for m = 2d, 2 or 1."""
    assert intpoly.eval_at_int(oracles.phi_by_division(6), 1) == 1
    assert intpoly.eval_at_int(oracles.phi_by_division(2), 1) == 2
    assert intpoly.eval_at_int(oracles.phi_by_division(128), 1) == 2
    for d in range(1, 101):
        q = _prime_power_base(2 * d)
        assert intpoly.eval_at_int(oracles.phi_by_division(2 * d), 1) == (q or 1), d


def test_phi_at_minus_one():
    """Phi_m(-1), m > 2, is 2 when m is a power of 2, q when m = 2 q^a for
    an odd prime q, else 1."""
    assert intpoly.eval_at_int(oracles.phi_by_division(6), -1) == 3
    assert intpoly.eval_at_int(oracles.phi_by_division(250), -1) == 5
    for a in range(1, 4):
        assert intpoly.eval_at_int(oracles.phi_by_division(2 * 3**a), -1) == 3
    for d in range(2, 101):
        m = 2 * d
        if _prime_power_base(m) == 2:
            want = 2
        elif m % 4 == 2:
            want = _prime_power_base(m // 2) or 1
        else:
            want = 1
        assert intpoly.eval_at_int(oracles.phi_by_division(2 * d), -1) == want, d


def test_expand_binomials_examples():
    den4 = cyclotomic.expand_binomials({1: 4, 2: 2, 3: 1, 4: 1})
    assert len(den4) - 1 == 15
    assert den4 == oracles.expand_factor_map({1: 4, 2: 2, 3: 1, 4: 1})
    assert cyclotomic.expand_binomials({}) == (1,)
    assert cyclotomic.expand_binomials({2: 1, 1: 2}) == (1, 2, 2, 2, 1)


factor_maps = st.dictionaries(
    st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=3), max_size=5
)


@given(factor_maps)
@settings(max_examples=80, deadline=None)
def test_cyclo_exponents_reconstruct_expansion(f):
    via_cyclo = cyclotomic.expand_cyclotomics(oracles.cyclo_exponents(f))
    assert via_cyclo == cyclotomic.expand_binomials(f)


@given(st.lists(factor_maps, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_min_exponents_matches_gcd_oracle(fs):
    structured = cyclotomic.expand_cyclotomics(oracles.min_exponents(fs))
    brute = oracles.gcd_binomial_products_expanded(fs)
    assert structured == brute


def test_min_exponents_examples():
    h_maps_n4 = [
        {1: 4, 2: 2, 3: 1},
        {1: 3, 2: 2, 4: 1},
        {1: 4, 3: 1, 4: 1},
        {1: 2, 2: 1, 3: 1, 4: 1},
        {2: 2, 3: 1, 4: 1},
    ]
    assert oracles.min_exponents(h_maps_n4) == {1: 1}
    assert oracles.min_exponents([{1: 2, 2: 1}]) == oracles.cyclo_exponents({1: 2, 2: 1})
    assert oracles.min_exponents([{1: 2}, {2: 1}]) == {}
    with pytest.raises(ValueError):
        oracles.min_exponents([])


def test_cyclo_degree_matches_expansion():
    for c in ({}, {1: 1}, {1: 4, 2: 2, 3: 1, 4: 1}, {2: 3, 6: 1}):
        assert cyclotomic.cyclo_degree(c) == len(cyclotomic.expand_cyclotomics(c)) - 1


def test_expand_binomials_one_binomial_power():
    assert cyclotomic.expand_binomials({3: 2}) == oracles.naive_pow(oracles.binom_poly(3), 2)
    assert cyclotomic.expand_binomials({1: 0}) == (1,)
    with pytest.raises(ValueError):
        cyclotomic.expand_binomials({1: -1})


def test_binomial_exponents_examples():
    assert cyclotomic.binomial_exponents({}) == {}
    assert cyclotomic.binomial_exponents({1: 2}) == {1: 2}  # Phi_2 = 1 + x
    assert cyclotomic.binomial_exponents({3: 1}) == {3: 1, 1: -1}  # Phi_6 = (1+x^3)/(1+x)
    assert cyclotomic.binomial_exponents({6: 1}) == {6: 1, 2: -1}  # Phi_12 = (1+x^6)/(1+x^2)
    assert cyclotomic.binomial_exponents({15: 1}) == {15: 1, 5: -1, 3: -1, 1: 1}
    assert cyclotomic.binomial_exponents({1: 1, 3: 1}) == {3: 1}  # Phi_2 Phi_6 = 1 + x^3
    with pytest.raises(ValueError):
        cyclotomic.binomial_exponents({1: -1})


@pytest.mark.parametrize("pclass", list(PartitionClass))
def test_den_and_g_expand_to_products_of_oracle_phi(pclass):
    for n in range(0, 25):
        for c in (reduction.den(n, pclass), reduction.big_g(n, pclass)):
            assert all(e >= 0 for e in cyclotomic.binomial_exponents(c).values()), (pclass, n)
            assert cyclotomic.expand_cyclotomics(c) == oracles.expand_phi_product(c), (pclass, n)


binomial_divisors = st.dictionaries(
    st.integers(min_value=1, max_value=15), st.integers(min_value=0, max_value=3), max_size=4
)
signed_polys = st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=1, max_size=12).filter(
    lambda p: p[-1] != 0
)


@given(signed_polys, binomial_divisors, st.booleans())
@settings(max_examples=150, deadline=None)
def test_packed_quotient_matches_schoolbook(q, f, palindromic):
    # Random divisible inputs, palindromic or not, over a divisor that is a binomial product.
    if palindromic:
        q = q + q[-2::-1]
    q = intpoly.normalize(q)
    c = oracles.cyclo_exponents(f)
    divisor = cyclotomic.expand_cyclotomics(c)
    a = oracles.naive_mul(q, divisor)
    assert cyclotomic.divide_cyclotomics(a, c) == q == oracles.exact_div(a, divisor)
    if len(divisor) > 1:
        with pytest.raises(intpoly.NotDivisibleError):
            cyclotomic.divide_cyclotomics(oracles.naive_add(a, (1,)), c)


@pytest.mark.parametrize("length", [600, 601])
def test_quotient_wider_than_dividend(length):
    # q = 1 - 2x + 3x^2 - ... rising to 300 and falling back to 1 (a
    # palindrome when the length is odd) times 1 + x has coefficients in
    # {-1, 0, 1}: the dividend fits one byte per digit, the quotient needs two.
    q = tuple((-1) ** k * min(k + 1, length - k) for k in range(length))
    a = oracles.naive_mul(q, (1, 1))
    assert max(map(abs, a)) == 1
    assert cyclotomic.divide_cyclotomics(a, {1: 1}) == q == oracles.exact_div(a, (1, 1))


@pytest.mark.parametrize("sign", [1, -1])
def test_every_single_coefficient_off_is_refused(sign):
    # a = q * G with +-1 added at any one position has a nonzero remainder.
    # G = (1+x^2)(1+x^3)(1+x^4) has no factor 1 + x, whose step would
    # catch every single error alone; each top block must be checked whole.
    c = {1: 1, 2: 1, 3: 1, 4: 1}
    assert cyclotomic.binomial_exponents(c) == {2: 1, 3: 1, 4: 1}
    q = (3, -1, 4, 1, -5, 9, 2)
    a = oracles.naive_mul(q, cyclotomic.expand_cyclotomics(c))
    assert cyclotomic.divide_cyclotomics(a, c) == q
    for k in range(len(a)):
        off = list(a)
        off[k] += sign
        with pytest.raises(intpoly.NotDivisibleError):
            cyclotomic.divide_cyclotomics(off, c)


def test_divide_cyclotomics_edges():
    assert cyclotomic.divide_cyclotomics((), {1: 3}) == ()
    assert cyclotomic.divide_cyclotomics((1, 2, 3), {}) == (1, 2, 3)
    with pytest.raises(intpoly.NotDivisibleError):
        cyclotomic.divide_cyclotomics((1, 1), {1: 2})


@pytest.mark.parametrize("c", [{3: 1}, {15: 1}])
def test_non_binomial_divisors_are_refused(c):
    # Phi_6 = (1+x^3)/(1+x) and Phi_30 have binomial exponents below zero.
    with pytest.raises(ValueError):
        cyclotomic.expand_cyclotomics(c)
    with pytest.raises(ValueError):
        cyclotomic.divide_cyclotomics(oracles.phi_by_division(2 * min(c)), c)


def test_phi_2d_divides_matches_direct_remainder():
    # The folds decide divisibility exactly as the schoolbook remainder mod Phi_2d does.
    for pclass in PartitionClass:
        for n in range(0, 25):
            num = reduction.num(n, pclass, "dp")
            for d in range(1, n + 3):
                want = oracles.remainder_mod_monic(num, oracles.phi_by_division(2 * d)) == ()
                assert cyclotomic.phi_2d_divides(num, d) == want, (pclass, n, d)


# d with 0, 1, 2, 3 and 4 odd primes, so every term of the Moebius sum is needed.
@pytest.mark.parametrize("d", [1, 2, 3, 12, 15, 105, 210, 1155])
def test_phi_2d_divides_multiples_of_phi(d):
    rng = random.Random(d)
    phi = oracles.phi_by_division(2 * d)
    for _ in range(4):
        q = intpoly.normalize([rng.randint(-(2**64), 2**64) for _ in range(rng.randint(1, 3 * d))])
        a = oracles.naive_mul(q, phi)
        assert cyclotomic.phi_2d_divides(a, d), (d, q)
        assert not cyclotomic.phi_2d_divides(oracles.naive_add(a, (1,)), d), (d, q)
