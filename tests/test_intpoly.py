import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsum import intpoly, reduction
from subsum.intpoly import BadPrimeError, NegativeCoefficientError
from subsum.partitions import PartitionClass

import oracles

NUM4 = (5, 8, 15, 14, 24, 20, 24, 14, 15, 8, 5)
NUMB4 = (4, 10, 18, 18, 20, 18, 18, 10, 4)

polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=8).map(intpoly.normalize)
nonzero_polys = polys.filter(lambda p: p != ())
big_polys = st.lists(
    st.integers(min_value=-(2**128), max_value=2**128), min_size=1, max_size=6
).map(intpoly.normalize)


def test_add_examples():
    # Sums and products are the naive oracles' (src/ takes neither; it expands by shift-adds).
    assert oracles.naive_add((1, 1), (1, 0, 1)) == (2, 1, 1)
    assert oracles.naive_add((3, 1), ()) == (3, 1)
    assert oracles.naive_add((1, 2), (0, -2)) == (1,)
    # (1+x)^2 + (1+x^2) is the unreduced numerator for n=2
    assert oracles.naive_add((1, 2, 1), (1, 0, 1)) == (2, 2, 2)


def test_mul_examples():
    assert oracles.naive_mul((1, 1), (1, 0, 0, 1)) == (1, 1, 0, 1, 1)
    assert oracles.naive_mul((4, 0, 2), (1,)) == (4, 0, 2)
    assert oracles.naive_mul((1, 0, 1), (1, 0, 1)) == (1, 0, 2, 0, 1)
    assert oracles.naive_mul((1, 1), ()) == ()


def test_power_examples():
    assert oracles.naive_pow((1, 1), 4) == (1, 4, 6, 4, 1) == oracles.naive_mul((1, 2, 1), (1, 2, 1))
    assert oracles.naive_pow((7, -2, 3), 0) == (1,)
    assert oracles.naive_pow((1, 0, 1), 0) == (1,)


def test_normalization_strips_trailing_zeros():
    assert intpoly.normalize([0, 1, 0, 0]) == (0, 1)
    assert intpoly.normalize([0, 0]) == ()


def test_exact_div_examples():
    # The schoolbook division oracle that the packed quotient is checked against.
    assert oracles.exact_div((1, 2, 1), (1, 1)) == (1, 1)
    with pytest.raises(ArithmeticError):
        oracles.exact_div((1, 0, 1), (1, 1))
    with pytest.raises(ArithmeticError):
        oracles.exact_div((1, 2), (2,))


@given(big_polys, big_polys.filter(lambda p: p != ()))
@settings(max_examples=150)
def test_exact_div_inverts_mul(a, b):
    assert oracles.exact_div(oracles.naive_mul(a, b), b) == a


def test_remainder_examples():
    # The schoolbook remainder that `cyclotomic.phi_2d_divides` is checked against.
    assert oracles.remainder_mod_monic((1, 0, 1), (1, 1)) == (2,)
    product = oracles.naive_mul((1, 0, 1), (3, 1))
    assert oracles.remainder_mod_monic(product, (1, 0, 1)) == ()
    assert oracles.remainder_mod_monic(NUM4, (1, 1)) == (24,)


def test_remainder_requires_monic():
    with pytest.raises(oracles.NotMonicError):
        oracles.remainder_mod_monic((1, 2, 3), (1, 2))
    with pytest.raises(oracles.NotMonicError):
        oracles.remainder_mod_monic((1, 2, 3), (5,))


@given(polys, nonzero_polys)
@settings(max_examples=150)
def test_remainder_reconstruction(a, m):
    m = intpoly.normalize(list(m[:-1]) + [1])  # force monic
    if len(m) < 2:
        m = (0, 1)
    r = oracles.remainder_mod_monic(a, m)
    assert len(r) < len(m)
    q = oracles.exact_div(oracles.naive_add(a, [-c for c in r]), m)
    assert oracles.naive_add(oracles.naive_mul(q, m), r) == intpoly.normalize(a)


def test_gcd_examples():
    assert oracles.gcd_primitive((1, 2, 1), oracles.naive_mul((1, 1), (1, 0, 1))) == (1, 1)
    assert oracles.gcd_primitive((2, 4), ()) == (2, 4)
    assert oracles.gcd_primitive((), (-3, -6)) == (3, 6)
    with pytest.raises(ValueError):
        oracles.gcd_primitive((), ())


def test_gcd_keeps_content():
    # gcd(2(1+x), 4(1+x)^2) = 2(1+x)
    assert oracles.gcd_primitive((2, 2), (4, 8, 4)) == (2, 2)


@given(polys, polys)
@settings(max_examples=120)
def test_gcd_divides_both(a, b):
    if not a and not b:
        return
    g = oracles.gcd_primitive(a, b)
    assert g[-1] > 0
    for p in (a, b):
        if p:
            oracles.exact_div(p, g)  # must not raise


def test_eval_examples():
    assert intpoly.eval_at_int((1, 0, 0, 0, 1), -1) == 2
    assert intpoly.eval_at_int((), 12345) == 0
    assert intpoly.eval_at_int(NUMB4, 1) == 120
    assert intpoly.eval_at_int(NUM4, -1) == 24


@given(polys, st.integers(min_value=-20, max_value=20))
@settings(max_examples=80)
def test_eval_matches_power_sum(a, x0):
    assert intpoly.eval_at_int(a, x0) == sum(c * x0**k for k, c in enumerate(a))


def test_unimodal_and_log_concave_golden():
    assert intpoly.is_unimodal(NUMB4)
    ok, idx = intpoly.is_log_concave(NUMB4)
    assert not ok and idx == 3
    assert 18 * 18 < 18 * 20  # the violated inequality, literally
    assert intpoly.is_unimodal((1,))
    assert intpoly.is_log_concave((1,)) == (True, None)


def test_unimodal_counterexamples():
    assert not intpoly.is_unimodal((1, 0, 1))
    assert intpoly.is_unimodal((0, 1, 1, 0))
    assert intpoly.is_unimodal(())


def test_log_concave_rejects_negative():
    with pytest.raises(NegativeCoefficientError):
        intpoly.is_log_concave((1, -1, 1))


def test_den4_log_concave():
    den4 = oracles.expand_factor_map({1: 3, 2: 2, 3: 1, 4: 1})
    assert intpoly.is_log_concave(den4) == (True, None)


@given(st.lists(st.integers(min_value=0, max_value=60), max_size=8))
@settings(max_examples=120)
def test_log_concave_reported_index_is_literal(coeffs):
    ok, idx = intpoly.is_log_concave(tuple(coeffs))
    if ok:
        assert idx is None
        assert all(
            coeffs[i] ** 2 >= coeffs[i - 1] * coeffs[i + 1] for i in range(1, len(coeffs) - 1)
        )
    else:
        assert coeffs[idx] ** 2 < coeffs[idx - 1] * coeffs[idx + 1]
        assert all(
            coeffs[i] ** 2 >= coeffs[i - 1] * coeffs[i + 1] for i in range(1, idx)
        )


def test_irreducible_mod_p_examples():
    assert intpoly.irreducible_mod_p((1, 0, 1), 3) is True
    assert intpoly.irreducible_mod_p((1, 0, 1), 5) is False
    # primitive part of num(2,x) = 1+x+x^2
    assert intpoly.irreducible_mod_p((2, 2, 2), 2) is True
    assert intpoly.irreducible_mod_p((7,), 3) is False  # degree 0: no certificate


@given(st.sampled_from([2, 3, 5, 7, 13]), st.data())
@settings(max_examples=150, deadline=None)
def test_frobenius_chain_matches_oracle(p, data):
    # Degrees below p make x^p itself a reduction, not a monomial row.
    k = data.draw(st.one_of(st.integers(1, max(p - 1, 1)), st.integers(1, 30)))
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k)) + [1]
    chain = list(intpoly._frobenius_chain(f, p))
    assert len(chain) == k + 1
    for j, entry in enumerate(chain):
        if p**j > 200:  # the oracle makes e products for x^e
            break
        assert tuple(entry) == oracles.gfp_powmod((0, 1), p**j, f, p)
    for prev, entry in zip(chain, chain[1:]):
        assert tuple(entry) == oracles.gfp_powmod(prev, p, f, p)


def test_frobenius_chain_x3_x_1_over_gf2():
    # x^3 + x + 1 is irreducible over GF(2): x^8 == x mod f and x^2 != x.
    f = [1, 1, 0, 1]
    chain = list(intpoly._frobenius_chain(f, 2))
    for j, entry in enumerate(chain):
        assert tuple(entry) == oracles.gfp_powmod((0, 1), 2**j, f, 2)
    assert chain[3] == chain[0] == [0, 1]
    assert chain[1] == [0, 0, 1]
    assert intpoly.irreducible_mod_p((1, 1, 0, 1), 2) is True


@pytest.mark.parametrize("k", [1, 2, 455, 456])
def test_packed_step_holds_the_largest_digit_sum(k):
    # Every coefficient and row entry at p - 1 makes each digit sum k (p-1)^2,
    # which crosses 2^8 between k = 1 and 2, and 2^16 between k = 455 and 456.
    p = 13
    width = intpoly._chain_width(k, p)
    assert 256**width > k * (p - 1) ** 2
    a = [p - 1] * k
    row = [p - 1] * k
    rows = [intpoly._pack(row, width)] * k
    want = [sum(a[i] * row[j] for i in range(k)) % p for j in range(k)]
    assert intpoly._gf_apply(a, rows, width, p) == intpoly._gf_trim(want)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("offset", [-2, 0, 1])
def test_berlekamp_q_fold_matches_oracle(p, offset):
    # k < p folds every digit, k = p folds them all through x^p .. x^(2p-1), k = p + 1 shifts one.
    k = p + offset
    for seed in range(3):
        f = [(seed * 7 + 3 * i * i + 1) % p for i in range(k)] + [1]
        width = intpoly._chain_width(k, p)
        rows = intpoly._berlekamp_q(f, p, width)
        assert len(rows) == k
        for i, row in enumerate(rows):
            assert intpoly.unpack(row, width) == oracles.gfp_powmod((0, 1), i * p, f, p), (f, i)


def _palindromic_monic(low, middle):
    low = [1] + low
    return low + [middle] + low[::-1]


# p^(deg/2) monic trial divisors bound the brute force; these degrees keep it near 3000.
_HALF_DEGREE_CAP = {3: 10, 5: 10, 7: 8, 11: 6, 13: 6}


@given(st.sampled_from(sorted(_HALF_DEGREE_CAP)), st.data())
@settings(max_examples=200, deadline=None)
def test_half_degree_route_matches_bruteforce(p, data):
    m = data.draw(st.integers(1, _HALF_DEGREE_CAP[p] // 2))
    low = data.draw(st.lists(st.integers(0, p - 1), min_size=m - 1, max_size=m - 1))
    f = _palindromic_monic(low, data.draw(st.integers(0, p - 1)))
    got = intpoly.irreducible_mod_p(f, p)
    assert got is oracles.gfp_irreducible_bruteforce(tuple(f), p)


@pytest.mark.parametrize("p", [3, 5])
def test_half_degree_route_every_small_palindrome(p):
    # Every monic palindrome of degree 2..6: the quadratics are settled by N = a^2 - 4 alone.
    for m in (1, 2, 3):
        for code in range(p**m):
            digits = [code // p**i % p for i in range(m)]
            f = _palindromic_monic(digits[1:], digits[0])
            got = intpoly.irreducible_mod_p(f, p)
            assert got is oracles.gfp_irreducible_bruteforce(tuple(f), p), f


def test_half_degree_builds_h_of_x_plus_inverse():
    # x^4 + 3x^3 + 5x^2 + 3x + 1 = x^2 ((x + 1/x)^2 + 3(x + 1/x) + 3), so h = y^2 + 3y + 3.
    p = 7  # N = h(2) h(-2) = 13 * 1 is a nonsquare mod 7
    assert pow(13, 3, p) == p - 1
    assert intpoly._half_degree([1, 3, 5, 3, 1], p) == [3, 3, 1]
    assert intpoly._half_degree([1, 3, 5, 3, 1], 3) is None  # N = 13 = 1, a square mod 3


@pytest.mark.parametrize(
    ("pclass", "ns"),
    [
        (PartitionClass.ORDINARY, range(1, 13)),
        (PartitionClass.BINARY, range(2, 25)),
        (PartitionClass.ODD, range(1, 19)),
        (PartitionClass.TERNARY, range(1, 25)),
    ],
)
def test_irreducible_mod_p_matches_full_degree_rabin(pclass, ns):
    for n in ns:
        num = reduction.num(n, pclass)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            try:
                want = oracles.rabin_full_degree(num, p) == "irreducible"
            except ValueError:
                with pytest.raises(BadPrimeError):
                    intpoly.irreducible_mod_p(num, p)
                continue
            assert intpoly.irreducible_mod_p(num, p) is want, (pclass, n, p)


@pytest.mark.parametrize(
    ("f", "p", "want"),
    [
        ((1, 1, 0, 1), 2, True),  # x^3 + x + 1
        ((1, 1, 1, 1, 1), 2, True),  # palindromic, but p = 2
        ((1, 0, 1, 0, 1), 2, False),  # (x^2 + x + 1)^2 over GF(2)
        ((2, 1, 0, 0, 1), 3, True),  # x^4 + x + 2, not palindromic
        ((1, 2, 2, 1), 5, False),  # palindromic of odd degree: -1 is a root
    ],
)
def test_full_degree_route_for_p2_and_other_shapes(monkeypatch, f, p, want):
    def forbidden(f, p):
        raise AssertionError("took the half-degree route")

    monkeypatch.setattr(intpoly, "_half_degree", forbidden)
    assert intpoly.irreducible_mod_p(f, p) is want
    assert oracles.gfp_irreducible_bruteforce(f, p) == want


def test_root_gate_builds_no_chain(monkeypatch):
    def forbidden(f, p):
        raise AssertionError("built a Frobenius chain")

    monkeypatch.setattr(intpoly, "_frobenius_chain", forbidden)
    # (x - 2)(x^2 + 1) mod 7, and x^2 + x over GF(2): each has a root in GF(p).
    assert intpoly._rabin([5, 1, 5, 1], 7) is False
    assert intpoly._rabin([0, 1, 1], 2) is False


def test_rabin_stops_at_the_first_failing_check(monkeypatch):
    # (x^2 + x + 1)(x^4 + x + 1) over GF(2) has no root; the check at k/3 = 2 fails before the one at k/2 = 3.
    f = list(oracles.gfp_mul((1, 1, 1), (1, 1, 0, 0, 1), 2))
    steps = []
    real = intpoly._frobenius_chain

    def counting(f, p):
        for entry in real(f, p):
            steps.append(entry)
            yield entry

    monkeypatch.setattr(intpoly, "_frobenius_chain", counting)
    assert intpoly._rabin(f, 2) is False
    assert len(steps) == 3  # x, x^2, x^4


def test_irreducible_mod_p_bad_prime():
    with pytest.raises(BadPrimeError):
        intpoly.irreducible_mod_p((1, 3), 3)


@pytest.mark.parametrize("p", [4, 6, 9, 1, 0, -3])
def test_irreducible_mod_p_rejects_a_modulus_that_is_not_prime(p):
    # Mod 4 the Rabin test once certified this product of two cubics.
    f = oracles.naive_mul((-1, 3, 2, 1), (1, 0, -3, 1))
    assert f == (-1, 3, 5, -9, -3, -1, 1)
    with pytest.raises(ValueError, match="not prime") as caught:
        intpoly.irreducible_mod_p(f, p)
    # BadPrimeError is a ValueError too, but the witness loop skips it.
    assert not isinstance(caught.value, BadPrimeError)


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=5),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
@settings(max_examples=150, deadline=None)
def test_irreducible_mod_p_matches_bruteforce(coeffs, p):
    f = intpoly.normalize(coeffs[:-1] + [1])  # monic, so p never divides the lead
    if len(f) < 2:
        return
    got = intpoly.irreducible_mod_p(f, p)
    want = oracles.gfp_irreducible_bruteforce(tuple(c % p for c in f), p)
    assert got is want


def test_content_and_primitive_part():
    assert intpoly.content((2, 4, 6)) == 2
    assert intpoly.content(()) == 0
    assert intpoly.primitive_part((2, 4, 6)) == (1, 2, 3)
    assert intpoly.primitive_part((-2, -4)) == (1, 2)
    assert math.gcd(*intpoly.primitive_part((6, 10, 15))) == 1


@pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 9])
def test_unpack_reads_every_digit_width(width):
    radix = 1 << (8 * width)
    top = radix - 1
    for digits in [(0, top), (top, 0, top), (top,) * 3, (5, 0, 0, 1), (0, 0, top, 1)]:
        value = sum(c * radix**k for k, c in enumerate(digits))
        assert intpoly.unpack(value, width) == digits, digits
        assert intpoly._pack(digits, width) == value, digits
    assert intpoly.unpack(0, width) == ()


def test_unpack_width_holds_the_bound():
    for bound, width in [(1, 1), (255, 1), (256, 2), (2**16, 4), (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8), (2**64, 9)]:
        assert intpoly.unpack_width(bound) == width, bound
