import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsum import intpoly
from subsum.intpoly import (
    BadPrimeError,
    IrreducibilityStatus,
    NegativeCoefficientError,
    NotMonicError,
)

import oracles

NUM4 = (5, 8, 15, 14, 24, 20, 24, 14, 15, 8, 5)
NUMB4 = (4, 10, 18, 18, 20, 18, 18, 10, 4)

polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=8).map(intpoly.normalize)
nonzero_polys = polys.filter(lambda p: p != ())
big_polys = st.lists(
    st.integers(min_value=-(2**128), max_value=2**128), min_size=1, max_size=6
).map(intpoly.normalize)


def test_add_examples():
    assert intpoly.add((1, 1), (1, 0, 1)) == (2, 1, 1)
    assert intpoly.add((3, 1), ()) == (3, 1)
    # (1+x)^2 + (1+x^2) is the unreduced numerator for n=2
    assert intpoly.add((1, 2, 1), (1, 0, 1)) == (2, 2, 2)


def test_mul_examples():
    assert intpoly.mul((1, 1), (1, 0, 0, 1)) == (1, 1, 0, 1, 1)
    assert intpoly.mul((4, 0, 2), (1,)) == (4, 0, 2)
    assert intpoly.mul((1, 0, 1), (1, 0, 1)) == (1, 0, 2, 0, 1)


def test_power_examples():
    # Powers are the naive oracle's (intpoly has no caller for its own).
    assert oracles.naive_pow((1, 1), 4) == (1, 4, 6, 4, 1) == intpoly.mul((1, 2, 1), (1, 2, 1))
    assert oracles.naive_pow((7, -2, 3), 0) == (1,)
    assert oracles.naive_pow((1, 0, 1), 0) == (1,)


def test_normalization_strips_trailing_zeros():
    assert intpoly.normalize([0, 1, 0, 0]) == (0, 1)
    assert intpoly.normalize([0, 0]) == ()
    assert intpoly.degree(()) == -1
    assert intpoly.degree((5,)) == 0


@given(polys, polys)
@settings(max_examples=200)
def test_mul_matches_naive_convolution(a, b):
    assert intpoly.mul(a, b) == oracles.naive_mul(a, b)
    assert intpoly.mul(a, b) == oracles.mul_schoolbook(a, b)


@st.composite
def straddling_pairs(draw):
    """Signed factors whose Kronecker bound max|a| * max|b| * min(len) has a chosen bit length.

    The bit lengths straddle the byte widths 1/2, 2/4, 4/8 and 8/9; 65 and 100
    bits need digits wider than a machine word.  With `extreme`, every
    coefficient has the largest magnitude, so a product coefficient
    reaches the bound itself.
    """
    bits = draw(st.sampled_from([7, 8, 15, 16, 31, 32, 63, 64, 65, 100]))
    la, lb = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    m = min(la, lb)
    top_b = draw(st.integers(1, (1 << (bits - 1)) // m))
    step = top_b * m  # top_a * step must land in [2^(bits-1), 2^bits)
    top_a = draw(st.integers(-(-(1 << (bits - 1)) // step), ((1 << bits) - 1) // step))
    extreme = draw(st.booleans())

    def factor(top, length):
        if extreme:
            sign = draw(st.sampled_from([1, -1]))
            return (sign * top,) * length
        coeffs = draw(st.lists(st.integers(-top, top), min_size=length, max_size=length))
        coeffs[draw(st.integers(0, length - 1))] = draw(st.sampled_from([top, -top]))
        if coeffs[-1] == 0:
            coeffs[-1] = top
        return tuple(coeffs)

    a, b = factor(top_a, la), factor(top_b, lb)
    assert (max(map(abs, a)) * max(map(abs, b)) * m).bit_length() == bits
    return a, b


@given(straddling_pairs())
@settings(max_examples=300)
def test_mul_matches_schoolbook_at_digit_width_edges(pair):
    a, b = pair
    assert intpoly.mul(a, b) == oracles.mul_schoolbook(a, b)


@given(polys, polys, polys)
@settings(max_examples=100)
def test_ring_axioms(a, b, c):
    assert intpoly.add(a, b) == intpoly.add(b, a)
    assert intpoly.mul(a, b) == intpoly.mul(b, a)
    assert intpoly.add(intpoly.add(a, b), c) == intpoly.add(a, intpoly.add(b, c))
    assert intpoly.mul(intpoly.mul(a, b), c) == intpoly.mul(a, intpoly.mul(b, c))
    assert intpoly.mul(a, intpoly.add(b, c)) == intpoly.add(intpoly.mul(a, b), intpoly.mul(a, c))


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
    assert oracles.exact_div(intpoly.mul(a, b), b) == a


def test_remainder_examples():
    assert intpoly.remainder_mod_monic((1, 0, 1), (1, 1)) == (2,)
    product = intpoly.mul((1, 0, 1), (3, 1))
    assert intpoly.remainder_mod_monic(product, (1, 0, 1)) == ()
    assert intpoly.remainder_mod_monic(NUM4, (1, 1)) == (24,)


def test_remainder_requires_monic():
    with pytest.raises(NotMonicError):
        intpoly.remainder_mod_monic((1, 2, 3), (1, 2))
    with pytest.raises(NotMonicError):
        intpoly.remainder_mod_monic((1, 2, 3), (5,))


@given(polys, nonzero_polys)
@settings(max_examples=150)
def test_remainder_reconstruction(a, m):
    m = intpoly.normalize(list(m[:-1]) + [1])  # force monic
    if intpoly.degree(m) < 1:
        m = (0, 1)
    r = intpoly.remainder_mod_monic(a, m)
    assert intpoly.degree(r) < intpoly.degree(m)
    q = oracles.exact_div(intpoly.sub(a, r), m)
    assert intpoly.add(intpoly.mul(q, m), r) == intpoly.normalize(a)


def test_gcd_examples():
    assert oracles.gcd_primitive((1, 2, 1), intpoly.mul((1, 1), (1, 0, 1))) == (1, 1)
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
    assert intpoly.irreducible_mod_p((1, 0, 1), 3) is IrreducibilityStatus.IRREDUCIBLE
    assert intpoly.irreducible_mod_p((1, 0, 1), 5) is IrreducibilityStatus.REDUCIBLE
    # primitive part of num(2,x) = 1+x+x^2
    assert intpoly.irreducible_mod_p((2, 2, 2), 2) is IrreducibilityStatus.IRREDUCIBLE
    assert intpoly.irreducible_mod_p((7,), 3) is IrreducibilityStatus.INCONCLUSIVE


@given(st.sampled_from([2, 3, 5, 7, 13]), st.data())
@settings(max_examples=150, deadline=None)
def test_frobenius_chain_matches_oracle(p, data):
    # Degrees below p make x^p itself a reduction, not a monomial row.
    k = data.draw(st.one_of(st.integers(1, max(p - 1, 1)), st.integers(1, 30)))
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k)) + [1]
    chain = intpoly._frobenius_chain(f, p)
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
    chain = intpoly._frobenius_chain(f, 2)
    for j, entry in enumerate(chain):
        assert tuple(entry) == oracles.gfp_powmod((0, 1), 2**j, f, 2)
    assert chain[3] == chain[0] == [0, 1]
    assert chain[1] == [0, 0, 1]
    assert intpoly.irreducible_mod_p((1, 1, 0, 1), 2) is IrreducibilityStatus.IRREDUCIBLE


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


def test_irreducible_mod_p_bad_prime():
    with pytest.raises(BadPrimeError):
        intpoly.irreducible_mod_p((1, 3), 3)


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=5),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
@settings(max_examples=150, deadline=None)
def test_irreducible_mod_p_matches_bruteforce(coeffs, p):
    f = intpoly.normalize(coeffs[:-1] + [1])  # monic, so p never divides the lead
    if intpoly.degree(f) < 1:
        return
    got = intpoly.irreducible_mod_p(f, p)
    want = oracles.gfp_irreducible_bruteforce(tuple(c % p for c in f), p)
    assert (got is IrreducibilityStatus.IRREDUCIBLE) == want


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
    assert intpoly.unpack(0, width) == ()


def test_unpack_width_holds_the_bound():
    for bound, width in [(1, 1), (255, 1), (256, 2), (2**16, 4), (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8), (2**64, 9)]:
        assert intpoly.unpack_width(bound) == width, bound
