"""Exact univariate polynomial arithmetic over Python's arbitrary-precision ints.

A polynomial is a tuple of coefficients, index k holding the coefficient
of x^k, with no trailing zero; the zero polynomial is the empty tuple.
All operations are pure and exact.  Products are not taken here: every
polynomial the pipeline builds is a product of binomials 1 + x^i,
expanded by shift-adds on one packed integer and divided by synthetic
division (`cyclotomic`).  This module supplies the packing.  A
nonnegative coefficient becomes one whole-byte digit of a big integer
(1, 2, 4 or 8 bytes each, or wider when the values need it): `_pack`
writes the digits and `unpack` reads them back, each with a single
`int.from_bytes`/`int.to_bytes` call, so linear in the packed size.

The shape predicates (`is_unimodal`, `is_log_concave`) and the mod-p
irreducibility certificate live here as well because they are plain
coefficient-sequence checks.  The certificate is Rabin's test; True
proves the primitive part irreducible over the rationals, and False
proves nothing.  For odd p a palindromic reduction f of even degree 2m
is first written as f = x^m h(x + 1/x): f is irreducible exactly when h
is and (-1)^m f(1) f(-1) is a nonsquare mod p, so the test runs on
degree m.  A root in GF(p) settles a degree >= 2 before any chain.  The
test reads x^(p^j) mod f off one Frobenius chain, stepped lazily so that
the first failing check ends it: the p-th power map is linear over
GF(p), so each step multiplies the coefficient vector by Berlekamp's Q
matrix, whose rows are packed integers at the same whole-byte digits
that `unpack` reads back.  Each row of Q is the previous one times x^p:
a shift, plus at most p rows folded back.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from itertools import zip_longest
from typing import Iterable, Iterator, Sequence

IntPoly = tuple[int, ...]


class NotDivisibleError(ArithmeticError):
    """Exact division was requested but the remainder is nonzero."""


class NegativeCoefficientError(ValueError):
    """Log-concavity is only defined for nonnegative coefficient sequences."""


class BadPrimeError(ValueError):
    """The chosen prime divides the leading coefficient."""


def normalize(coeffs: Iterable[int]) -> IntPoly:
    """Strip trailing zeros; the zero polynomial becomes ()."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# memoryview.cast and array read and write machine words in native order.
_ORDER = sys.byteorder
_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}
_WORD_WIDTH = (1, 1, 2, 4, 4, 8, 8, 8, 8)  # byte width 0..8 rounded up to a machine word


def _digits(raw: bytes, width: int) -> list[int]:
    """The unsigned `width`-byte digits of `raw`, lowest first."""
    if width in _FORMAT:
        return memoryview(raw).cast(_FORMAT[width]).tolist()
    return [int.from_bytes(raw[k : k + width], _ORDER) for k in range(0, len(raw), width)]


def _pack(a: Sequence[int], width: int) -> int:
    """Sum of a[k] * radix^k, radix = 2^(8*width), for digits a[k] in [0, radix)."""
    if width in _FORMAT:
        raw = array(_FORMAT[width], a).tobytes()
    else:
        raw = b"".join([c.to_bytes(width, _ORDER) for c in a])
    return int.from_bytes(raw, _ORDER)


def unpack_width(bound: int) -> int:
    """Bytes per digit that hold every integer in [0, bound], rounded up to a machine word up to 8."""
    width = (bound.bit_length() + 7) // 8
    return _WORD_WIDTH[width] if width <= 8 else width


def unpack(value: int, width: int) -> IntPoly:
    """The coefficients of a packed polynomial with digits in [0, 2^(8*width)).

    That is, the polynomial whose value at x = 2^(8*width) is `value`,
    read back with one `int.to_bytes`.
    """
    ncoeffs = -(-value.bit_length() // (8 * width))
    return tuple(_digits(value.to_bytes(width * ncoeffs, _ORDER), width))


def eval_at_int(a: Sequence[int], x0):
    """Exact Horner evaluation; at an int x0 the value is an int, at a Fraction a Fraction."""
    acc = 0
    for c in reversed(a):
        acc = acc * x0 + c
    return acc


def content(a: Sequence[int]) -> int:
    """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return g


def primitive_part(a: Sequence[int]) -> IntPoly:
    """a divided by its content, leading coefficient made positive."""
    a = normalize(a)
    if not a:
        return a
    g = content(a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a)


def is_unimodal(a: Sequence[int]) -> bool:
    """True when the coefficients weakly rise and then weakly fall."""
    i = 0
    while i + 1 < len(a) and a[i] <= a[i + 1]:
        i += 1
    while i + 1 < len(a) and a[i] >= a[i + 1]:
        i += 1
    return i + 1 >= len(a)


def is_log_concave(a: Sequence[int]) -> tuple[bool, int | None]:
    """(True, None) or (False, i) at the first internal index with a_i^2 < a_{i-1}a_{i+1}.

    Only defined for nonnegative sequences; signed input is a hard error
    rather than False, so a bug upstream cannot masquerade as a shape
    counterexample.
    """
    if any(c < 0 for c in a):
        raise NegativeCoefficientError("log-concavity needs nonnegative coefficients")
    for i in range(1, len(a) - 1):
        if a[i] * a[i] < a[i - 1] * a[i + 1]:
            return False, i
    return True, None


def irreducible_mod_p(a: Sequence[int], p: int) -> bool:
    """Rabin irreducibility certificate for the primitive part of a, mod p.

    True proves the primitive part is irreducible over the rationals
    (the reduction keeps the degree because p does not divide the
    leading coefficient).  False proves nothing: the reduction mod p is
    reducible, or the degree is at most 0.  For odd p a palindromic
    reduction of even degree is tested on half its degree
    (`_half_degree`); p = 2 and any other reduction go to Rabin's test
    whole.  A modulus p that is not prime raises ValueError: GF(p) would
    not be a field, and the test could certify a reducible polynomial.
    """
    if _prime_divisors(p) != [p]:
        raise ValueError(f"the modulus {p} is not prime")
    pp = primitive_part(a)
    if pp and pp[-1] % p == 0:
        raise BadPrimeError(f"{p} divides the leading coefficient")
    if len(pp) <= 1:
        return False
    inv_lead = pow(pp[-1], p - 2, p)
    f = [c * inv_lead % p for c in pp]
    if p != 2 and len(f) % 2 and f == f[::-1]:
        f = _half_degree(f, p)
    return f is not None and _rabin(f, p)


def _half_degree(f: list[int], p: int) -> list[int] | None:
    """The monic h with f = x^m h(x + 1/x), or None when N = (-1)^m f(1) f(-1) is 0 or a square mod p.

    f is monic and palindromic of degree 2m >= 2 over GF(p), p odd.  Then
    f is irreducible exactly when h is irreducible and N is a nonsquare
    mod p (Meyn, AAECC 1990), so None means f is reducible.  Proof: if
    h = h1 h2, f = x^m1 h1(x + 1/x) * x^m2 h2(x + 1/x).  If h is
    irreducible with a root b in GF(p^m), the roots of f are those of
    x^2 - bx + 1 over GF(p^m).  They have degree 2m over GF(p) when that
    quadratic is irreducible, which holds iff b^2 - 4 is a nonsquare in
    GF(p^m), and degree at most m otherwise.  An element u of GF(p^m)*
    is a nonsquare iff its norm to GF(p) is, because the norm is
    u^((p^m-1)/(p-1)) and its Legendre symbol is u^((p^m-1)/2).  The norm
    of b^2 - 4 is the product of (b_i - 2)(b_i + 2) over the conjugates
    b_i of b, which is h(2) h(-2) = N, as f(1) = h(2) and
    f(-1) = (-1)^m h(-2).  Should h be reducible, f is too, so a zero or
    square N proves f reducible whatever h is.

    h comes from x^(-m) f = f_m + sum_j f_(m+j) (x^j + x^(-j)) and the
    Dickson recurrence x^j + x^(-j) = D_j(x + 1/x), with D_0 = 2,
    D_1 = y and D_(j+1) = y D_j - D_(j-1): O(m^2) steps mod p.
    """
    m = len(f) // 2
    norm = (-1) ** m * eval_at_int(f, 1) * eval_at_int(f, -1) % p
    if norm == 0 or pow(norm, (p - 1) // 2, p) == 1:
        return None
    h = [f[m]] + [0] * m
    prev, dickson = [2], [0, 1]
    for j in range(1, m + 1):
        c = f[m + j]
        for i, d in enumerate(dickson):
            h[i] = (h[i] + c * d) % p
        prev, dickson = dickson, [(y - d) % p for y, d in zip_longest([0] + dickson, prev, fillvalue=0)]
    return h


def _rabin(f: list[int], p: int) -> bool:
    """Rabin's test (SIAM J. Comput. 1980) for monic f of degree k >= 1 over GF(p).

    f is irreducible iff gcd(x^(p^(k/q)) - x, f) = 1 for every prime
    q | k and x^(p^k) = x mod f.  The chain is stepped lazily and the
    checks are taken as it reaches them, smallest k/q first and
    x^(p^k) last, so a reducible f stops at the first check that fails.
    Before any chain, a root in GF(p) (Horner at the p points) settles
    a degree >= 2.
    """
    k = len(f) - 1
    if k >= 2 and any(eval_at_int(f, r) % p == 0 for r in range(p)):
        return False
    checks = {k // q for q in _prime_divisors(k)}
    chain = _frobenius_chain(f, p)
    x = next(chain)
    for j, entry in enumerate(chain, 1):
        if j in checks:
            # `_gf_gcd` reduces the integer difference mod p.
            diff = [c - t for c, t in zip_longest(entry, x, fillvalue=0)]
            if len(_gf_gcd(diff, f, p)) != 1:
                return False
    return entry == x


def _prime_divisors(k: int) -> list[int]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


# Minimal GF(p)[x] kit for the Rabin test: lists of ints in [0, p),
# trailing zeros stripped, [] the zero polynomial.  `_gf_mod`, and so
# `_gf_gcd`, also take any integer list and reduce it mod p first.


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    r = [c % p for c in a]
    inv_lead = pow(f[-1], p - 2, p)
    df = len(f) - 1
    for k in range(len(r) - 1, df - 1, -1):
        c = r[k] * inv_lead % p
        if c == 0:
            continue
        for j in range(df + 1):
            r[k - df + j] = (r[k - df + j] - c * f[j]) % p
    return _gf_trim(r[:df])


def _frobenius_chain(f: Sequence[int], p: int) -> Iterator[list[int]]:
    """x^(p^j) mod f over GF(p) for j = 0 .. deg f in turn, for monic f of degree k >= 1.

    Over GF(p), a(x)^p = a(x^p), so the p-th power map is linear, with
    Berlekamp's matrix Q: row i is x^(ip) mod f (Knuth, TAOCP vol. 2,
    section 4.6.2).  Each step a -> sum a_i Q_i runs on packed rows
    (`_gf_apply`).  The chain is a generator, so a caller that stops
    early takes no further step.  The rows live while it does: k packed
    rows of k digits (`_berlekamp_q`) plus the entry in hand.
    """
    k = len(f) - 1
    width = _chain_width(k, p)
    q_rows = _berlekamp_q(f, p, width)
    entry = _gf_mod([0, 1], f, p)
    yield entry
    for _ in range(k):
        entry = _gf_apply(entry, q_rows, width, p)
        yield entry


def _berlekamp_q(f: Sequence[int], p: int, width: int) -> list[int]:
    """The rows x^(ip) mod f, i = 0 .. k-1, packed at `width` bytes, for monic f of degree k.

    Row i + 1 is row i times x^p.  Its digits below k - p move up p
    places, a shift of the packed row; the digits at k - p and above,
    at most p of them, fold back through the rows x^k .. x^(k+p-1)
    mod f (those with exponent >= p; the lower ones are the shift).  So
    a row costs O(p) packed operations, not k.  Each digit of the sum is
    at most min(k, p) products below (p-1)^2, plus one shifted digit
    below p only when k > p: at most k (p-1)^2 when k <= p, and
    p (p-1)^2 + p - 1 <= (p+1)(p-1)^2 <= k (p-1)^2 when k > p.  That is
    the sum `_chain_width` already holds, so no carry crosses digits.
    """
    k = len(f) - 1
    low = max(k - p, 0)
    # x^k .. x^(k+p-1) mod f by shift-and-subtract from x^(k-1); the fold keeps exponents >= p.
    folds = []
    r = [0] * (k - 1) + [1]
    for e in range(k, k + p):
        top = r.pop()
        r.insert(0, 0)
        r = [(c - top * fj) % p for c, fj in zip(r, f)]
        if e >= p:
            folds.append(_pack(r, width))
    keep = (1 << (8 * width * low)) - 1
    up = 8 * width * p
    rows = [1]
    a = [1]
    for _ in range(k - 1):
        shifted = (rows[-1] & keep) << up
        a = _gf_trim([c % p for c in unpack(shifted + sum(map(operator.mul, a[low:], folds)), width)])
        rows.append(_pack(a, width))
    return rows


def _chain_width(k: int, p: int) -> int:
    """Digit bytes for `_gf_apply` on k rows and for `_berlekamp_q`'s fold: they hold the digit sum k (p-1)^2."""
    return unpack_width(k * (p - 1) ** 2)


def _gf_apply(a: Sequence[int], rows: Sequence[int], width: int, p: int) -> list[int]:
    """sum a_i rows[i] mod p, for rows packed at `width` bytes with digits in [0, p).

    The digit sums stay below the radix, so no carry crosses digits and
    one `unpack` reads the exact sums back.
    """
    return _gf_trim([c % p for c in unpack(sum(map(operator.mul, a, rows)), width)])


def _gf_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _gf_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a
