"""Exact univariate polynomial arithmetic over Python's arbitrary-precision ints.

A polynomial is a tuple of coefficients, index k holding the coefficient
of x^k, with no trailing zero; the zero polynomial is the empty tuple.
All operations are pure and exact.  Products are not taken here: every
polynomial the pipeline builds is a product of binomials 1 + x^i,
expanded or divided by shift-adds on one packed integer (`cyclotomic`).
This module supplies that packing.  A coefficient becomes one
whole-byte digit of a big integer (1, 2, 4 or 8 bytes each, or wider
when the values need it): `_pack` and `_unpack_signed` write and read
balanced digits, `unpack` reads back nonnegative ones.  Each is a single
`int.from_bytes`/`int.to_bytes` call plus a bias fix-up, so linear in
the packed size.

The shape predicates (`is_unimodal`, `is_log_concave`) and the mod-p
irreducibility certificate live here as well because they are plain
coefficient-sequence checks.  The certificate reads x^(p^j) mod f off
one Frobenius chain: the p-th power map is linear over GF(p), so each
step multiplies the coefficient vector by Berlekamp's Q matrix, whose
rows are packed integers at the same whole-byte digits that `unpack`
reads back.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from enum import Enum
from itertools import zip_longest
from typing import Iterable, Sequence

IntPoly = tuple[int, ...]


class NotDivisibleError(ArithmeticError):
    """Exact division was requested but the remainder is nonzero."""


class NotMonicError(ValueError):
    """The modulus of a remainder computation is not monic."""


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
_SIGNED_FORMAT = {1: "b", 2: "h", 4: "i", 8: "q"}
_WORD_WIDTH = (1, 1, 2, 4, 4, 8, 8, 8, 8)  # byte width 0..8 rounded up to a machine word


def _word_width(bits: int) -> int:
    """Whole bytes for a digit of `bits` bits, rounded up to a machine word up to 8."""
    width = (bits + 7) // 8
    return _WORD_WIDTH[width] if width <= 8 else width


def _digits(raw: bytes, width: int, signed: bool) -> list[int]:
    """The `width`-byte digits of `raw`, lowest first, read in two's complement if `signed`."""
    if width in _SIGNED_FORMAT:
        fmt = _SIGNED_FORMAT[width]
        return memoryview(raw).cast(fmt if signed else fmt.upper()).tolist()
    return [int.from_bytes(raw[k : k + width], _ORDER, signed=signed) for k in range(0, len(raw), width)]


def _bias(width: int, ncoeffs: int) -> int:
    """Half the radix in each of the low `ncoeffs` digits."""
    half = (1 << (8 * width - 1)).to_bytes(width, _ORDER)
    return int.from_bytes(half * ncoeffs, _ORDER)


def _pack(a: Sequence[int], width: int) -> int:
    """Sum of a[k] * radix^k, from the two's complement digits of a.

    The digit of c is c mod radix; flipping its top bit gives c + radix/2,
    and subtracting the bias leaves c.
    """
    if width in _SIGNED_FORMAT:
        raw = array(_SIGNED_FORMAT[width], a).tobytes()
    else:
        raw = b"".join([c.to_bytes(width, _ORDER, signed=True) for c in a])
    bias = _bias(width, len(a))
    return (int.from_bytes(raw, _ORDER) ^ bias) - bias


def _unpack_signed(value: int, width: int, ncoeffs: int) -> list[int]:
    """The `ncoeffs` balanced `width`-byte digits of value mod 2^(8*width*ncoeffs), lowest first.

    Adding the bias makes every digit c + radix/2, nonnegative; flipping
    each digit's top bit (xor with the same bias) then leaves c in two's
    complement, which a signed read of the digit returns.  Reading value
    mod the radix power lets a caller work modulo x^ncoeffs.
    """
    bias = _bias(width, ncoeffs)
    low = ((value + bias) & ((1 << 8 * width * ncoeffs) - 1)) ^ bias
    return _digits(low.to_bytes(width * ncoeffs, _ORDER), width, signed=True)


def unpack_width(bound: int) -> int:
    """Bytes per digit that hold every integer in [0, bound], rounded up to a machine word up to 8."""
    return _word_width(bound.bit_length())


def unpack(value: int, width: int) -> IntPoly:
    """The coefficients of a packed polynomial with digits in [0, 2^(8*width)).

    That is, the polynomial whose value at x = 2^(8*width) is `value`,
    read back with one `int.to_bytes`.
    """
    ncoeffs = -(-value.bit_length() // (8 * width))
    return tuple(_digits(value.to_bytes(width * ncoeffs, _ORDER), width, signed=False))


def eval_at_int(a: Sequence[int], x0):
    """Exact Horner evaluation; at an int x0 the value is an int, at a Fraction a Fraction."""
    acc = 0
    for c in reversed(a):
        acc = acc * x0 + c
    return acc


def remainder_mod_monic(a: Sequence[int], m: Sequence[int]) -> IntPoly:
    """a mod m for monic m of degree >= 1, over the integers, by schoolbook elimination."""
    m = normalize(m)
    if len(m) < 2 or m[-1] != 1:
        raise NotMonicError("modulus must be monic of degree >= 1")
    r = list(normalize(a))
    *low, _ = m
    dm = len(low)
    for k in range(len(r) - dm - 1, -1, -1):
        c = r[k + dm]
        if c:
            # The r[k + dm] term cancels; it is left unwritten because only r[:dm] is returned.
            for j, mj in enumerate(low):
                r[k + j] -= c * mj
    return normalize(r[:dm])


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


class IrreducibilityStatus(Enum):
    IRREDUCIBLE = "irreducible"
    REDUCIBLE = "reducible"
    INCONCLUSIVE = "inconclusive"


def irreducible_mod_p(a: Sequence[int], p: int) -> IrreducibilityStatus:
    """Rabin irreducibility certificate for the primitive part of a, mod p.

    IRREDUCIBLE proves the primitive part is irreducible over the
    rationals (the reduction keeps the degree because p does not divide
    the leading coefficient).  REDUCIBLE only speaks about the
    reduction mod p and proves nothing over the integers.
    """
    pp = primitive_part(a)
    if pp and pp[-1] % p == 0:
        raise BadPrimeError(f"{p} divides the leading coefficient")
    if len(pp) <= 1:
        return IrreducibilityStatus.INCONCLUSIVE
    inv_lead = pow(pp[-1], p - 2, p)
    f = [c * inv_lead % p for c in pp]
    k = len(f) - 1
    chain = _frobenius_chain(f, p)
    # x^(p^k) == x mod f, and gcd(x^(p^(k/q)) - x, f) == 1 for prime q | k.
    if chain[k] != chain[0]:
        return IrreducibilityStatus.REDUCIBLE
    for q in _prime_divisors(k):
        # `_gf_gcd` reduces the integer difference mod p.
        diff = [c - x for c, x in zip_longest(chain[k // q], chain[0], fillvalue=0)]
        if len(_gf_gcd(diff, f, p)) != 1:
            return IrreducibilityStatus.REDUCIBLE
    return IrreducibilityStatus.IRREDUCIBLE


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


def _frobenius_chain(f: Sequence[int], p: int) -> list[list[int]]:
    """[x^(p^j) mod f for j = 0 .. deg f] over GF(p), for monic f of degree k >= 1.

    Over GF(p), a(x)^p = a(x^p), so the p-th power map is linear, with
    Berlekamp's matrix Q: row i is x^(ip) mod f (Knuth, TAOCP vol. 2,
    section 4.6.2).  Each step a -> sum a_i Q_i runs on packed rows
    (`_gf_apply`).  Q itself comes from the same step, applied k - 1
    times to 1, with the matrix of multiplication by x^p, whose row i is
    x^(i+p) mod f.  The rows live for this call only: k packed rows of k
    digits per matrix, plus the k + 1 chain entries.
    """
    k = len(f) - 1
    width = _chain_width(k, p)
    # Rows x^(i+p) with i + p < k are monomials; x^k .. x^(k+p-1) mod f
    # take p shift-and-subtract steps, of which those with exponent >= p are rows.
    times_xp = [1 << (8 * width * (i + p)) for i in range(k - p)]
    r = [0] * (k - 1) + [1]
    for m in range(k, k + p):
        top = r.pop()
        r.insert(0, 0)
        r = [(c - top * fj) % p for c, fj in zip(r, f)]
        if m >= p:
            times_xp.append(_pack(r, width))
    q_rows = [1]
    a = [1]
    for _ in range(k - 1):
        a = _gf_apply(a, times_xp, width, p)
        q_rows.append(_pack(a, width))
    chain = [_gf_mod([0, 1], f, p)]
    for _ in range(k):
        chain.append(_gf_apply(chain[-1], q_rows, width, p))
    return chain


def _chain_width(k: int, p: int) -> int:
    """Digit bytes for `_gf_apply` on k rows: they hold the largest digit sum k (p-1)^2."""
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
