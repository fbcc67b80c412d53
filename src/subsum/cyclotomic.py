"""Cyclotomic polynomials and the expansion of structured products.

Everything here trades on one divisibility fact: Phi_{2d} divides
1 + x^i exactly when i = d*j for odd j, and then exactly once.  Products
of binomials 1 + x^i therefore factor completely into polynomials
Phi_{2d}, and two structured representations carry the pipeline:

* a binomial product, a map i -> e_i standing for prod (1+x^i)^e_i;
* a cyclotomic exponent vector, a map d -> exponent of Phi_{2d}.

Inverting that fact over the odd divisors gives, with d' the odd part
of d,

    Phi_{2d} = prod over e | d' of (1 + x^(d/e))^mu(e),

so a cyclotomic exponent vector is a binomial product with signed
exponents (`binomial_exponents`), the one place that codes Phi.  For
den and G, the products expanded and divided by, they are all >= 0, so
either is shift-adds on a single packed integer.  At X = 2^w,
multiplying by 1 + X^j is A + (A << w*j).  Modulo X^M, dividing by it
is A <- A - (A << w*j) followed by A <- A + (A << w*j*2^k) for each
k >= 1 with j*2^k < M, because

    1/(1+y) = (1 - y) * prod over k >= 1 of (1 + y^(2^k))   (mod y^M).

Reducing mod 2^(w*M) is a ring homomorphism from Z[X]/(X^M), where
every 1 + X^j is a unit, so only the final value has to hold its
coefficients digit by digit; it is read back as balanced digits.  No
product of two large integers and no long division is involved: even
the check that confirms a quotient's digit width multiplies back by
shift-adds (`_divide`).

Divisibility by Phi_{2d} is decided by integer folds (`phi_2d_divides`),
which expand no Phi, or certified at a root of unity in a prime field
(`root_of_unity` picks the field and the root), never by evaluating at
complex points.  Nothing here is cached.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from . import intpoly
from .intpoly import IntPoly

BinomialProduct = Mapping[int, int]
CycloExponents = Mapping[int, int]


def phi_2d_divides(a: Sequence[int], d: int) -> bool:
    """Whether Phi_{2d} divides a, for d >= 1, by integer folds; no Phi is expanded.

    Phi_{2d} divides x^d + 1, so it divides a exactly when it divides
    f = a mod (x^d + 1) (`_fold`).  With R the product of d's odd primes,
    let T_k, for k | R, be f mod (x^(d/k) + 1) laid out k times with
    alternating signs; then Phi_{2d} | a exactly when
    S = sum over k | R of mu(k) (R/k) T_k is zero.  Proof: modulo
    x^d + 1, T_k = f * s_k with s_k = sum over j < k of (-x^(d/k))^j, as
    k is odd and (1 + x^(d/k)) s_k = 1 + x^d.  A root zeta of x^d + 1
    has order 2d/e for an odd e | d, and s_k(zeta) is k when k | e
    (zeta^(d/k) = -1) and 0 otherwise.  So S(zeta) = R f(zeta) * (sum
    over k | gcd(R, e) of mu(k)), which is R f(zeta) on the roots of
    Phi_{2d} (e = 1) and 0 on the others.  As deg S < d and x^d + 1 has
    d simple roots, S = 0 exactly when f vanishes on the roots of
    Phi_{2d}, that is, when Phi_{2d} divides f.
    """
    f = _fold(a, d)
    divisors = _odd_squarefree_divisors(d)
    r = divisors[-1][0]
    total = [0] * d
    for k, mu in divisors:
        g = [mu * (r // k) * c for c in _fold(f, d // k)]
        t = (g + [-c for c in g]) * (k // 2) + g
        total = [s + c for s, c in zip(total, t)]
    return not any(total)


def _fold(a: Sequence[int], m: int) -> list[int]:
    """a mod (x^m + 1): x^(q*m + j) is (-1)^q x^j, so an O(len a) fold with alternating signs."""
    step = 2 * m
    return [sum(a[j::step]) - sum(a[j + m :: step]) for j in range(m)]


def _odd_squarefree_divisors(d: int) -> list[tuple[int, int]]:
    """(e, mu(e)) for the squarefree divisors e of d's odd part: 1 first, the product of d's odd primes last."""
    out = [(1, 1)]
    for q in intpoly._prime_divisors(d >> ((d & -d).bit_length() - 1)):
        out += [(e * q, -mu) for e, mu in out]
    return out


# Certificate primes lie above this floor, far above twice any n a run
# can build, so that no part i <= n and no 2d is divisible by p.
_PRIME_FLOOR = 10**6


def root_of_unity(d: int) -> tuple[int, int]:
    """(p, zeta): the first prime p = 1 (mod 2d) above 10^6, and an element of order 2d in GF(p).

    A candidate is proved prime by trial division up to isqrt(p), run
    only once it passes a base-2 Fermat test.  zeta is a^((p-1)/2d) for
    the least a >= 2 for which zeta has order 2d, tested directly:
    zeta^(2d) = 1 always, zeta^d = -1 rules out every order dividing d,
    and zeta^(2d/q) != 1, for each odd prime q | d, every order dividing
    2d/q.  Nothing is cached here: the one caller,
    `reduction._leading_block`, caches its result per (class, d).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    m = 2 * d
    p = -(-_PRIME_FLOOR // m) * m + 1  # the first candidate above the floor
    while not _is_prime(p):
        p += m
    odd_primes = [q for q in intpoly._prime_divisors(d) if q > 2]
    a = 2
    while True:
        zeta = pow(a, (p - 1) // m, p)
        if pow(zeta, d, p) == p - 1 and all(pow(zeta, m // q, p) != 1 for q in odd_primes):
            return p, zeta
        a += 1


def _is_prime(c: int) -> bool:
    """Primality of an odd c > 2: a base-2 Fermat filter, then trial division."""
    return pow(2, c - 1, c) == 1 and all(c % q for q in range(3, math.isqrt(c) + 1, 2))


def binomial_exponents(c: CycloExponents) -> dict[int, int]:
    """prod Phi_{2d}^c_d as a binomial product {j: E_j}, E_j signed, zeros dropped.

    By the Moebius form in the module docstring, E_j is the sum of
    mu(e) * c_d over the d and the divisors e of d's odd part with
    d/e = j.
    """
    out: dict[int, int] = {}
    for d, k in c.items():
        if k < 0:
            raise ValueError("negative exponent in cyclotomic product")
        for e, mu in _odd_squarefree_divisors(d):
            out[d // e] = out.get(d // e, 0) + mu * k
    return {j: e for j, e in out.items() if e}


def expand_binomials(f: BinomialProduct) -> IntPoly:
    """Expand prod (1+x^i)^e_i by shift-adds; the empty product is 1.

    Its coefficients are nonnegative and sum to 2^(sum of e_i), so each
    is one unsigned digit of a width that holds that sum.
    """
    if any(e < 0 for e in f.values()):
        raise ValueError("negative exponent in binomial product")
    width = intpoly.unpack_width(1 << sum(f.values()))
    return intpoly.unpack(_shift_adds(1, f, 8 * width), width)


def _shift_adds(value: int, f: BinomialProduct, shift: int) -> int:
    """value * prod (1 + X^i)^f_i at X = 2^shift, every f_i >= 0."""
    for i in sorted(f):
        for _ in range(f[i]):
            value += value << shift * i
    return value


def expand_cyclotomics(c: CycloExponents) -> IntPoly:
    """Expand prod Phi_{2d}^e_d as the binomial product {j: E_j}; the empty product is 1.

    ValueError when some E_j < 0 (`expand_binomials`), as for Phi_{2d}
    alone whenever d has an odd prime factor (Phi_6 = (1+x^3)/(1+x)).
    den and G have none.  den's E_j (`binomial_exponents`) counts the
    k <= n/j that are powers of 2 in the ordinary and odd classes, and
    is floor(n/j) in the binary class and floor(n/j) - floor(n/3j) in
    the ternary class: never more than den*'s floor(n/j), so G = den*/den
    has E_j >= 0 too.
    """
    return expand_binomials(binomial_exponents(c))


def divide_cyclotomics(a: Sequence[int], c: CycloExponents) -> IntPoly:
    """num = num*/G: the q with q * prod Phi_{2d}^c_d == a, or NotDivisibleError; ValueError if some E_j < 0."""
    exps = binomial_exponents(c)
    if any(e < 0 for e in exps.values()):
        raise ValueError("divisor is not a product of binomials")
    return _divide(intpoly.normalize(a), exps)


def _divide(a: IntPoly, exps: BinomialProduct) -> IntPoly:
    """a / prod (1+x^j)^exps[j], every exps[j] >= 0, or NotDivisibleError.

    The quotient q has M = len(a) - (sum of j * exps[j]) coefficients,
    computed mod X^M on packed integers (`_packed_quotient`).  Every
    binomial is palindromic, so when a is, so is q, and only its low
    ceil(M/2) coefficients are computed.  No useful bound on q's
    coefficients is known in advance (num at odd n = 78 needs 301 bits
    where num* needs 205), so a width is accepted only when
    `_times_binomials` confirms q * divisor == a.  The first width is
    the balanced digit of a's own coefficients, and each retry doubles
    it.  The doubling stops at the Landau-Mignotte bound: the divisor
    is monic, so a quotient in Z[x] has ||q||_inf <= 2^deg q * ||a||_2,
    which a digit of that width holds.  A check that still fails there
    proves that no quotient exists.
    """
    if not exps or not a:
        return a
    m = len(a) - sum(j * e for j, e in exps.items())
    if m < 1:
        raise intpoly.NotDivisibleError("divisor of higher degree")
    mirror = a == a[::-1]
    half = (m + 1) // 2 if mirror else m
    top = max(max(a), -min(a))
    width = intpoly.unpack_width(2 * top)  # a balanced digit holds [-top, top]
    cap = intpoly.unpack_width(top << (m + len(a).bit_length()))
    while True:
        q = _packed_quotient(a[:half], exps, width)
        if mirror:
            q += q[: m - half][::-1]
        q = intpoly.normalize(q)
        # The divisor is 2^(sum of exps) at x = 1: a cheap test before the exact one.
        if q and sum(q) << sum(exps.values()) == sum(a) and _times_binomials(q, exps, a):
            return q
        if width >= cap:
            raise intpoly.NotDivisibleError("nonzero remainder")
        width = min(2 * width, cap)


def _times_binomials(q: IntPoly, exps: BinomialProduct, a: IntPoly) -> bool:
    """Whether q * prod (1+x^j)^exps[j] == a, every exps[j] >= 0, by shift-adds.

    The product is evaluated exactly at X = 2^w.  Its coefficients are
    at most 2^(sum of exps) times q's largest, so w is wide enough for
    it and for a to hold every coefficient as a balanced digit, and the
    two values are equal exactly when the polynomials are.
    """
    bound = max(max(max(q), -min(q)) << sum(exps.values()), max(a), -min(a))
    width = intpoly.unpack_width(2 * bound)
    return _shift_adds(intpoly._pack(q, width), exps, 8 * width) == intpoly._pack(a, width)


def _packed_quotient(a: Sequence[int], exps: BinomialProduct, width: int) -> list[int]:
    """a / prod (1+X^j)^exps[j] mod X^len(a), every exps[j] >= 0, at X = 2^(8*width): len(a) balanced digits.

    1/(1+X^j) = (1-X^j)/(1-X^(2j)) turns the divisor into
    prod (1-X^t)^(-alpha_t) with alpha_t = exps[t] - exps[t/2], so each
    alpha_t > 0 is alpha_t multiplications by 1 - X^t, and each
    alpha_t < 0 is -alpha_t divisions by 1 - X^t, that is
    multiplications by 1 + X^(t*2^k) for each k >= 0 with t*2^k < len(a)
    (see the module docstring).
    """
    size = len(a)
    alpha: dict[int, int] = {}
    for j, e in exps.items():
        alpha[j] = alpha.get(j, 0) + e
        alpha[2 * j] = alpha.get(2 * j, 0) - e
    times_minus = {t: e for t, e in alpha.items() if e > 0 and t < size}
    times_plus: dict[int, int] = {}
    for t, e in alpha.items():
        while e < 0 and t < size:
            times_plus[t] = times_plus.get(t, 0) - e
            t *= 2
    shift = 8 * width
    modulus = 1 << shift * size
    value = intpoly._pack(a, width)
    if value < 0:
        value += modulus
    # value * (1 -/+ X^t) mod X^size: only the low size - t digits of value reach X^t's multiple.
    for t, count in times_minus.items():
        low = (1 << shift * (size - t)) - 1
        for _ in range(count):
            value -= (value & low) << shift * t
            if value < 0:
                value += modulus
    for t, count in times_plus.items():
        low = (1 << shift * (size - t)) - 1
        for _ in range(count):
            value += (value & low) << shift * t
            if value >= modulus:
                value -= modulus
    return intpoly._unpack_signed(value, width, size)


def cyclo_degree(c: CycloExponents) -> int:
    """Degree of the expansion: prod (1+x^j)^E_j has degree sum of j * E_j."""
    return sum(j * e for j, e in binomial_exponents(c).items())

