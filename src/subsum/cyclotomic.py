"""Cyclotomic polynomials and the expansion of structured products.

Everything here trades on one divisibility fact: Phi_{2d} divides
1 + x^i exactly when i = d*j for odd j, and then exactly once.  Products
of binomials 1 + x^i therefore factor completely into polynomials
Phi_{2d}, and two structured representations carry the pipeline:

* a binomial product, a map i -> e_i standing for prod (1+x^i)^e_i;
* a cyclotomic exponent vector, a map d -> exponent of Phi_{2d}.

This module expands both; `reduction` reads both off (n, class) directly.
Divisibility by Phi_{2d} is decided by exact integer remainders, or
certified at a root of unity in a prime field (`root_of_unity` picks
the field and the root), never by evaluating at complex points.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, Sequence

from . import intpoly
from .intpoly import IntPoly

BinomialProduct = Mapping[int, int]
CycloExponents = Mapping[int, int]


@lru_cache(maxsize=None)
def phi(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial.

    Built by exact division of x^m - 1 by Phi_d over the proper divisors
    d of m.  Memoized per process; the cache is safe under concurrent
    readers (lru_cache takes its own lock, and entries are immutable).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    num = (-1,) + (0,) * (m - 1) + (1,)
    for d in range(1, m):
        if m % d == 0:
            num = intpoly.exact_div(num, phi(d))
    return num


def remainder_mod_phi_2d(a: Sequence[int], d: int) -> IntPoly:
    """a mod Phi_{2d}, through a mod (x^d + 1), which Phi_{2d} divides.

    Modulo x^d + 1, x^(q*d + j) is (-1)^q x^j, so the first reduction is
    an O(deg a) fold with alternating signs; only a polynomial of degree
    below d is then divided by Phi_{2d}.
    """
    step = 2 * d
    folded = [sum(a[j::step]) - sum(a[j + d :: step]) for j in range(d)]
    return intpoly.remainder_mod_monic(folded, phi(step))


# Certificate primes lie above this floor, far above twice any n a run
# can build, so that no part i <= n and no 2d is divisible by p.
_PRIME_FLOOR = 10**6


@lru_cache(maxsize=None)
def root_of_unity(d: int, k: int = 0) -> tuple[int, int]:
    """(p, zeta): the k-th prime p = 1 (mod 2d) above 10^6, and an element of order 2d in GF(p).

    k counts from 0.  A candidate is proved prime by trial division up to
    isqrt(p), run only once it passes a base-2 Fermat test.  zeta is
    a^((p-1)/2d) for the least a >= 2 for which zeta has order 2d, tested
    directly: zeta^(2d) = 1 always, zeta^d = -1 rules out every order
    dividing d, and zeta^(2d/q) != 1, for each odd prime q | d, every
    order dividing 2d/q.  Memoized per process: at most three entries per d.
    """
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    m = 2 * d
    if k:
        p = root_of_unity(d, k - 1)[0] + m
    else:
        p = _PRIME_FLOOR // m * m + 1
        if p <= _PRIME_FLOOR:
            p += m
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


@lru_cache(maxsize=None)
def binomial_power(i: int, e: int) -> IntPoly:
    """(1 + x^i)^e, cached; the expansion workhorse."""
    return intpoly.power(intpoly.binomial(i), e)


def expand_binomials(f: BinomialProduct) -> IntPoly:
    """Expand prod (1+x^i)^e_i; the empty product is 1."""
    result = intpoly.ONE
    for i in sorted(f):
        e = f[i]
        if e < 0:
            raise ValueError("negative exponent in binomial product")
        if e:
            result = intpoly.mul(result, binomial_power(i, e))
    return result


def expand_cyclotomics(c: CycloExponents) -> IntPoly:
    """Expand prod Phi_{2d}^e_d; the empty product is 1."""
    result = intpoly.ONE
    for d in sorted(c):
        e = c[d]
        if e < 0:
            raise ValueError("negative exponent in cyclotomic product")
        if e:
            result = intpoly.mul(result, intpoly.power(phi(2 * d), e))
    return result


def cyclo_degree(c: CycloExponents) -> int:
    """Degree of the expansion, via deg Phi_{2d} = totient(2d)."""
    return sum(e * _totient(2 * d) for d, e in c.items())


def _totient(m: int) -> int:
    out = m
    for p in intpoly._prime_divisors(m):
        out -= out // p
    return out

