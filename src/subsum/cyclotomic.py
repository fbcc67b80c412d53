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
den and G, the products expanded and divided by, they are all >= 0.
Expanding is shift-adds on a single packed integer: at X = 2^w,
multiplying by 1 + X^j is A + (A << w*j).  Dividing is synthetic
division by each monic 1 + x^j on a list of Python ints (Knuth, TAOCP
vol. 2, section 4.6.1), which needs no digit width, and whose remainder
proves the division exact (`divide_cyclotomics`).  No product of two
large integers is involved.

Divisibility by Phi_{2d} is decided by integer folds (`phi_2d_divides`),
which expand no Phi and evaluate at no complex point; nothing is cached.
"""

from __future__ import annotations

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
    """num = num*/G: the q with q * prod Phi_{2d}^c_d == a, or NotDivisibleError; ValueError if some E_j < 0.

    The divisor is prod (1+x^j)^E_j (`binomial_exponents`), and each
    factor is divided out in turn by synthetic division.  Dividing q of
    length L by the monic 1 + x^j sets q[k] -= q[k-j] for k rising from
    j.  Split the result as its low L - j entries Q and its top j
    entries T: the dividend is Q * (1 + x^j) + x^(L-j) * T, and as x is
    a unit mod 1 + x^j and deg T < j, the step is exact exactly when
    T = 0.  A nonzero T raises NotDivisibleError; when L < j, T is the
    whole dividend.  An exact step keeps the
    leading coefficient, so Q has no trailing zero; a zero dividend
    stays ().  The work is one list of len(a) ints, for sum of E_j
    passes.
    """
    exps = binomial_exponents(c)
    if any(e < 0 for e in exps.values()):
        raise ValueError("divisor is not a product of binomials")
    q = list(intpoly.normalize(a))
    for j, e in exps.items():
        for _ in range(e):
            for k in range(j, len(q)):
                q[k] -= q[k - j]
            if any(q[-j:]):
                raise intpoly.NotDivisibleError(f"nonzero remainder on division by 1 + x^{j}")
            del q[-j:]
    return tuple(q)


def cyclo_degree(c: CycloExponents) -> int:
    """Degree of the expansion: prod (1+x^j)^E_j has degree sum of j * E_j."""
    return sum(j * e for j, e in binomial_exponents(c).items())

