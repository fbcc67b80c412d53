"""Reduced numerator/denominator pairs of partition reciprocal sums.

For each partition class the rational function sum of 1/sp(lambda, x)
over partitions of n has the unreduced form num*/den* with

    den*(n,x) = prod over allowed i <= n of (1+x^i)^floor(n/i),
    num*(n,x) = sum over partitions of the cofactors h_lambda,
    h_lambda  = prod (1+x^i)^(floor(n/i) - m_lambda(i)).

The common divisor G of all the h_lambda is then cancelled:
num = num*/G, den = den*/G.  G is NOT gcd(num*, den*); it is the gcd of
the individual summands, and whether anything further cancels is
exactly what the verification module checks.

In cyclotomic exponents (d -> exponent of Phi_{2d}) den has one form for
every class, because every class allows the part 1:

    den(n,x) = prod over allowed d <= n of Phi_{2d}(x)^floor(n/d),

that is, den* with each 1+x^i read as Phi_{2i}.  Write den*_d for the
exponent of Phi_{2d} in den*.  sp(lambda) holds one Phi_{2d} per part
d*j with j odd; those parts are each at least d, so there are at most
floor(n/d) of them, and every cofactor keeps at least den*_d - floor(n/d)
factors Phi_{2d}.  For allowed d the partition of floor(n/d) parts d
padded with ones keeps exactly that many.  In all four classes a part
d*j with j odd is allowed only when d is, so for any other d no
sp(lambda) holds Phi_{2d} and den_d = 0.  G is the rest of den*:
g_d = den*_d - floor(n/d), the sum of floor(n/i) over the allowed parts
i = d*j with odd j >= 3.  No gcd is ever taken.

n = 0 is no special case: it has no allowed parts and one partition,
the empty one, so den* = num* = G = 1 follow from the empty products.

den and G are functions of (n, class) alone (`den`, `big_g`); only num
needs num*.  Two accumulations of num* exist: a dynamic program over the
allowed parts (production) and a streaming fold over the enumerated
partitions (the oracle).  Integer arithmetic is exact, so both are
bit-deterministic and must agree coefficient for coefficient.
`num_star` is the one place the engine is applied, wherever num* is
built: engine "dp" runs the dynamic program, and engine "both" runs
both accumulations and raises EngineMismatchError unless they agree.

The dynamic program needs only a ring with the step S: p -> p*(1+x^i),
applied k times at a time, and it runs on Python ints, twice.  Over Z
at x = 1, S^k is a shift by k and the result is num*(n,1).  Every
coefficient of num* is nonnegative, a sum of products of binomial
coefficients, so each is at most their sum num*(n,1).  With
w = 8 * unpack_width(num*(n,1)) bits, num*(2^w) holds each coefficient
as one base-2^w digit, and the second run computes it with S as
p + (p << w*i).  Every cofactor h_lambda is a product of palindromic
binomials, and all have the same degree, the sum of i*floor(n/i) over
the allowed i minus n; so num* is palindromic, and the second run keeps
only the digits of its low half: it works mod 2^(w*H), with
H = floor(deg/2) + 1.
Evaluation at 2^w and reduction mod 2^(w*H) are ring homomorphisms, so
carries between digits in intermediate cells are harmless: only the
final value has to hold its coefficients digit by digit, and it does.
One unpack reads the low half back, and the mirror gives num*.

`num(n, pclass, engine)` returns num = num*/G, taken by
`cyclotomic.divide_cyclotomics`, which reads G as a product of binomials
1 + x^j and divides by each in turn by synthetic division on Python
ints; a zero remainder at every step proves the division exact.  It is
the one cached route to num.

num at x0 = 1 or -1 needs neither num nor a division by G: `num_at`
reads it off num* by one identity.  Put x = x0 + t; then
G(x0 + t) = T_G * t^g + O(t^(g+1)), so T_G * num(x0) = [t^g] num*(x0 + t).
At x0 = 1, g = 0 and the coefficient is the DP's run at x = 1; at
x0 = -1 it is one pass over num*.  `verify` compares it with the full
path's num at x0 under engine "both".  For the ternary class num(n, 1)
is t(n), the sum of 2^(n - length) over the partitions of n, which
`t_values` also computes by a coin DP over the parts 3^k alone, for
every n up to a bound at once.

Whether Phi_{2d} divides num needs no num at all when the answer is no:
`leading_coefficient` runs the coin DP for sum of 1/sp(lambda) at a root
of unity of order 2d in a prime field, keeping one coefficient per
weight r < d.  Lemma 4 carries it to every n: L(n) = c^floor(n/d) *
L(n mod d) for a unit c, and L(n) is num(n)(zeta) up to a known unit.
The field is GF(p) for the first prime p = 1 (mod 2d) above a floor
10^6 * 2^j, where `root_of_unity` also picks zeta, for the least j with
p > 2n and L(n) != 0 (`leading_coefficient`).
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from typing import Callable, Mapping

from . import cyclotomic, intpoly
from .intpoly import IntPoly
from .partitions import (
    Partition,
    PartitionClass,
    allowed_parts,
    enumerate_partitions,
    multiplicities,
)


class InvalidPartitionError(ValueError):
    """The multiplicity map is not a class-valid partition of n."""


class EngineMismatchError(AssertionError):
    """Two routes disagree: the num* engines, or a certificate and the full test.

    `fields` (such as d, or an n finer than the check's) locate the
    disagreement in its failure record.
    """

    def __init__(self, detail: str, **fields):
        super().__init__(detail)
        self.fields = fields


def spol(p: Partition) -> IntPoly:
    """Subsum polynomial prod_j (1 + x^(lambda_j)); 1 for the empty partition."""
    return cyclotomic.expand_binomials(multiplicities(p))


def den_star(n: int, pclass: PartitionClass) -> dict[int, int]:
    """Unreduced common denominator as a binomial product {i: floor(n/i)}; {} for n = 0."""
    return {i: n // i for i in allowed_parts(pclass, n)}


def h_factored(n: int, pclass: PartitionClass, m: Mapping[int, int]) -> dict[int, int]:
    """Cofactor den*/sp(lambda) as a binomial product {i: floor(n/i) - m_i}.

    Anything but a genuine partition of n is rejected: each part must be
    an int the class allows (so >= 1), each multiplicity an int >= 1,
    and the weight sum i m_i must be n.  Then every exponent is
    nonnegative: each term i m_i of that sum is positive, so
    i m_i <= n, and the int m_i is at most floor(n/i).
    """
    weight = 0
    for part, mult in m.items():
        if not (isinstance(part, int) and isinstance(mult, int)) or mult < 1 or not pclass.allows(part):
            raise InvalidPartitionError(f"part {part} with multiplicity {mult}")
        weight += part * mult
    if weight != n:
        raise InvalidPartitionError(f"parts sum to {weight}, not {n}")
    out = {}
    for i in allowed_parts(pclass, n):
        e = n // i - m.get(i, 0)
        if e:
            out[i] = e
    return out


def den(n: int, pclass: PartitionClass) -> dict[int, int]:
    """Reduced denominator as a cyclotomic exponent vector {d: floor(n/d)}.

    den = prod Phi_{2d}^floor(n/d) over the allowed d <= n: den* with each
    1+x^i read as Phi_{2i} (see the module docstring).  It needs no num*.
    """
    return den_star(n, pclass)


def big_g(n: int, pclass: PartitionClass) -> dict[int, int]:
    """Common divisor of all cofactors, as a cyclotomic exponent vector {d: g_d}.

    g_d = sum of floor(n/i) over the allowed parts i = d*j <= n with odd
    j >= 3, over the allowed d <= n, zeros dropped: the Phi_{2d} that
    den* holds beyond den's floor(n/d) (see the module docstring).
    """
    out = {}
    for d in allowed_parts(pclass, n):
        g = sum(n // i for i in range(3 * d, n + 1, 2 * d) if pclass.allows(i))
        if g:
            out[d] = g
    return out


# The accumulation engines of num* (see `num_star`).
ENGINES = ("dp", "both")


def num_star(n: int, pclass: PartitionClass, engine: str = "dp") -> IntPoly:
    """Unreduced numerator sum of the cofactors h_lambda.

    engine is "dp" or "both"; "both" also builds num* by the streaming
    fold, raises EngineMismatchError unless the two agree and returns the
    dp result.
    """
    if engine == "dp":
        return _num_star_dp(n, pclass)
    if engine == "both":
        via_dp = _num_star_dp(n, pclass)
        if via_dp != _num_star_enumerate(n, pclass):
            raise EngineMismatchError(f"num* engines disagree at n={n}, {pclass.value}")
        return via_dp
    raise ValueError(f"unknown engine {engine!r}")


def _num_star_dp(n: int, pclass: PartitionClass) -> IntPoly:
    """num* by the dynamic program at x = 2^w, sized by its run at x = 1 (see the module docstring)."""
    parts = allowed_parts(pclass, n)
    width = intpoly.unpack_width(_ring_dp(n, parts, _times_binomials_at_one))
    shift = 8 * width
    degree = sum(i * (n // i) for i in parts) - n
    half = degree // 2 + 1
    mask = (1 << shift * half) - 1

    def times_binomials(p: int, i: int, k: int) -> int:
        for _ in range(k):
            p += p << shift * i
        return p & mask

    low = intpoly.unpack(_ring_dp(n, parts, times_binomials), width)
    low += (0,) * (half - len(low))
    return low + low[: degree + 1 - half][::-1]


def _times_binomials_at_one(p: int, i: int, k: int) -> int:
    """p * (1 + x^i)^k at x = 1."""
    return p << k


def _ring_dp(n: int, parts: list[int], times_binomials: Callable[[int, int, int], int]) -> int:
    """num* in a ring where times_binomials(p, i, k) is p * (1 + x^i)^k, from the parts up to n.

    Processing the parts one at a time, table[r] is the sum of
    prod (1+x^i)^(floor(n/i) - m_i) over the multiplicities m_i of the
    parts seen so far with total weight r; before the first part only
    weight 0 has a term, the empty product.  For a part i with
    cap = floor(n/i) and S the ring step p -> p * (1+x^i), the new cell
    at weight r, with q = floor(r/i), is

        sum over m <= q of S^(cap - m)(table[r - m*i]) = S^(cap - q)(partial[r]),

        partial[r] = sum over m <= q of S^(q - m)(table[r - m*i])
                   = S^q(table[r]) + partial[r - i],

    so a cell takes cap steps S and no product of two ring elements;
    on packed integers each step is one shift and one add.  After all
    parts, table[n] is num*, so after part i only the cells at weights
    n - s, s a sum of the parts above i, are read again; the rest stay
    0, and zero cells take no steps.
    """
    later = []  # later[k][s]: some multiset of parts[k+1:] sums to s
    sums = [True] + [False] * n
    for i in reversed(parts):
        later.append(sums[:])
        for s in range(i, n + 1):
            sums[s] = sums[s] or sums[s - i]
    table = [1] + [0] * n
    for i, reach in zip(parts, reversed(later)):
        cap = n // i
        partial = []
        for r, cell in enumerate(table):
            q = r // i
            acc = times_binomials(cell, i, q) if cell else 0
            if q:
                acc += partial[r - i]
            partial.append(acc)
        table = [
            times_binomials(acc, i, cap - r // i) if acc and reach[n - r] else 0 for r, acc in enumerate(partial)
        ]
    return table[n]


def _num_star_enumerate(n: int, pclass: PartitionClass) -> IntPoly:
    """Streaming fold over the partition stream; the oracle behind engine "both".

    The cofactors are summed at X = 2^w and unpacked once.  Each has
    coefficients summing to at most 2^S, S = sum of floor(n/i), and there
    are at most 2^(n-1) partitions, so a digit holding 2^(S+n) suffices.
    """
    width = intpoly.unpack_width(1 << (sum(den_star(n, pclass).values()) + n))
    total = 0
    for p in enumerate_partitions(n, pclass):
        total += cyclotomic._shift_adds(1, h_factored(n, pclass, multiplicities(p)), 8 * width)
    return intpoly.unpack(total, width)


# Under engine "dp" lemma 4 certifies its n side at a root of unity and
# reads num only at r = n mod d < n/2: a sweep to n = N holds ceil(N/2)
# entries.  It builds num(n) itself only under "both", which reads the
# N + 1 entries 0..N, or when the certificate vanishes.  256 entries
# hold both working sets together up to N = 170.
@lru_cache(maxsize=256)
def num(n: int, pclass: PartitionClass, engine: str, /) -> IntPoly:
    """The reduced numerator num = num*/G, with the summand gcd G cancelled.

    The division is `cyclotomic.divide_cyclotomics` (a nonzero remainder
    would be a pipeline bug and raises); n = 0 gives num 1.  den is
    `den(n, pclass)`.  engine is "dp" or "both", as for `num_star`.

    Results are cached in an LRU cache of 256 entries keyed on
    (n, pclass, engine).  The parameters are positional-only and have no
    default, so there is one call form and one entry per key.
    """
    return cyclotomic.divide_cyclotomics(num_star(n, pclass, engine), big_g(n, pclass))


# Certificate primes lie above the floors F_j = _PRIME_FLOOR * 2^j.  A floor
# is usable at n when its prime p > 2n, so that no part i <= n and no 2d is
# divisible by p; `leading_coefficient` tries `_FLOORS` usable floors
# before the full test decides.
_PRIME_FLOOR = 10**6
_FLOORS = 4


def leading_coefficient(n: int, pclass: PartitionClass, d: int) -> tuple[int, int, int]:
    """(p, zeta, L(n)): num(n) at a root of unity of order 2d, up to a unit, in GF(p).

    (p, zeta) is `root_of_unity(d, j)` at the floor F_j = 10^6 * 2^j
    picked below, and d must be an allowed part of the class.  Write
    x = zeta + t and work with Laurent series in t over GF(p).  The coin
    DP over the allowed parts i,
    table[r] += table[r-i] * u_i with u_i = 1/(1+x^i), builds
    sr(r, x) = sum over partitions of r of prod 1/(1+x^lambda_j).  u_i
    has a simple pole with leading coefficient 1/(i zeta^(i-1)) when i/d
    is an odd integer (p > 2*i, so the root is simple) and is the unit
    1/(1+zeta^i) otherwise.  So table[r] has valuation >= -floor(r/d),
    and its coefficient L(r) at t^(-floor(r/d)) needs only the
    predecessors' L:

    * the pole i = d adds L(r-d) * c, c = 1/(d zeta^(d-1));
    * the poles i = d*j with odd j >= 3 add nothing: their terms have
      valuation >= -floor(r/d) + j - 1;
    * every other part adds L(r-i) / (1+zeta^i) when (r-i)//d == r//d,
      which for i > d never holds and for i < d means i <= r mod d.

    sr(n) = num/den with den = prod Phi_{2d'}^floor(n/d'), and
    Phi_{2d}(zeta + t) = Phi'_{2d}(zeta) t + O(t^2), so

        L(n) * D = num(n)(zeta)  (mod p),
        D = Phi'_{2d}(zeta)^floor(n/d) * prod_{d' != d} Phi_{2d'}(zeta)^floor(n/d'),

    where D is nonzero mod p, as zeta has order 2d and p > 2n.  L(n) != 0
    proves that Phi_{2d} does not divide num(n) over Z; L(n) = 0 proves
    nothing, so j walks up from 0, skipping each floor with p <= 2n, to
    the first L(n) != 0; after `_FLOORS` usable floors L(n) = 0 is
    returned, and the caller takes the full test.  For n <= 500 001 (no
    p is below 1 000 003) j = 0 serves unless its L(n) vanishes.  For
    any d that is not a part the target valuation is wrong, and a
    ValueError is raised.

    Most cells of that DP are zero and are skipped, as the num* DP skips
    the weights it cannot reach.  L(0) = 1 and every other L starts at
    0; the parts below d move L only within a block of d weights, so
    after them only block 0, L(0..d-1), is nonzero.  The pole part d,
    the last part that reaches the leading order, then sets
    L(r) = c * L(r-d) for r >= d in ascending r.  Hence lemma 4:

        L(n) = c^floor(n/d) * L(n mod d),

    and only block 0 is ever computed, in O(d * #parts) operations mod
    p, and only at a floor with p > 2n: the walk learns p from
    `root_of_unity` first, which caches (p, zeta) per (d, j) for every
    floor it tries, skipped or not.  The block is cached with c on
    (class, d, j) for the life of the process: a run up to
    n = N <= 500 001 holds one entry per class and d <= N, each of d
    ints below p, at most N(N+1)/2 ints per class, and up to
    `_FLOORS` - 1 more for a d whose block has a zero.  A floor is
    skipped only if F_j < 2N, so up to N = 10^6 a (class, d) holds at
    most `_FLOORS` + 1 entries, and one more per doubling of N; a d
    holds as many (p, zeta) pairs, shared by the classes.
    """
    if n < 0 or not pclass.allows(d):
        raise ValueError(f"need n >= 0 and d a part of {pclass.value} partitions")
    j = usable = 0
    while True:
        p, zeta = root_of_unity(d, j)
        if 2 * n < p:
            c, block = _leading_block(pclass, d, j)
            lead = pow(c, n // d, p) * block[n % d] % p
            usable += 1
            if lead or usable == _FLOORS:
                return p, zeta, lead
        j += 1


@lru_cache(maxsize=None)
def root_of_unity(d: int, j: int) -> tuple[int, int]:
    """(p, zeta): the first prime p = 1 (mod 2d) above F_j = 10^6 * 2^j, and an element of order 2d in GF(p).

    A candidate is proved prime by trial division up to isqrt(p), run
    only once it passes a base-2 Fermat test.  zeta is a^((p-1)/2d) for
    the least a >= 2 for which zeta has order 2d, tested directly:
    zeta^(2d) = 1 always, zeta^d = -1 rules out every order dividing d,
    and zeta^(2d/q) != 1, for each odd prime q | d, every order dividing
    2d/q.  Cached per (d, j), shared by the classes, for the process.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    m = 2 * d
    p = -(-(_PRIME_FLOOR << j) // m) * m + 1  # the first candidate above the floor
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
def _leading_block(pclass: PartitionClass, d: int, j: int) -> tuple[int, array]:
    """(c, L(0..d-1)) at floor j for `leading_coefficient`: the coin DP over the parts below d."""
    p, zeta = root_of_unity(d, j)
    block = [1] + [0] * (d - 1)
    for i in allowed_parts(pclass, d - 1):
        u = pow(1 + pow(zeta, i, p), -1, p)
        for r in range(i, d):
            block[r] = (block[r] + block[r - i] * u) % p
    return pow(d * pow(zeta, d - 1, p), -1, p), array("q", block)


def num_at(n: int, pclass: PartitionClass, x0: int) -> int:
    """num(n, x0) for x0 = 1 or -1, read off num* at x = x0 + t; G is not divided out.

    T_G * num(x0) = [t^g] num*(x0 + t) with (g, T_G) from `_order_at`
    (see the module docstring); a nonzero remainder on division by T_G
    raises NotDivisibleError.  At x0 = 1, g = 0 and the coefficient is
    num*(1), the num* DP's run at x = 1, so no polynomial is built.  At
    x0 = -1 it is the sum over k >= g of a_k * C(k, g) * (-1)^(k-g) for
    num* = sum of a_k x^k, with C(k+1, g) = C(k, g) * (k+1) / (k+1-g).
    Only that coefficient is read, so G | num* is not proved here; the
    division in `num` proves it.
    """
    if x0 not in (1, -1):
        raise ValueError(f"num_at reads num at x = 1 or -1, not {x0}")
    g, lead = _order_at(n, pclass, x0)
    if x0 == 1:
        total = _ring_dp(n, allowed_parts(pclass, n), _times_binomials_at_one)
    else:
        star = num_star(n, pclass)
        total, binom = 0, 1
        for k in range(g, len(star)):
            term = binom * star[k]
            total += -term if (k - g) & 1 else term
            binom = binom * (k + 1) // (k + 1 - g)
    value, rest = divmod(total, lead)
    if rest:
        raise intpoly.NotDivisibleError(f"[t^{g}] num*({n},{x0}+t) = {total} is not divisible by T_G = {lead}")
    return value


def _order_at(n: int, pclass: PartitionClass, x0: int) -> tuple[int, int]:
    """(g, T_G) with G(n)(x0 + t) = T_G * t^g + O(t^(g+1)), for x0 = 1 or -1.

    G is prod (1 + x^j)^E_j, every E_j >= 0 (`cyclotomic.binomial_exponents`).
    At x = x0 + t, 1 + x^j is 2 + O(t), except at x0 = -1 for odd j,
    where it is j*t + O(t^2).  So g is the sum of E_j over those
    vanishing j, and T_G = prod over them of j^E_j times 2^(sum of the
    other E_j); at x0 = 1, g = 0 and T_G = G(1).
    """
    exps = cyclotomic.binomial_exponents(big_g(n, pclass))
    vanishing = {j: e for j, e in exps.items() if x0 == -1 and j & 1}
    g = sum(vanishing.values())
    return g, math.prod(j**e for j, e in vanishing.items()) << (sum(exps.values()) - g)


def t_values(top: int) -> list[int]:
    """[t(0), ..., t(top)], t(m) = num_T(m,1) = sum over ternary partitions of m of 2^(m - length).

    2^(m - length) = prod_j 2^(lambda_j - 1), so t is the coefficient
    sequence of prod over k of 1/(1 - 2^(3^k - 1) y^(3^k)): one coin DP
    pass per part 3^k <= top.  t(0) = 1 by the empty-partition
    convention.
    """
    t = [1] + [0] * top
    for part in allowed_parts(PartitionClass.TERNARY, top):
        for w in range(part, top + 1):
            t[w] += t[w - part] << (part - 1)
    return t
