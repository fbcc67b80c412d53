"""Independent reference implementations used only to generate expected values.

Nothing here may import from the production accumulation or gcd paths it
checks: partition counts come from the Euler pentagonal recurrence,
products from a dict-based convolution, enumeration from an
ascending-composition algorithm, mod-p irreducibility from brute
trial division by all monic polynomials of low degree and, at degrees
beyond its reach, from Rabin's test on the whole reduction, gcds in Z[x]
from pseudo-remainder Euclid on naively expanded products, G from
the entrywise-minimum cyclotomic exponents of every cofactor, the
root-of-unity certificates from first principles, t(n) from a
listing of the ternary partitions, quotients and remainders by
schoolbook long division, and Phi_m by dividing x^m - 1 by every Phi_d
over the proper divisors d of m.
"""

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest


@lru_cache(maxsize=None)
def pentagonal_count(n):
    """p(n) by Euler's pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 == 1 else -1
        if g1 <= n:
            total += sign * pentagonal_count(n - g1)
        if g2 <= n:
            total += sign * pentagonal_count(n - g2)
        k += 1
    return total


def naive_mul(a, b):
    """Dict-based convolution, trailing zeros stripped."""
    acc = {}
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            acc[i + j] = acc.get(i + j, 0) + ai * bj
    if not acc:
        return ()
    top = max(k for k, v in acc.items() if v) if any(acc.values()) else -1
    return tuple(acc.get(k, 0) for k in range(top + 1))


def _strip(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def naive_add(a, b):
    """Coefficientwise sum, trailing zeros stripped."""
    return _strip([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(max(len(a), len(b)))])


def exact_div(a, b):
    """Schoolbook long division: the q with q*b == a, or ArithmeticError when b does not divide a."""
    a, b = _strip(a), _strip(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + db], b[-1])
        if rest:
            raise ArithmeticError(f"coefficient {r[k + db]} not divisible by leading {b[-1]}")
        q[k] = c
        for j, bj in enumerate(b):
            r[k + j] -= c * bj
    if any(r):
        raise ArithmeticError("nonzero remainder")
    return _strip(q)


class NotMonicError(ValueError):
    """The modulus of a remainder computation is not monic."""


def remainder_mod_monic(a, m):
    """a mod m for monic m of degree >= 1, over the integers, by schoolbook elimination."""
    m = _strip(m)
    if len(m) < 2 or m[-1] != 1:
        raise NotMonicError("modulus must be monic of degree >= 1")
    r = list(_strip(a))
    *low, _ = m
    dm = len(low)
    for k in range(len(r) - dm - 1, -1, -1):
        c = r[k + dm]
        if c:
            # The r[k + dm] term cancels; it is left unwritten because only r[:dm] is returned.
            for j, mj in enumerate(low):
                r[k + j] -= c * mj
    return _strip(r[:dm])


@lru_cache(maxsize=None)
def phi_by_division(m):
    """Phi_m as x^m - 1 divided exactly by Phi_d for every proper divisor d of m."""
    num = (-1,) + (0,) * (m - 1) + (1,)
    for d in range(1, m):
        if m % d == 0:
            num = exact_div(num, phi_by_division(d))
    return num


def expand_phi_product(c):
    """prod Phi_2d^e over {d: e}, by naive products of `phi_by_division`."""
    out = (1,)
    for d, e in sorted(c.items()):
        out = naive_mul(out, naive_pow(phi_by_division(2 * d), e))
    return out


def naive_product(polys):
    out = (1,)
    for p in polys:
        out = naive_mul(out, p)
    return out


def naive_pow(a, e):
    out = (1,)
    for _ in range(e):
        out = naive_mul(out, a)
    return out


def binom_poly(i):
    return (1,) + (0,) * (i - 1) + (1,)


def expand_factor_map(f):
    """prod (1+x^i)^e via the naive routines."""
    out = (1,)
    for i, e in sorted(f.items()):
        out = naive_mul(out, naive_pow(binom_poly(i), e))
    return out


def totient_sieve(limit):
    """phi(1..limit) by the classic sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for mult in range(p, limit + 1, p):
                phi[mult] -= phi[mult] // p
    return phi


def ascending_partitions(n):
    """All partitions of n as ascending tuples (Kelleher-O'Sullivan style)."""
    if n == 0:
        yield ()
        return

    def rec(remaining, minpart):
        if remaining == 0:
            yield ()
            return
        for first in range(minpart, remaining + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, 1)


def filtered_partitions(n, predicate):
    """Partitions of n (descending tuples) whose parts all satisfy predicate."""
    out = []
    for p in ascending_partitions(n):
        if all(predicate(part) for part in p):
            out.append(tuple(sorted(p, reverse=True)))
    return sorted(out, reverse=True)


def t_direct(n):
    """t(n): 2^(n - length) summed over the ternary partitions of n, listed by their largest part."""

    def lengths(remaining, largest):
        if remaining == 0:
            yield 0
            return
        part = largest
        while part:
            if part <= remaining:
                for length in lengths(remaining - part, part):
                    yield length + 1
            part //= 3

    largest = 1
    while 3 * largest <= n:
        largest *= 3
    return sum(1 << (n - length) for length in lengths(n, largest))


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def gfp_mul(a, b, p):
    return tuple(c % p for c in naive_mul(a, b))


def gfp_all_monic(deg, p):
    """Every monic polynomial of exactly the given degree over GF(p)."""
    if deg == 0:
        yield (1,)
        return
    span = p**deg
    for code in range(span):
        coeffs = []
        c = code
        for _ in range(deg):
            coeffs.append(c % p)
            c //= p
        yield tuple(coeffs) + (1,)


def gfp_rem(f, d, p):
    """f mod d over GF(p), by long division; trailing zeros stripped."""
    r = [c % p for c in f]
    inv = pow(d[-1], p - 2, p)
    while len(r) >= len(d) and any(r):
        while r and r[-1] % p == 0:
            r.pop()
        if len(r) < len(d):
            break
        c = r[-1] * inv % p
        shift = len(r) - len(d)
        for j, dj in enumerate(d):
            r[shift + j] = (r[shift + j] - c * dj) % p
        r.pop()
    return _strip(r)


def gfp_divides(d, f, p):
    """Whether d divides f over GF(p)."""
    return not gfp_rem(f, d, p)


def gfp_powmod(a, e, f, p):
    """a^e mod f over GF(p) by e multiplications, each reduced by long division."""
    out = gfp_rem((1,), f, p)
    base = gfp_rem(a, f, p)
    for _ in range(e):
        out = gfp_rem(gfp_mul(out, base, p), f, p)
    return out


def gfp_irreducible_bruteforce(f, p):
    """Trial division by every monic divisor of degree 1..deg/2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for cand in gfp_all_monic(d, p):
            if gfp_divides(cand, f, p):
                return False
    return True


def rabin_full_degree(a, p):
    """Rabin's test on the whole reduction of a's primitive part mod p: "irreducible", "reducible" or "inconclusive".

    The full-degree route `intpoly.irreducible_mod_p` took before it
    tested palindromic input on half the degree, moved here as it was:
    the checks x^(p^k) == x mod f, then gcd(x^(p^(k/q)) - x, f) == 1 for
    every prime q | k, read off one Frobenius chain whose Q comes from
    the k-row matrix of multiplication by x^p.  Only the packing is
    local (plain byte strings), so nothing here comes from `intpoly`.
    "irreducible" is where `intpoly.irreducible_mod_p` returns True, and
    the other two strings are where it returns False; ValueError when p
    divides the leading coefficient.
    """
    pp = _primitive_part(_strip(a)) if any(a) else ()
    if pp and pp[-1] % p == 0:
        raise ValueError(f"{p} divides the leading coefficient")
    if len(pp) <= 1:
        return "inconclusive"
    inv_lead = pow(pp[-1], p - 2, p)
    f = [c * inv_lead % p for c in pp]
    k = len(f) - 1
    chain = _rabin_frobenius_chain(f, p)
    # x^(p^k) == x mod f, and gcd(x^(p^(k/q)) - x, f) == 1 for prime q | k.
    if chain[k] != chain[0]:
        return "reducible"
    for q in _rabin_prime_divisors(k):
        # `_rabin_gf_gcd` reduces the integer difference mod p.
        diff = [c - x for c, x in zip_longest(chain[k // q], chain[0], fillvalue=0)]
        if len(_rabin_gf_gcd(diff, f, p)) != 1:
            return "reducible"
    return "irreducible"


def _rabin_prime_divisors(k):
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


def _rabin_pack(a, width):
    """Nonnegative digits a, lowest first, as one integer of `width`-byte digits."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")


def _rabin_unpack(value, width):
    raw = value.to_bytes(-(-value.bit_length() // (8 * width)) * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _rabin_gf_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _rabin_gf_mod(a, f, p):
    r = [c % p for c in a]
    inv_lead = pow(f[-1], p - 2, p)
    df = len(f) - 1
    for k in range(len(r) - 1, df - 1, -1):
        c = r[k] * inv_lead % p
        if c == 0:
            continue
        for j in range(df + 1):
            r[k - df + j] = (r[k - df + j] - c * f[j]) % p
    return _rabin_gf_trim(r[:df])


def _rabin_frobenius_chain(f, p):
    """[x^(p^j) mod f for j = 0 .. deg f] over GF(p), for monic f of degree k >= 1.

    Q's row i is x^(ip) mod f; Q comes from the same step applied k - 1
    times to 1, with the matrix of multiplication by x^p, whose row i is
    x^(i+p) mod f.
    """
    k = len(f) - 1
    width = -(-(k * (p - 1) ** 2).bit_length() // 8)
    # Rows x^(i+p) with i + p < k are monomials; x^k .. x^(k+p-1) mod f
    # take p shift-and-subtract steps, of which those with exponent >= p are rows.
    times_xp = [1 << (8 * width * (i + p)) for i in range(k - p)]
    r = [0] * (k - 1) + [1]
    for m in range(k, k + p):
        top = r.pop()
        r.insert(0, 0)
        r = [(c - top * fj) % p for c, fj in zip(r, f)]
        if m >= p:
            times_xp.append(_rabin_pack(r, width))
    q_rows = [1]
    a = [1]
    for _ in range(k - 1):
        a = _rabin_gf_apply(a, times_xp, width, p)
        q_rows.append(_rabin_pack(a, width))
    chain = [_rabin_gf_mod([0, 1], f, p)]
    for _ in range(k):
        chain.append(_rabin_gf_apply(chain[-1], q_rows, width, p))
    return chain


def _rabin_gf_apply(a, rows, width, p):
    """sum a_i rows[i] mod p; the digit sums stay below the radix, so no carry crosses digits."""
    return _rabin_gf_trim([c % p for c in _rabin_unpack(sum(map(operator.mul, a, rows)), width)])


def _rabin_gf_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _rabin_gf_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def reciprocal_sum(partitions_list, x0):
    """sum of 1/prod(1+x0^part) over explicit partition lists."""
    total = Fraction(0)
    for p in partitions_list:
        value = Fraction(1)
        for part in p:
            value *= 1 + Fraction(x0) ** part
        total += 1 / value
    return total


def _primitive_part(a):
    """a over its content, leading coefficient made positive; a must be nonzero."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a)


def _pseudo_rem(a, b):
    # Fraction-free remainder: repeatedly replace a by lc(b)*a - c*x^s*b.
    # Scaling per step differs from the textbook prem by an integer
    # factor, which the primitive-part step absorbs anyway.
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    while len(r) - 1 >= db and r:
        c = r[-1]
        r = [lead * x for x in r]
        shift = len(r) - 1 - db
        for j in range(db + 1):
            r[shift + j] -= c * b[j]
        while r and r[-1] == 0:
            r.pop()
    return r


def _with_content(a):
    return tuple(-c for c in a) if a[-1] < 0 else a


def gcd_primitive(a, b):
    """gcd in Z[x] via content splitting and pseudo-remainder Euclid.

    The result has positive leading coefficient and carries the gcd of
    the input contents, so gcd of content-1 inputs has content 1.  This
    is the brute-force oracle against which the structured minimum-
    exponent gcd is validated.
    """
    a = _strip(a)
    b = _strip(b)
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    if not a:
        return _with_content(b)
    if not b:
        return _with_content(a)
    c = math.gcd(math.gcd(*a), math.gcd(*b))
    pa, pb = list(_primitive_part(a)), list(_primitive_part(b))
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        r = _pseudo_rem(pa, pb)
        pa, pb = pb, list(_primitive_part(r)) if r else []
    return tuple(c * x for x in _primitive_part(pa))


def gcd_binomial_products_expanded(fs):
    """gcd of binomial products {i: e} for prod (1+x^i)^e, by expanding each and folding gcd_primitive."""
    polys = [expand_factor_map(f) for f in fs]
    if not polys:
        raise ValueError("gcd of an empty collection")
    return reduce(gcd_primitive, polys)


def cyclo_exponents(f):
    """{d: exponent of Phi_2d} in prod (1+x^i)^e, by trying every d <= i."""
    out = {}
    for i, e in f.items():
        for d in range(1, i + 1):
            if i % d == 0 and (i // d) % 2 == 1:
                out[d] = out.get(d, 0) + e
    return {d: e for d, e in out.items() if e}


def min_exponents(fs):
    """gcd of binomial products as the entrywise-minimum cyclotomic exponent vector.

    Every product factors into the pairwise-coprime irreducibles Phi_2d,
    so their gcd is exactly the minimum exponent per d.
    """
    vectors = [cyclo_exponents(f) for f in fs]
    if not vectors:
        raise ValueError("min_exponents of an empty collection")
    common = set.intersection(*(set(v) for v in vectors))
    return {d: min(v[d] for v in vectors) for d in sorted(common)}


def big_g(n, pclass):
    """G(n,x) as {d: exponent of Phi_2d}: the min-exponent gcd of every cofactor den*/sp(lambda)."""
    parts = [i for i in range(1, n + 1) if pclass.allows(i)]
    cofactors = []
    for p in filtered_partitions(n, pclass.allows):
        m = Counter(p)
        cofactors.append({i: n // i - m[i] for i in parts})
    return min_exponents(cofactors)


def certificate_problems(n, num, certificate):
    """Why [d, p, zeta, L] fails to prove that Phi_2d does not divide num = num(n); [] if it proves it.

    p must be prime (trial division) with p = 1 mod 2d and p > 2n, so
    that L is num(n)(zeta) up to a unit; zeta must have order exactly
    2d mod p (zeta^d = -1, and zeta^(2d/q) != 1 for every odd prime q
    dividing d); L must be a nonzero residue; and num(zeta), from num's
    own coefficients, must be nonzero mod p.  Then Phi_2d, which
    vanishes at zeta mod p, cannot divide num over Z.
    """
    d, p, zeta, lead = certificate
    problems = []
    if not is_prime(p):
        problems.append(f"{p} is not prime")
    if p <= 2 * n:
        problems.append(f"p = {p} is not above 2n = {2 * n}")
    if p % (2 * d) != 1:
        problems.append(f"{p} != 1 mod {2 * d}")
    if pow(zeta, d, p) != p - 1:
        problems.append(f"zeta^{d} != -1 mod {p}")
    for q in range(3, d + 1, 2):
        if d % q == 0 and is_prime(q) and pow(zeta, 2 * d // q, p) == 1:
            problems.append(f"zeta^{2 * d // q} = 1 mod {p}")
    if not 0 < lead < p:
        problems.append(f"L = {lead} is not a nonzero residue mod {p}")
    if sum(c * pow(zeta, j, p) for j, c in enumerate(num)) % p == 0:
        problems.append(f"num(zeta) = 0 mod {p}")
    return problems


def leading_pass(allows, d, upto, p, zeta):
    """L(r) mod p for r = 0..upto, every cell filled; the reference for `reduction.leading_coefficient`.

    The leading-order recurrence of the coin DP at x = zeta + t, run
    over every allowed part i <= upto and every weight, with no block
    structure or lemma 4 assumed: the pole i = d adds
    L(r-d) / (d zeta^(d-1)); the other odd multiples of d add nothing;
    every other part adds L(r-i) / (1+zeta^i) when (r-i)//d == r//d.
    """
    lead = [1] + [0] * upto
    for i in range(1, upto + 1):
        if not allows(i) or (i != d and i % (2 * d) == d):
            continue
        if i == d:
            u = pow(d * pow(zeta, d - 1, p), -1, p)
        else:
            u = pow(1 + pow(zeta, i, p), -1, p)
        for r in range(i, upto + 1):
            if i == d or (r - i) // d == r // d:
                lead[r] = (lead[r] + lead[r - i] * u) % p
    return lead
