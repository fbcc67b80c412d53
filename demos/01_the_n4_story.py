#!/usr/bin/env python3
"""Walk through the n = 4 worked example, object by object.

The five partitions of 4 give five subsum polynomials; putting the
reciprocal sum over a common denominator and cancelling the common
divisor of the summands leaves the reduced pair num(4,x)/den(4,x),
which turns out to be in lowest terms already.
"""

import math
from fractions import Fraction

from subsum import cyclotomic, intpoly, reduction
from subsum.cli import format_poly
from subsum.partitions import PartitionClass, enumerate_partitions, multiplicities

ORD = PartitionClass.ORDINARY


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("The five partitions of 4 and their subsum polynomials")
for p in enumerate_partitions(4, ORD):
    print(f"  {str(p):14s} sp = {format_poly(reduction.spol(p))}")

show("Unreduced common denominator den*(4,x)")
dstar = reduction.den_star(4, ORD)
print(f"  factored: {dstar}   (i -> exponent of 1+x^i)")
print(f"  expanded: {format_poly(cyclotomic.expand_binomials(dstar))}")

show("The cofactors h = den*/sp, still factored")
for p in enumerate_partitions(4, ORD):
    h = reduction.h_factored(4, ORD, multiplicities(p))
    print(f"  {str(p):14s} h = {h}")

show("Their common divisor G(4,x)")
g = reduction.big_g(4, ORD)
print(f"  cyclotomic exponents: {g}  (d -> exponent of Phi_2d)")
print(f"  expanded: {format_poly(cyclotomic.expand_cyclotomics(g))}")

show("The reduced pair")
num = reduction.num(4, ORD)
den = cyclotomic.expand_cyclotomics(reduction.den(4, ORD))
print(f"  num(4,x) = {format_poly(num)}")
print(f"  den(4,x) = {format_poly(den)}")

show("Cross-check: the sum of reciprocals at x = 2, both ways")
x0 = Fraction(2)
direct = sum(1 / math.prod(1 + x0**part for part in p) for p in enumerate_partitions(4, ORD))
via_pair = intpoly.eval_at_int(num, x0) / intpoly.eval_at_int(den, x0)
print(f"  direct reciprocal sum: {direct}")
print(f"  num(2)/den(2):         {via_pair}")
assert direct == via_pair
print("  equal, as they must be")
