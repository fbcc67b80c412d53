#!/usr/bin/env python3
"""The integer sequences attached to the ternary and odd pipelines.

t(n) = num_T(n,1) is constant on triples and satisfies
t(3n) - t(3n-2) = 4^n t(n); s(n) = num_T(n,-1) is a pure power of 3;
and num_O(n,-1) walks through the odd parts of the factorials.
"""

from subsum import reduction, verify
from subsum.partitions import PartitionClass

TOP = 18

t = reduction.t_values(3 * TOP)
s = [None] + [reduction.num_at(n, PartitionClass.TERNARY, -1) for n in range(1, TOP + 1)]

print(f"{'n':>3} {'t(n)':>14} {'s(n)':>8} {'o(n!)':>16}")
for n in range(1, TOP + 1):
    print(f"{n:>3} {t[n]:>14} {s[n]:>8} {verify.odd_factorial_part(n):>16}")

print()
print("Blocks of three in t:", [tuple(t[3 * m : 3 * m + 3]) for m in range(5)])
print()
print("The recurrence, spelled out:")
for n in range(1, 7):
    print(f"  t({3 * n}) - t({3 * n - 2}) = {t[3 * n]} - {t[3 * n - 2]} = {t[3 * n] - t[3 * n - 2]} = 4^{n} * t({n}) = {4 ** n * t[n]}")
    assert t[3 * n] - t[3 * n - 2] == 4**n * t[n]
