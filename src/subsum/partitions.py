"""Streaming enumeration of integer partitions, plain and restricted.

Partitions are tuples of positive parts in nonincreasing order; the empty
tuple is the unique partition of 0.  Four part-sets are supported: all
positive integers, the odd numbers, the powers of 2, and the powers of 3.
Enumeration never materializes the full list, so callers can fold over
partition streams whose length grows superpolynomially in n.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Iterator

Partition = tuple[int, ...]


class PartitionClass(Enum):
    """Which parts a partition may use."""

    ORDINARY = "ordinary"
    ODD = "odd"
    BINARY = "binary"
    TERNARY = "ternary"

    def allows(self, part: int) -> bool:
        if part < 1:
            return False
        if self is PartitionClass.ORDINARY:
            return True
        if self is PartitionClass.ODD:
            return part % 2 == 1
        base = 2 if self is PartitionClass.BINARY else 3
        while part % base == 0:
            part //= base
        return part == 1


def allowed_parts(pclass: PartitionClass, n: int) -> list[int]:
    """All parts of `pclass` that are <= n, ascending; none for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if pclass is PartitionClass.ORDINARY:
        return list(range(1, n + 1))
    if pclass is PartitionClass.ODD:
        return list(range(1, n + 1, 2))
    base = 2 if pclass is PartitionClass.BINARY else 3
    parts = []
    part = 1
    while part <= n:
        parts.append(part)
        part *= base
    return parts


def enumerate_partitions(n: int, pclass: PartitionClass) -> Iterator[Partition]:
    """Yield every partition of n with parts in `pclass`, reverse-lexicographically.

    Largest first part comes first, so for n=4 the ordinary stream is
    (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  n=0 yields exactly the empty
    partition.  Restricted classes recurse over their own allowed-part
    list rather than filtering the ordinary stream.
    """
    parts_desc = allowed_parts(pclass, n)[::-1]
    yield from _descend(n, parts_desc, 0)


def _descend(remaining: int, parts_desc: list[int], idx: int) -> Iterator[Partition]:
    if remaining == 0:
        yield ()
        return
    for k in range(idx, len(parts_desc)):
        p = parts_desc[k]
        if p > remaining:
            continue
        for rest in _descend(remaining - p, parts_desc, k):
            yield (p,) + rest


def multiplicities(p: Partition) -> dict[int, int]:
    """Map each part to its multiplicity; no zero entries."""
    return dict(Counter(p))
