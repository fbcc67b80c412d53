"""Exact reduced numerator/denominator pairs of partition reciprocal sums.

The library enumerates ordinary, odd, binary and ternary partitions,
accumulates the rational function sum of 1/sp(lambda, x) exactly over
the integers, cancels the common divisor of the summands, and machine-
checks the coprimality, special-value and recurrence theorems plus the
open coefficient-shape conjectures at desk scale.
"""

from .intpoly import IntPoly
from .partitions import (
    Partition,
    PartitionClass,
    allowed_parts,
    enumerate_partitions,
    multiplicities,
)
from .reduction import (
    big_g,
    den,
    den_star,
    h_factored,
    num,
    num_star,
    spol,
    t_values,
)
from .verify import ConjectureReport, legendre_valuation, odd_part

__version__ = "0.1.0"

__all__ = [
    "ConjectureReport",
    "IntPoly",
    "Partition",
    "PartitionClass",
    "allowed_parts",
    "big_g",
    "den",
    "den_star",
    "enumerate_partitions",
    "h_factored",
    "legendre_valuation",
    "multiplicities",
    "num",
    "num_star",
    "odd_part",
    "spol",
    "t_values",
    "__version__",
]
