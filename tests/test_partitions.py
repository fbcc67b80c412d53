import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsum.partitions import (
    PartitionClass,
    allowed_parts,
    enumerate_partitions,
    multiplicities,
)

import oracles

CLASSES = list(PartitionClass)


def test_ordinary_n4_matches_listing_and_order():
    got = list(enumerate_partitions(4, PartitionClass.ORDINARY))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_n0_yields_exactly_the_empty_partition():
    for pclass in CLASSES:
        assert list(enumerate_partitions(0, pclass)) == [()]


def test_binary_n4():
    got = set(enumerate_partitions(4, PartitionClass.BINARY))
    assert got == {(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)}


def test_ternary_n6_exactly_three():
    got = list(enumerate_partitions(6, PartitionClass.TERNARY))
    assert set(got) == {(3, 3), (3, 1, 1, 1), (1, 1, 1, 1, 1, 1)}
    assert len(got) == 3


def test_reverse_lex_order_all_classes():
    for pclass in CLASSES:
        for n in range(0, 12):
            got = list(enumerate_partitions(n, pclass))
            assert got == sorted(got, reverse=True)


@pytest.mark.parametrize(
    "pclass,n,expected",
    [
        (PartitionClass.TERNARY, 10, [1, 3, 9]),
        (PartitionClass.ORDINARY, 3, [1, 2, 3]),
        (PartitionClass.BINARY, 17, [1, 2, 4, 8, 16]),
        (PartitionClass.ODD, 8, [1, 3, 5, 7]),
    ],
)
def test_allowed_parts(pclass, n, expected):
    assert allowed_parts(pclass, n) == expected


def test_allowed_parts_equal_the_allows_filter():
    for pclass in CLASSES:
        for n in range(301):
            assert allowed_parts(pclass, n) == [part for part in range(1, n + 1) if pclass.allows(part)], (pclass, n)


def test_multiplicities_examples():
    assert multiplicities((2, 1, 1)) == {2: 1, 1: 2}
    assert multiplicities(()) == {}
    assert multiplicities((3, 3, 3, 1)) == {3: 3, 1: 1}


def test_ordinary_counts_match_euler_recurrence():
    for n in range(31):
        assert len(list(enumerate_partitions(n, PartitionClass.ORDINARY))) == oracles.pentagonal_count(n)


def test_restricted_enumeration_matches_filtered_oracle():
    for pclass in CLASSES:
        for n in range(15):
            want = oracles.filtered_partitions(n, pclass.allows)
            got = list(enumerate_partitions(n, pclass))
            assert got == want, (pclass, n)


@given(st.integers(min_value=0, max_value=22), st.sampled_from(CLASSES))
@settings(max_examples=60, deadline=None)
def test_stream_invariants(n, pclass):
    seen = set()
    for p in enumerate_partitions(n, pclass):
        assert sum(p) == n
        assert all(p[k] >= p[k + 1] >= 1 for k in range(len(p) - 1))
        assert all(pclass.allows(part) for part in p)
        assert p not in seen
        seen.add(p)
    assert len(seen) == len(oracles.filtered_partitions(n, pclass.allows))


@given(st.integers(min_value=0, max_value=25))
@settings(max_examples=40, deadline=None)
def test_multiplicity_identities_and_roundtrip(n):
    for p in enumerate_partitions(n, PartitionClass.ORDINARY):
        m = multiplicities(p)
        assert sum(i * e for i, e in m.items()) == n
        assert sum(m.values()) == len(p)
        assert all(e > 0 for e in m.values())


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1, PartitionClass.ORDINARY))
    assert allowed_parts(PartitionClass.ORDINARY, 0) == []
    with pytest.raises(ValueError):
        allowed_parts(PartitionClass.ORDINARY, -1)
