import pytest

from subsum import reduction


@pytest.fixture
def low_floor(monkeypatch):
    """Certificate floors F_j = 16 * 2^j, with the certificate caches cleared before and after.

    The caches are taken before the test runs, so a test may patch
    `_leading_block` with a wrapper that has none.
    """
    caches = (reduction._leading_block, reduction.root_of_unity)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(reduction, "_PRIME_FLOOR", 16)
    yield
    for cache in caches:
        cache.cache_clear()
