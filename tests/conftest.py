import pytest

from pathcong import Quiver, semigroup

# every cache keyed by quiver: a semigroup carries its table, its congruence
# closure and the finished report of its quiver's theorem check
QUIVER_CACHES = (semigroup.build_semigroup,)


@pytest.fixture(autouse=True)
def fresh_quiver_caches():
    """Clear the quiver-keyed caches around each test, so that a semigroup,
    closure or report one test built cannot hide work another test counts,
    or a fault another test plants."""
    for cache in QUIVER_CACHES:
        cache.cache_clear()
    yield
    for cache in QUIVER_CACHES:
        cache.cache_clear()


@pytest.fixture
def single_arrow():
    """Two vertices joined by one arrow."""
    return Quiver(["1", "2"], [("alpha", "1", "2")])


@pytest.fixture
def kronecker():
    """Two parallel arrows."""
    return Quiver(["1", "2"], [("alpha", "1", "2"), ("beta", "1", "2")])


@pytest.fixture
def triple_arrow():
    """Three parallel arrows."""
    return Quiver(
        ["1", "2"],
        [("alpha", "1", "2"), ("beta", "1", "2"), ("gamma", "1", "2")],
    )


@pytest.fixture
def chain3():
    """1 -> 2 -> 3 with arrows a, b."""
    return Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
