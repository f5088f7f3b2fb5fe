"""Unit tests for the VectorClock lattice."""

import pytest

from repro.clocks.vectorclock import VectorClock


def test_fresh_thread_clock_starts_at_one():
    vc = VectorClock.for_thread(3)
    assert vc.as_list() == [0, 0, 0, 1]
    assert vc.get(3) == 1


def test_get_past_stored_length_is_zero():
    vc = VectorClock([1, 2])
    assert vc.get(7) == 0


def test_set_grows_vector():
    vc = VectorClock()
    vc.set(4, 9)
    assert vc.as_list() == [0, 0, 0, 0, 9]


def test_increment_returns_new_value():
    vc = VectorClock([5])
    assert vc.increment(0) == 6
    assert vc.increment(2) == 1


def test_join_is_elementwise_max():
    a = VectorClock([1, 5, 0])
    b = VectorClock([3, 2, 4, 7])
    a.join(b)
    assert a.as_list() == [3, 5, 4, 7]


def test_join_with_shorter_vector():
    a = VectorClock([1, 5, 9])
    b = VectorClock([3])
    a.join(b)
    assert a.as_list() == [3, 5, 9]


def test_leq_pointwise():
    assert VectorClock([1, 2]).leq(VectorClock([1, 2, 0]))
    assert VectorClock([1, 2]).leq(VectorClock([5, 2]))
    assert not VectorClock([1, 3]).leq(VectorClock([1, 2]))


def test_leq_with_implicit_zeros():
    assert VectorClock([0, 0, 0]).leq(VectorClock([]))
    assert not VectorClock([0, 1]).leq(VectorClock([]))


def test_equality_ignores_zero_padding():
    assert VectorClock([1, 2]) == VectorClock([1, 2, 0, 0])
    assert VectorClock([1, 2, 0, 3]) != VectorClock([1, 2])


def test_equality_non_clock_is_not_implemented():
    assert VectorClock([1]) != "not a clock"


def test_copy_is_independent():
    a = VectorClock([1, 2])
    b = a.copy()
    b.set(0, 9)
    assert a.get(0) == 1


def test_unhashable():
    with pytest.raises(TypeError):
        hash(VectorClock([1]))


def test_nonzero_width():
    assert VectorClock([1, 0, 2, 0, 0]).nonzero_width() == 3
    assert VectorClock([0, 0]).nonzero_width() == 0
    assert VectorClock().nonzero_width() == 0


def test_repr_mentions_contents():
    assert "1, 2" in repr(VectorClock([1, 2]))


# ----------------------------------------------------------------------
# the tightened paths (fused equal-length join, zip leq, copy-on-write)
# are observably identical to the naive definitions
# ----------------------------------------------------------------------

N_THREADS = 32


def _mixed(seed: int, n: int = N_THREADS) -> VectorClock:
    """A deterministic clock with spread-out component values."""
    return VectorClock([(seed * 31 + i * 17) % 97 for i in range(n)])


def _naive_join(a, b):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        if v > out[i]:
            out[i] = v
    return out


@pytest.mark.parametrize("left_width", (N_THREADS, 5), ids=("equal", "unequal"))
def test_join_matches_naive_join(left_width):
    for seed in range(20):
        a, b = _mixed(seed, left_width), _mixed(seed + 1)
        expect = _naive_join(a.as_list(), b.as_list())
        a.join(b)
        assert a.as_list() == expect


def test_leq_agrees_with_componentwise_definition():
    clocks = [_mixed(s, n) for s in range(6) for n in (3, 8, N_THREADS)]
    for a in clocks:
        for b in clocks:
            la, lb = a.as_list(), b.as_list()
            width = max(len(la), len(lb))
            la += [0] * (width - len(la))
            lb += [0] * (width - len(lb))
            expect = all(x <= y for x, y in zip(la, lb))
            assert a.leq(b) is expect


def test_clock_is_leq_its_join():
    a, b = _mixed(1), _mixed(2)
    b.join(a)
    assert a.leq(b)


def test_cow_copy_is_independent_after_either_side_mutates():
    base = _mixed(3)
    snap = base.as_list()
    alias = base.cow_copy()
    # Mutating the alias must not leak into the original...
    alias.increment(2)
    assert base.as_list() == snap
    assert alias.as_list() != snap
    # ...and vice versa, including via join and set.
    other = base.cow_copy()
    base.join(_mixed(9))
    assert other.as_list() == snap
    third = other.cow_copy()
    other.set(0, 10 ** 6)
    assert third.as_list() == snap


def test_join_with_own_cow_alias_is_identity():
    base = _mixed(4)
    alias = base.cow_copy()
    base.join(alias)
    assert base.as_list() == alias.as_list()
