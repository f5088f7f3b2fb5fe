"""Microbenchmark for the vector-clock hot paths.

Three inner loops are tightened:

* ``join`` takes a fused no-extend loop when both clocks already store
  the same number of components — the steady state once every thread
  has forked;
* ``leq`` compares via ``zip`` when the left clock is no longer than
  the right, skipping the implicit-zero tail handling;
* ``cow_copy`` shares the backing list of a sync-object clock until
  either side mutates, deferring the O(threads) allocation that
  ``copy`` pays up front (most release-copies are only ever joined
  from, never written).

Each timing case here has an equivalence twin asserting the optimized
path is *observably identical* to the naive one — same join results,
same leq verdicts, and full independence of CoW copies after mutation —
so a regression in behavior fails the bench before any timing moves.
"""

import pytest

from repro.clocks.vectorclock import VectorClock

N_THREADS = 32
ROUNDS = 2000


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


# ----------------------------------------------------------------------
# behavior: optimized paths are observably identical
# ----------------------------------------------------------------------

def test_equal_length_join_matches_naive_join():
    for seed in range(20):
        a, b = _mixed(seed), _mixed(seed + 1)
        expect = _naive_join(a.as_list(), b.as_list())
        a.join(b)
        assert a.as_list() == expect


def test_unequal_length_join_matches_naive_join():
    for seed in range(20):
        a, b = _mixed(seed, 5), _mixed(seed + 1, N_THREADS)
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


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lengths", ("equal", "growing"), ids=str)
def test_join_throughput(benchmark, lengths):
    b = _mixed(1)

    def run():
        for i in range(ROUNDS):
            a = _mixed(i, 4 if lengths == "growing" else N_THREADS)
            a.join(b)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_leq_throughput(benchmark):
    a, b = _mixed(1), _mixed(2)
    b.join(a)  # make b an upper bound so leq scans the whole vector

    def run():
        for _ in range(ROUNDS):
            assert a.leq(b)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("kind", ("copy", "cow_copy"), ids=str)
def test_release_copy_throughput(benchmark, kind):
    """The release-path copy: most copies are never mutated, which is
    exactly the case cow_copy makes O(1)."""
    base = _mixed(5)
    make = getattr(base, kind)
    sink = _mixed(6)

    def run():
        for _ in range(ROUNDS):
            c = make()
            sink.join(c)  # read-only use, the common fate of a release copy

    benchmark.pedantic(run, rounds=3, iterations=1)
