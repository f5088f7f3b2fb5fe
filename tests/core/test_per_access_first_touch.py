"""The dynamic detector's per-access first-touch branch, pinned whole.

``DynamicGranularityDetector.on_read``/``on_write`` settle a first
touch (no own-side group anywhere in the access) from one probe of the
shadow table, which also yields the record left of the access: they
adopt the range into it when it is an Init group this thread stamped
this epoch, and otherwise call ``_first_access``.  The other-kind
history check skips
its segment scan when the other table holds nothing in the range, or
when one group holds every byte of it, and a read adopt marks in the
read bitmap only the bytes of its group that are not already set.

Each crafted feed below is one shape of that branch.  Its full
``snapshot_state()`` (groups, index, bitmaps, read clocks, counters,
memory model, race reports) is pinned as a sha256 digest, for
per-access replay and for the coalesced feed alike.  The digests were
recorded with the segment-scan access paths that this branch replaced,
so the faster paths must leave the detector byte-for-byte where those
did.
"""

import hashlib

import pytest

from repro.core.config import DynamicConfig
from repro.core.detector import DynamicGranularityDetector
from repro.perf.batch import coalesce_events
from repro.runtime.events import FORK, JOIN, READ, RELEASE, WRITE
from repro.runtime.vm import drive, handlers
from repro.server.protocol import dumps_canonical


def _run(tid, op, addr, n, width=4, site=1):
    return [(op, tid, addr + i * width, width, site) for i in range(n)]


def _forked(*events):
    return [(FORK, 0, 1, 0, 0)] + [ev for part in events for ev in part]


def _both(addr, n, width=4, tid=0, site=1):
    """The same accesses as writes, then, 0x1000 higher, as reads."""
    return _run(tid, WRITE, addr, n, width, site) + _run(
        tid, READ, addr + 0x1000, n, width, site + 1
    )


#: name -> events.  Every feed starts with thread 0 forking thread 1.
FEEDS = {
    "continuation": _forked(
        _both(0x100, 16),
        # A second run continues the group from where the first ended.
        _both(0x140, 16, site=3),
    ),
    "left-group-with-holes": _forked(
        _both(0x100, 8),
        # 8 bytes past the group: the neighbour scan merges across the
        # gap, leaving a hole at [0x120, 0x128).
        _both(0x128, 1, site=3),
        # Adopt to the right of the holed group ...
        _both(0x12C, 4, site=5),
        # ... then, after a join cleared the bitmaps, into the hole,
        # which the second access fills: it marks the whole group.
        [(JOIN, 0, 1, 0, 0)],
        _both(0x120, 2, site=7),
        # A read over the hole-free group is a same-epoch hit.
        _run(0, READ, 0x1104, 1, site=9),
    ),
    "left-group-stamped-elsewhere": _forked(
        # Thread 1's group on the left, stamped with the same clock
        # value as thread 0's current epoch: no adopt for thread 0.
        [(RELEASE, 1, 8, 1, 0)],
        _both(0x100, 8, tid=1),
        _both(0x120, 8, site=3),
        # This thread's group, stamped in an older epoch.
        _both(0x300, 8, site=5),
        [(RELEASE, 0, 9, 1, 0)],
        _both(0x320, 8, site=7),
        # This thread's group, whose last word the second epoch split
        # out firm and stamped: the current epoch, but no longer Init.
        _both(0x500, 8, site=9),
        [(RELEASE, 0, 9, 1, 0)],
        _both(0x51C, 1, site=11),
        _both(0x520, 8, site=13),
    ),
    "range-partly-held": _forked(
        _both(0x104, 2),
        # [0x100, 0x108): the first half is free, the second held.
        _both(0x100, 1, width=8, site=3),
        # [0x10A, 0x10E): held at the start, free past 0x10C.
        _both(0x10A, 1, site=5),
        # [0x130, 0x134): only its last byte is held.
        _both(0x133, 1, width=1, site=9),
        _both(0x130, 1, site=11),
        # Thread 1 writes over part of thread 0's group: a race.
        _run(1, WRITE, 0x0FC, 2, width=4, site=7),
        _run(1, READ, 0x10FC, 2, width=4, site=8),
    ),
    "crosses-an-entry": _forked(
        # 0x17E..0x182 straddles the 128-byte entry boundary at 0x180.
        _both(0x172, 6),
        # 0x380 starts an entry; its left neighbour is in the previous.
        _both(0x37C, 2, site=3),
        # A fresh access straddling a boundary.
        _both(0x57E, 1, site=5),
        # A read straddling a boundary over two threads' write groups:
        # thread 0's is concurrent with it (a race).
        _run(1, WRITE, 0x6FC, 1, site=7),
        _run(0, WRITE, 0x700, 1, site=8),
        _run(1, READ, 0x6FE, 1, site=9),
    ),
    "word-indexed-entry": _forked(
        # Aligned single bytes leave their entry word-indexed.
        _both(0x400, 3, width=4),
        [(WRITE, 0, 0x401, 1, 3), (READ, 0, 0x1401, 1, 4)],
        # A 4-byte first touch whose left byte is unaligned in a
        # word-indexed entry, and a run ending on an aligned entry
        # start, then continued one byte into that word-indexed entry.
        _both(0x50C, 1, site=5),
        _both(0x5F8, 9, width=1, site=7),
        _both(0x601, 1, width=1, site=9),
    ),
    "read-after-join-adopts-same-epoch": _forked(
        _run(1, WRITE, 0x900, 1, site=9),
        _run(0, READ, 0x100, 8, site=1),
        # The join clears thread 0's bitmaps but keeps its clock.
        [(JOIN, 0, 1, 0, 0)],
        # A same-epoch hit marks only its own bytes ...
        _run(0, READ, 0x108, 1, site=2),
        # ... so the continuation must still mark the rest of the
        # group, and a later read of its first member hits the bitmap.
        _run(0, READ, 0x120, 4, site=3),
        _run(0, READ, 0x100, 1, site=4),
        # A join in the middle of a run of adopts.
        _run(0, READ, 0x200, 4, site=5),
        [(JOIN, 0, 1, 0, 0)],
        _run(0, READ, 0x210, 4, site=6),
        _run(0, READ, 0x200, 2, site=7),
    ),
    "write-over-read-groups": _forked(
        # Thread 0's own read group: one group holds every byte.
        _run(0, READ, 0x100, 16, site=1),
        _run(0, WRITE, 0x100, 16, site=2),
        # Thread 1's concurrent reads race with thread 0's writes.
        _run(1, READ, 0x200, 8, site=3),
        _run(0, WRITE, 0x200, 8, site=4),
        # Both threads read: a shared read clock, deflated by a write.
        _run(0, READ, 0x300, 8, site=5),
        _run(1, READ, 0x300, 8, site=6),
        [(JOIN, 0, 1, 0, 0)],
        _run(0, WRITE, 0x300, 8, site=7),
        # A read group with a hole, written over a member and across
        # the hole.
        _run(0, READ, 0x400, 4, site=8),
        _run(0, READ, 0x418, 1, site=9),
        _run(0, WRITE, 0x404, 1, site=10),
        _run(0, WRITE, 0x40E, 1, width=8, site=11),
    ),
    "read-over-write-groups": _forked(
        # A write group with a hole, read over a member and across the
        # hole; then thread 1 reads it unordered (a race).
        _run(0, WRITE, 0x100, 4, site=1),
        _run(0, WRITE, 0x118, 1, site=2),
        _run(0, READ, 0x104, 1, site=3),
        _run(0, READ, 0x10E, 1, width=8, site=4),
        _run(1, READ, 0x108, 4, site=5),
    ),
}

CONFIGS = {
    "default": DynamicConfig(),
    "no-init-state": DynamicConfig(init_state=False),
    "no-sharing-at-init": DynamicConfig(share_at_init=False),
}

#: sha256 of ``dumps_canonical(snapshot_state())`` after ``finish()``,
#: per (feed, config); per-access and coalesced replay both reach it.
DIGESTS = {
    ("continuation", "default"): (
        "81c51d9a82946669234580486136d84a"
        "b7258393193cb237bcc299c62963e004"
    ),
    ("continuation", "no-init-state"): (
        "35532987c47f6e4f5e2eeb487c35c9a0"
        "412bd240dc4795847edbd801b21e64f2"
    ),
    ("continuation", "no-sharing-at-init"): (
        "5c7dff592bfe0142be1714a078903606"
        "28ca86654370cdbead313d586c3585cf"
    ),
    ("crosses-an-entry", "default"): (
        "48f6de91c941992a79f70ef7b4cef886"
        "308d1a8901e0ebd40361a9fe797396b6"
    ),
    ("crosses-an-entry", "no-init-state"): (
        "36d5a1c3700ef497dafb70e4b9644c20"
        "3f4aff0f89b778067172a8ca944f4e18"
    ),
    ("crosses-an-entry", "no-sharing-at-init"): (
        "d306a4e598f4117694c2058ed3c43a3f"
        "5c25d0882c75b0a1f6e51c2b2113bc13"
    ),
    ("left-group-stamped-elsewhere", "default"): (
        "7dbea8d99aac5a0bddb1ecc965b11cb5"
        "82107b5b6bcd30d37ad5b14d4caa7310"
    ),
    ("left-group-stamped-elsewhere", "no-init-state"): (
        "122bd466ec09016fdac24b97e3fc4ac7"
        "ca851613e9fef4ab575beeef6408103f"
    ),
    ("left-group-stamped-elsewhere", "no-sharing-at-init"): (
        "2d3feeb83c26905877ddae10d7a78a03"
        "6a64cad1c2a4a0eebd0be28f46674641"
    ),
    ("left-group-with-holes", "default"): (
        "7ded2138c6a3dd4d960cef7d0475e159"
        "967005ccd4db0f0bccd9e20cee00dd1f"
    ),
    ("left-group-with-holes", "no-init-state"): (
        "8fd4146343ed74ce8be58fca0970f854"
        "2fa28bdaa0cdcade3e1fea7dbaebfa33"
    ),
    ("left-group-with-holes", "no-sharing-at-init"): (
        "8147926c8b11d19055de389893fe3c25"
        "1f38ee89d2e22beb23a2a018e8652553"
    ),
    ("range-partly-held", "default"): (
        "4c8e464e6ec1da9c8cb7a18da3f28deb"
        "ae3aee22f2cfafda5db9132a16095878"
    ),
    ("range-partly-held", "no-init-state"): (
        "4d37d9b42346510a3132fd6423ff9ebc"
        "712c2760a924005c05303d006e54a893"
    ),
    ("range-partly-held", "no-sharing-at-init"): (
        "3ddb3cef14d94b11fa5cb7e71b656244"
        "57b0e02c88357fc6aa34d93513dd6e6c"
    ),
    ("read-after-join-adopts-same-epoch", "default"): (
        "06864f7a39cf880911388dc451b84bb7"
        "338b595df0ead68509b55463148b6d21"
    ),
    ("read-after-join-adopts-same-epoch", "no-init-state"): (
        "10ab5992bd2417b6d6dc009068e0da1b"
        "ca6f45726c778160e526aae24cb44ec2"
    ),
    ("read-after-join-adopts-same-epoch", "no-sharing-at-init"): (
        "9eb730ae2f6afae90ec8c3a751b0475a"
        "d6e8c7a5fdc24cc4a1728a580687c7ce"
    ),
    ("read-over-write-groups", "default"): (
        "b17b7b1e0ed1ef7a03da504b010baa1b"
        "20dcaaf1de790aefe13deea69f2912e0"
    ),
    ("read-over-write-groups", "no-init-state"): (
        "2d24d811e67342739f1878c13c33f851"
        "9d7cd18f744bab608c56441779edecf9"
    ),
    ("read-over-write-groups", "no-sharing-at-init"): (
        "805f979b8d87f5e69caec2401d4011a4"
        "6313ef8bdc75522ad4b349c29774c9f1"
    ),
    ("word-indexed-entry", "default"): (
        "25dfb39117350960c7e71be49c8c4e8d"
        "5beadbf984abf5a3a501f5f0b1b6da3b"
    ),
    ("word-indexed-entry", "no-init-state"): (
        "75e86936045625cd9a2042730adecb53"
        "e7965c4b47a1e5e7eff2c6693ea3288f"
    ),
    ("word-indexed-entry", "no-sharing-at-init"): (
        "140d2808504af2a70375b85ed0aa7abf"
        "f5dd252dc1b2389ead53fd0b5b2f8b80"
    ),
    ("write-over-read-groups", "default"): (
        "0cc647d17d492f1add5e1241b397d958"
        "69e48979e48e7a9bb1116fcff138b6e7"
    ),
    ("write-over-read-groups", "no-init-state"): (
        "1b7046110cce17f011568cc6ec34d8bd"
        "93cdc97e294391ed6f958ea630b4c0b7"
    ),
    ("write-over-read-groups", "no-sharing-at-init"): (
        "8810bd254a93ce3370a8cf4b6ae430b3"
        "5ea48d756f717852d8c848ffb59d5560"
    ),
}


def _digest(events, config, batched):
    det = DynamicGranularityDetector(config=config)
    drive(coalesce_events(events) if batched else events, handlers(det))
    det.finish()
    det.check_invariants()
    return hashlib.sha256(dumps_canonical(det.snapshot_state())).hexdigest()


def test_every_feed_and_config_is_pinned():
    assert sorted(DIGESTS) == sorted(
        (feed, config) for feed in FEEDS for config in CONFIGS
    )


@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("feed", sorted(FEEDS))
def test_first_touch_state_matches_recorded_digest(feed, config, batched):
    assert _digest(FEEDS[feed], CONFIGS[config], batched) == DIGESTS[feed, config]
